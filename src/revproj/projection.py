"""Closed-form plane maps for quadratic-profile surfaces of revolution.

The map Phi(t, u) = (x, y) sends meridians (t fixed) to straight lines while
preserving infinitesimal length along meridians and parallels:
|dPhi/du| = 1 and |dPhi/dt| = f(u).  Its ingredients are

    a(u) = arctan((2c / sqrt(-delta)) (u + d/2c))   meridian turning angle,
    b(t) = -sqrt(c) t + c0                          line direction angle
                                                    (+sqrt(c) t + c0 on the
                                                    mirrored branch),
    theta0 with sin(theta0) = d / (2 sqrt(ck)),

and in complex form z = x + iy the map is one affine expression per meridian,

    Phi(t, u) = sigma (e^{-i b(t)} (u + w0) - e^{-i b(t_base)} w0),
    w0 = -i (sqrt(k)/sqrt(c)) e^{i theta0},   sigma = +-1 on CASE_A / CASE_B.

``plane_map`` evaluates it and both partial derivatives on arrays; the
scalar ``project``, ``jacobian`` and ``frame_functions`` are views of it.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .profile import QuadraticProfile, SurfacePoint


class Branch(enum.Enum):
    """Which of the two solution branches fixes the map: CASE_A has
    b' = -sqrt(c), CASE_B the mirrored b' = +sqrt(c)."""

    CASE_A = "a"
    CASE_B = "b"


@dataclass(frozen=True)
class ProjectionParams:
    """Integration constants picking one concrete map out of the family.

    c0 shifts b(t); theta0 satisfies sin(theta0) = d/(2 sqrt(ck)); t_base
    anchors the t-antiderivatives so G2(t_base) = H2(t_base) = 0.
    """

    c0: float
    theta0: float
    branch: Branch
    t_base: float


@dataclass(frozen=True)
class PlanePoint:
    x: float
    y: float


@dataclass(frozen=True)
class FrameFunctions:
    """Frame at a fixed t: (g1, h1) is the unit direction of the meridian
    image, (G2, H2) the anchored antiderivatives whose t-derivatives have
    norm sqrt(k)."""

    g1: float
    h1: float
    G2: float
    H2: float


def make_projection_params(
    p: QuadraticProfile,
    c0: float = 0.0,
    branch: Branch = Branch.CASE_A,
    t_base: float = 0.0,
    mirror_theta0: bool = False,
) -> ProjectionParams:
    """theta0 = arcsin(d / (2 sqrt(ck))), principal branch by default;
    ``mirror_theta0`` selects the supplementary angle pi - theta0, which has
    the same sine and therefore also satisfies both preserved-length
    conditions."""
    s = p.d / (2.0 * math.sqrt(p.c * p.k))
    theta0 = math.asin(s)
    if mirror_theta0:
        theta0 = math.pi - theta0
    return ProjectionParams(c0=float(c0), theta0=theta0, branch=branch, t_base=float(t_base))


def meridian_turning(p: QuadraticProfile, u: float):
    """(a, a') with a(u) = arctan((2c/sqrt(-delta))(u + d/2c)) and
    a' = (sqrt(-delta)/2) / f(u)^2; u may be a float or a numpy array."""
    x = 2.0 * p.c / p.sqrt_neg_delta * (u + p.d / (2.0 * p.c))
    a = math.atan(x) if isinstance(x, float) else np.arctan(x)
    w = (p.c * u + p.d) * u + p.k
    a_prime = 0.5 * p.sqrt_neg_delta / w
    return a, a_prime


def b_slope(params: ProjectionParams, p: QuadraticProfile) -> float:
    """db/dt: -sqrt(c) on CASE_A, +sqrt(c) on CASE_B."""
    return -p.sqrt_c if params.branch is Branch.CASE_A else p.sqrt_c


def angle_b(params: ProjectionParams, p: QuadraticProfile, t: float) -> float:
    return b_slope(params, p) * t + params.c0


def omega(p: QuadraticProfile, params: ProjectionParams, t: float, u: float) -> float:
    """Direction angle of the parallel image tangent: omega = a(u) + b(t)."""
    a, _ = meridian_turning(p, u)
    return a + angle_b(params, p, t)


def phi(params: ProjectionParams, p: QuadraticProfile, t: float) -> float:
    """Direction angle of the meridian image: -b(t) on CASE_A,
    pi - b(t) on CASE_B."""
    b = angle_b(params, p, t)
    return -b if params.branch is Branch.CASE_A else math.pi - b


def plane_map(p: QuadraticProfile, params: ProjectionParams, t, u):
    """Phi and its two partial derivatives in complex form, z = x + iy, at
    t and u (floats or numpy arrays, broadcast against each other):

        Phi     = sigma (e^{-i b(t)} (u + w0) - e^{-i b(t_base)} w0)
        dPhi/dt = -i sigma b' e^{-i b(t)} (u + w0)
        dPhi/du = sigma e^{-i b(t)}

    with w0 = -i (sqrt(k)/sqrt(c)) e^{i theta0} and sigma = +1 on CASE_A,
    -1 on CASE_B.  Each meridian image is the line through
    sigma (e^{-ib} w0 - e^{-i b(t_base)} w0) with unit direction dPhi/du,
    and |dPhi/dt| = sqrt(c) |u + w0| = f(u).  Returns (Phi, dPhi/dt, dPhi/du);
    dPhi/du does not depend on u and keeps the shape of t.
    """
    # cmath.exp matches np.exp bit for bit and keeps scalar calls off numpy
    exp = np.exp if isinstance(t, np.ndarray) else cmath.exp
    bp = b_slope(params, p)
    sigma = -bp / p.sqrt_c  # +1 on CASE_A, -1 on CASE_B
    amp = math.sqrt(p.k) / p.sqrt_c
    w0 = complex(amp * math.sin(params.theta0), -amp * math.cos(params.theta0))
    # b(t) = b' t + c0, as in angle_b
    anchor = sigma * exp(-1j * (bp * params.t_base + params.c0)) * w0
    rot = sigma * exp(-1j * (bp * t + params.c0))
    arm = u + w0
    return rot * arm - anchor, -1j * bp * rot * arm, rot


def frame_functions(params: ProjectionParams, p: QuadraticProfile, t: float) -> FrameFunctions:
    """Frame at t: (g1, h1) = dPhi/du and (G2, H2) = Phi(t, 0), so that
    Phi(t, u) = (u g1 + G2, u h1 + H2)."""
    z, _, zu = plane_map(p, params, t, 0.0)
    return FrameFunctions(g1=float(zu.real), h1=float(zu.imag), G2=float(z.real), H2=float(z.imag))


def project(p: QuadraticProfile, params: ProjectionParams, pt: SurfacePoint) -> PlanePoint:
    """Phi(t, u) = (x, y): affine in u along each meridian."""
    z, _, _ = plane_map(p, params, pt.t, pt.u)
    return PlanePoint(float(z.real), float(z.imag))


def jacobian(p: QuadraticProfile, params: ProjectionParams, pt: SurfacePoint) -> np.ndarray:
    """2x2 Jacobian of Phi, columns (d/dt, d/du): the u-column is the unit
    meridian direction and the t-column has norm exactly f(u)."""
    _, zt, zu = plane_map(p, params, pt.t, pt.u)
    return np.array([[zt.real, zu.real], [zt.imag, zu.imag]])


def t_period(p: QuadraticProfile) -> float:
    """Phi is exactly periodic in t with period 2 pi / sqrt(c)."""
    return 2.0 * math.pi / p.sqrt_c


def invert(
    p: QuadraticProfile,
    params: ProjectionParams,
    q: PlanePoint,
    seed: SurfacePoint,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> SurfacePoint:
    """Invert Phi by Newton iteration with the analytic Jacobian.

    Returns (t, u) with |Phi(t, u) - q| <= tol, with t folded into the
    period window centred on the seed (the map repeats every 2 pi / sqrt(c)
    in t, so the seed selects the sheet).  Raises NoConvergence after
    ``max_iter`` steps or when |det J| falls below 1e-14.
    """
    t, u = seed.t, seed.u
    residual = math.inf
    for iteration in range(max_iter + 1):
        img = project(p, params, SurfacePoint(t, u))
        rx, ry = q.x - img.x, q.y - img.y
        residual = math.hypot(rx, ry)
        if residual <= tol:
            period = t_period(p)
            t -= period * round((t - seed.t) / period)
            return SurfacePoint(t, u)
        if iteration == max_iter:
            break
        (xt, xu), (yt, yu) = jacobian(p, params, SurfacePoint(t, u)).tolist()
        det = xt * yu - xu * yt
        if abs(det) < 1e-14:
            raise NoConvergence(
                "Jacobian determinant %g below 1e-14 at (t=%g, u=%g)" % (det, t, u),
                iterations=iteration,
                residual=residual,
            )
        t += (yu * rx - xu * ry) / det
        u += (-yt * rx + xt * ry) / det
    raise NoConvergence(
        "no convergence to %g after %d iterations (residual %g)" % (tol, max_iter, residual),
        iterations=max_iter,
        residual=residual,
    )
