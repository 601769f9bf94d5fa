"""Closed-form plane maps for quadratic-profile surfaces of revolution.

The map Phi(t, u) = (x, y) sends meridians (t fixed) to straight lines while
preserving infinitesimal length along meridians and parallels:
|dPhi/du| = 1 and |dPhi/dt| = f(u).  Its ingredients are

    a(u) = arctan((u - u*)/L)     meridian turning angle,
    b(t) = -sqrt(c) t + c0        line direction angle (+sqrt(c) t + c0 on
                                  the mirrored branch),
    theta0 with sin(theta0) = d / (2 sqrt(ck)),

with u* = -d/(2c) and L = sqrt(m/c) the profile's invariants
(``QuadraticProfile``), and in complex form z = x + iy the map is one affine
expression per meridian,

    Phi(t, u) = sigma (e^{-i b(t)} (u + w0) - e^{-i b(t_base)} w0),
    w0 = -i (sqrt(k)/sqrt(c)) e^{i theta0} = -u* -+ iL,
    sigma = +-1 on CASE_A / CASE_B.

w0 is built from the invariants: -u* - iL on the principal theta0 and
-u* + iL on its supplement, so theta0 itself never enters the kernel.

``plane_map`` evaluates Phi on arrays and ``plane_map_derivatives`` its two
partial derivatives, so no caller forms a grid it does not read; the scalar
``project`` and ``jacobian`` are views of one each, and ``invert`` solves
Phi in closed form, with no preimage on or inside its fold circle.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoPreimage
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
    anchors the map so that Phi(t_base, 0) = 0.  The kernel reads only
    theta0's side: Im w0 = -L where cos(theta0) >= 0 (the principal
    branch) and +L where it is negative (the supplement).
    """

    c0: float
    theta0: float
    branch: Branch
    t_base: float


@dataclass(frozen=True)
class PlanePoint:
    x: float
    y: float


def make_projection_params(
    p: QuadraticProfile,
    c0: float = 0.0,
    branch: Branch = Branch.CASE_A,
    t_base: float = 0.0,
    mirror_theta0: bool = False,
) -> ProjectionParams:
    """theta0 = atan2(-u*, L), the principal arcsin of d/(2 sqrt(ck)), by
    default; ``mirror_theta0`` selects the supplementary angle pi - theta0,
    which has the same sine and therefore also satisfies both
    preserved-length conditions."""
    theta0 = math.atan2(-p.singular_u, p.length)
    if mirror_theta0:
        theta0 = math.pi - theta0
    return ProjectionParams(c0=float(c0), theta0=theta0, branch=branch, t_base=float(t_base))


def meridian_turning(p: QuadraticProfile, u: float):
    """(a, a') with a(u) = arctan2(u - u*, L) and a' = (L/H)/H, H = p.modulus(u)
    (c L/f^2, finite wherever f is); u may be a float or a numpy array."""
    h = p.modulus(u)
    return np.arctan2(u - p.singular_u, p.length), p.length / h / h


def b_slope(params: ProjectionParams, p: QuadraticProfile) -> float:
    """db/dt: -sqrt(c) on CASE_A, +sqrt(c) on CASE_B."""
    return -p.sqrt_c if params.branch is Branch.CASE_A else p.sqrt_c


def plane_map(p: QuadraticProfile, params: ProjectionParams, t, u):
    """Phi in complex form, z = x + iy, at t and u (floats or numpy arrays,
    broadcast against each other):

        Phi = sigma (e^{-i b(t)} (u + w0) - e^{-i b(t_base)} w0)

    with w0 = -u* -+ iL and sigma = +1 on CASE_A, -1 on CASE_B.  Each
    meridian image is the line through sigma (e^{-ib} w0 - e^{-i b(t_base)} w0)
    with unit direction sigma e^{-ib}.
    """
    bp, sigma, w0, anchor = _map_constants(p, params)
    return _rotation(params, bp, sigma, t) * (u + w0) - sigma * anchor


def plane_map_derivatives(p: QuadraticProfile, params: ProjectionParams, t, u):
    """(dPhi/dt, dPhi/du) of :func:`plane_map` at the same t and u:

        dPhi/dt = -i sigma b' e^{-i b(t)} (u + w0)
        dPhi/du = sigma e^{-i b(t)}

    so |dPhi/dt| = sqrt(c) |u + w0| = f(u) and |dPhi/du| = 1.  dPhi/du does
    not depend on u and keeps the shape of t.
    """
    bp, sigma, w0, _ = _map_constants(p, params)
    rot = _rotation(params, bp, sigma, t)
    return -1j * bp * rot * (u + w0), rot


def _rotation(params: ProjectionParams, bp: float, sigma: float, t):
    """sigma e^{-i b(t)}, b(t) = b' t + c0: dPhi/du, the factor of u + w0 in Phi."""
    return sigma * np.exp(-1j * (bp * t + params.c0))


def _map_constants(p: QuadraticProfile, params: ProjectionParams):
    """(b', sigma, w0, e^{-i b(t_base)} w0), the constants of Phi shared by
    ``plane_map``, ``plane_map_derivatives`` and ``invert``."""
    bp = b_slope(params, p)
    w0 = complex(-p.singular_u, math.copysign(p.length, -math.cos(params.theta0)))
    # b(t) = b' t + c0
    anchor = cmath.exp(-1j * (bp * params.t_base + params.c0)) * w0
    return bp, -bp / p.sqrt_c, w0, anchor  # sigma = +1 on CASE_A, -1 on CASE_B


def project(p: QuadraticProfile, params: ProjectionParams, pt: SurfacePoint) -> PlanePoint:
    """Phi(t, u) = (x, y): affine in u along each meridian."""
    z = plane_map(p, params, pt.t, pt.u)
    return PlanePoint(float(z.real), float(z.imag))


def jacobian(p: QuadraticProfile, params: ProjectionParams, pt: SurfacePoint) -> np.ndarray:
    """2x2 Jacobian of Phi, columns (d/dt, d/du): the u-column is the unit
    meridian direction and the t-column has norm exactly f(u)."""
    zt, zu = plane_map_derivatives(p, params, pt.t, pt.u)
    return np.array([[zt.real, zu.real], [zt.imag, zu.imag]])


def t_period(p: QuadraticProfile) -> float:
    """Phi is exactly periodic in t with period 2 pi / sqrt(c)."""
    return 2.0 * math.pi / p.sqrt_c


def _default_t_window(p: QuadraticProfile):
    """[0, min(pi, T/2)], at most half a period: the default t-window of the emitters and verify."""
    return 0.0, min(math.pi, t_period(p) / 2.0)


def invert(p: QuadraticProfile, params: ProjectionParams, q: PlanePoint, seed: SurfacePoint) -> SurfacePoint:
    """Invert Phi in closed form.

    Undoing the rigid motion gives z' = sigma q + e^{-i b(t_base)} w0 =
    e^{-i b(t)} (u + w0), so |z'|^2 = (u - u*)^2 + L^2: u is
    u* +- sqrt(|z'|^2 - L^2) on the seed's side of u*, and
    b(t) = -arg(z'/(u + w0)).  t is folded into the period window centred on
    the seed (the map repeats every 2 pi / sqrt(c) in t, so the seed selects
    the sheet).  Raises NoPreimage for a target on or inside the fold circle
    |z'| <= L, which only u = u* reaches, and for a seed at
    u* itself, which picks neither side.
    """
    # Scalar on purpose: in numpy it took 16.2 us per call against 2.25 and
    # the roundtrip workload's op_p50_ms went 0.30 -> 1.23 ms (2-core x86_64
    # VM, numpy 2.4), and no caller passes arrays.
    if seed.u == p.singular_u:
        raise NoPreimage("seed u=%g is the zero-slope abscissa u*, which picks neither side" % seed.u)
    bp, sigma, w0, anchor = _map_constants(p, params)
    zp = sigma * complex(q.x, q.y) + anchor
    # |Im w0| = L and -Re w0 = u*, read off w0 as the forward map uses it
    r, fold = abs(zp), abs(w0.imag)
    if not r > fold:
        raise NoPreimage("target (%g, %g) is not outside the fold circle (|z'| = %g <= %g)" % (q.x, q.y, r, fold))
    half = math.sqrt((r - fold) * (r + fold))
    u = -w0.real + (half if seed.u > p.singular_u else -half)
    t = (-cmath.phase(zp / (u + w0)) - params.c0) / bp
    period = t_period(p)
    t -= period * round((t - seed.t) / period)
    return SurfacePoint(t, u)
