"""Independent reference for the benchmark's output checks.

Nothing here imports revproj.  The plane map is written in its complex
form, which is derived from the paper's construction rather than from the
package's frame functions:

    Phi(t, u) = sigma * (e^{-i b(t)} (u + w0) - e^{-i b(t_base)} w0)
    w0 = -i sqrt(k/c) e^{i theta0},   sin(theta0) = d / (2 sqrt(ck))
    b(t) = b' t + c0,   b' = -sqrt(c), sigma = +1 on case a
                        b' = +sqrt(c), sigma = -1 on case b

The mirrored theta0 is pi - theta0.  The height g(u) = int sqrt(1 - f'^2)
is computed by composite Gauss-Legendre quadrature, and the existence
verdicts come from the paper's theorem: a map exists iff f^2 is a quadratic
c u^2 + d u + k with c > 0, k > 0, d^2 - 4ck < 0 on a domain that excludes
u* = -d/(2c).  The sphere and the pseudosphere admit none.
"""

from __future__ import annotations

import math

import numpy as np

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(20)
HEIGHT_PANELS = 8


def theta0(c: float, d: float, k: float, mirror: bool = False) -> float:
    angle = math.asin(d / (2.0 * math.sqrt(c * k)))
    return math.pi - angle if mirror else angle


def b_prime(c: float, case: str) -> float:
    return -math.sqrt(c) if case == "a" else math.sqrt(c)


def plane_map(c, d, k, t, u, c0=0.0, case="a", mirror=False, t_base=0.0):
    """Phi(t, u) as complex x + iy; t and u broadcast as numpy arrays."""
    sigma = 1.0 if case == "a" else -1.0
    bp = b_prime(c, case)
    w0 = -1j * math.sqrt(k / c) * np.exp(1j * theta0(c, d, k, mirror))
    b = bp * np.asarray(t, dtype=float) + c0
    b_base = bp * t_base + c0
    return sigma * (np.exp(-1j * b) * (np.asarray(u, dtype=float) + w0) - np.exp(-1j * b_base) * w0)


def plane_map_derivatives(c, d, k, t, u, c0=0.0, case="a", mirror=False):
    """(dPhi/du, dPhi/dt) in closed form: sigma e^{-ib} and
    -i sigma b' e^{-ib} (u + w0)."""
    sigma = 1.0 if case == "a" else -1.0
    bp = b_prime(c, case)
    w0 = -1j * math.sqrt(k / c) * np.exp(1j * theta0(c, d, k, mirror))
    rot = np.exp(-1j * (bp * np.asarray(t, dtype=float) + c0))
    return sigma * rot, -1j * sigma * bp * rot * (np.asarray(u, dtype=float) + w0)


def radius(c, d, k, u):
    u = np.asarray(u, dtype=float)
    return np.sqrt((c * u + d) * u + k)


def slope(c, d, k, u):
    u = np.asarray(u, dtype=float)
    return (2.0 * c * u + d) / (2.0 * radius(c, d, k, u))


def singular_u(c: float, d: float) -> float:
    return -d / (2.0 * c)


def feasible_half_width(c: float, d: float, k: float) -> float:
    """Half width of the window around u* where f'^2 <= 1 (infinite for
    c <= 1): solving (2cu + d)^2 = 4 f^2 gives (u - u*)^2 = -delta / (4c^2 (c-1))."""
    if c <= 1.0:
        return math.inf
    return math.sqrt(4.0 * c * k - d * d) / (2.0 * c * math.sqrt(c - 1.0))


def period(c: float) -> float:
    return 2.0 * math.pi / math.sqrt(c)


def height(c, d, k, u, u_ref):
    """g(u) - g(u_ref) = int_{u_ref}^{u} sqrt(1 - f'(s)^2) ds for each u, by
    HEIGHT_PANELS panels of 20-point Gauss-Legendre quadrature.  The
    integrand is analytic while [u_ref, u] stays inside the open feasible
    window, where this is accurate to rounding."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    span = u - u_ref
    edges = np.arange(HEIGHT_PANELS) / HEIGHT_PANELS
    unit = (edges[:, None] + (GAUSS_NODES[None, :] + 1.0) / (2.0 * HEIGHT_PANELS)).ravel()
    s = u_ref + span[:, None] * unit[None, :]
    integrand = np.sqrt(1.0 - slope(c, d, k, s) ** 2)
    weights = np.tile(GAUSS_WEIGHTS, HEIGHT_PANELS) / (2.0 * HEIGHT_PANELS)
    return span * (integrand @ weights)


def sphere(radius_r: float):
    """f(u) = R cos(u/R): positive curvature 1/R^2."""
    return lambda u: radius_r * np.cos(np.asarray(u, dtype=float) / radius_r)


def pseudosphere(lam: float):
    """f(u) = lam e^{u/lam}: constant curvature -1/lam^2."""
    return lambda u: lam * np.exp(np.asarray(u, dtype=float) / lam)


def quadratic(c: float, d: float, k: float):
    return lambda u: radius(c, d, k, u)


def map_exists(kind: str, coeffs=None, domain=None) -> bool:
    """Ground-truth verdict of the paper's theorem for a profile family on
    ``domain`` (lo, hi); with no domain, on a chart that excludes u*."""
    if kind in ("sphere", "pseudosphere"):
        return False
    if kind != "quadratic":
        raise ValueError("unknown profile kind %r" % kind)
    c, d, k = coeffs
    if not (c > 0.0 and k > 0.0 and d * d - 4.0 * c * k < 0.0):
        return False
    if domain is None:
        return True
    lo, hi = domain
    return not lo <= singular_u(c, d) <= hi
