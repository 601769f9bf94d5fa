"""Profile curves of surfaces of revolution with quadratic squared radius.

A surface of revolution r(t, u) = (f(u) cos t, f(u) sin t, g(u)) whose
generating curve (f, g) is parametrized by arc length carries the metric
du^2 + f(u)^2 dt^2.  This module implements the family

    f(u)^2 = c u^2 + d u + k        (c > 0, k > 0, d^2 - 4ck < 0)

with all derivatives in closed form, the height function g from
(f')^2 + (g')^2 = 1 in closed form (Carlson's symmetric elliptic
integrals), the Gaussian curvature K = -f''/f, and the 3D embedding.  It
also carries ``GeneralProfile``, an arbitrary radius function known by its
rows (tabulated, or sampled from a function), used by the existence
classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import (
    EmptyDomain,
    InfeasibleArcLength,
    RejectedProfile,
    SingularitySplit,
)

# Clipped endpoints are pulled inward by this many lengths L = sqrt(-delta)/(2c),
# which scale with the profile, so sqrt(1 - f'^2) never sees a negative argument
# from rounding just past the boundary.
BOUNDARY_INSET = 1e-9


@dataclass(frozen=True)
class DomainInterval:
    """A u-interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError("interval requires lo < hi, got [%g, %g]" % (self.lo, self.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SurfacePoint:
    """Coordinates (t, u) on the surface: t the rotation angle, u the
    profile parameter."""

    t: float
    u: float


@dataclass(frozen=True)
class QuadraticProfile:
    """The admissible profile f^2 = c u^2 + d u + k with cached constants.

    sqrt_c, delta = d^2 - 4ck and sqrt_neg_delta = sqrt(-delta) appear in
    every downstream closed form, so they are computed once at construction.
    Build instances through :func:`make_quadratic_profile`.
    """

    c: float
    d: float
    k: float
    sqrt_c: float
    delta: float
    sqrt_neg_delta: float

    @property
    def singular_u(self) -> float:
        """Abscissa u* = -d/(2c) where f' vanishes; excluded from charts."""
        return -self.d / (2.0 * self.c)

    def radius_sq(self, u):
        """f(u)^2 = (c u + d) u + k at u, a float or a numpy array."""
        return (self.c * u + self.d) * u + self.k

    def radius(self, u):
        """f(u), without forming f'' as profile_jet does."""
        return np.sqrt(self.radius_sq(u))

    @property
    def radius_sq_min(self) -> float:
        """m = f(u*)^2 = -delta/(4c), so that f^2 = c (u - u*)^2 + m."""
        return -self.delta / (4.0 * self.c)

    @property
    def w0_modulus(self) -> float:
        """|w0| = sqrt(k)/sqrt(c), the length of the complex offset w0 in
        the map's affine form e^{-ib(t)} (u + w0)."""
        return math.sqrt(self.k) / self.sqrt_c


@dataclass(frozen=True)
class GeneralProfile:
    """A radius function u -> f(u) > 0 known by its rows (u, f), the
    ``table``, validated and copied at construction.  They are its only
    data: ``domain`` runs from the first row to the last, and nothing reads
    a profile between its rows.  Build one with :meth:`from_table` or
    :meth:`sample`.

    Nothing here reads ``evaluator``: it stays while benchmark/tracing.py
    rebuilds each table with ``dataclasses.replace(gp, evaluator=...)``.
    """

    table: Tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)
    evaluator: object = None
    domain: DomainInterval = field(init=False)

    def __post_init__(self):
        u_values, f_values = self.table
        # copies, so the kept rows cannot change under the caller
        u = np.array(u_values, dtype=float)
        f = np.array(f_values, dtype=float)
        # five rows make one curvature window
        if u.ndim != 1 or u.shape != f.shape or u.size < 5:
            raise ValueError("table needs matching 1-D u and f arrays with >= 5 rows")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(f))):
            raise ValueError("table u- and f-values must be finite")
        if not np.all(np.diff(u) > 0):
            raise ValueError("table u-values must be strictly increasing")
        if not np.all(f > 0):
            raise ValueError("table f-values must be positive")
        u.flags.writeable = f.flags.writeable = False  # validated once, so kept as validated
        object.__setattr__(self, "table", (u, f))
        object.__setattr__(self, "domain", DomainInterval(float(u[0]), float(u[-1])))

    @classmethod
    def from_table(cls, u_values, f_values) -> "GeneralProfile":
        return cls((u_values, f_values))

    @classmethod
    def sample(cls, fn, domain: DomainInterval, n: int = 200) -> "GeneralProfile":
        """The rows of fn, called once at each of n equispaced points of domain."""
        u = np.linspace(domain.lo, domain.hi, n)
        return cls.from_table(u, [fn(x) for x in u])


def make_quadratic_profile(c: float, d: float, k: float) -> QuadraticProfile:
    """Validate (c, d, k) and return the profile with cached constants.

    Raises RejectedProfile unless c > 0, k > 0 and d^2 - 4ck < 0; the last
    condition keeps f real and positive for every u and makes f'' strictly
    positive, which the projection construction requires.
    """
    for name, value in (("c", c), ("d", d), ("k", k)):
        if not math.isfinite(value):
            raise RejectedProfile("coefficient %s must be finite, got %r" % (name, value))
    if k <= 0:
        raise RejectedProfile("k must be positive so the radius f(0) = sqrt(k) exists (got k=%g)" % k)
    if c <= 0:
        raise RejectedProfile("c must be positive so the profile opens upward (got c=%g)" % c)
    delta = d * d - 4.0 * c * k
    if delta >= 0:
        raise RejectedProfile(
            "discriminant d^2 - 4ck = %g must be negative: it keeps f > 0 "
            "everywhere and f'' strictly positive" % delta
        )
    return QuadraticProfile(
        c=float(c),
        d=float(d),
        k=float(k),
        sqrt_c=math.sqrt(c),
        delta=delta,
        sqrt_neg_delta=math.sqrt(-delta),
    )


def profile_jet(p: QuadraticProfile, u: float):
    """Evaluate (f, f', f'') at u, a float (giving numpy scalars) or an array.

    f = sqrt(c u^2 + d u + k), f' = (2cu + d)/(2f), f'' = (4ck - d^2)/(4 f^3).
    """
    w = p.radius_sq(u)
    f = np.sqrt(w)
    f_prime = (2.0 * p.c * u + p.d) / (2.0 * f)
    f_second = -p.delta / (4.0 * f * w)
    return f, f_prime, f_second


def slope_feasible_span(p: QuadraticProfile):
    """The open u-range on which f'(u)^2 <= 1, i.e. where (f, g) can be an
    arc-length curve.  Unbounded for c <= 1; for c > 1 it is the symmetric
    window u* +- sqrt(-delta) / (2 c sqrt(c - 1)) around the zero-slope
    abscissa."""
    if p.c <= 1.0:
        return (-math.inf, math.inf)
    half = p.sqrt_neg_delta / (2.0 * p.c * math.sqrt(p.c - 1.0))
    us = p.singular_u
    return (us - half, us + half)


def admissible_interval(p: QuadraticProfile, requested: DomainInterval) -> DomainInterval:
    """Largest sub-interval of ``requested`` that excludes the zero-slope
    abscissa u* and satisfies f'(u)^2 <= 1 throughout.

    Raises SingularitySplit with both candidate sides when u* is interior to
    ``requested``; raises EmptyDomain when nothing of ``requested`` is
    feasible.  Endpoints clipped at the feasibility boundary are pulled
    inward by BOUNDARY_INSET times the length L = sqrt(-delta)/(2c).
    """
    us = p.singular_u
    if requested.lo < us < requested.hi:
        raise SingularitySplit(lower=(requested.lo, us), upper=(us, requested.hi))
    lo, hi = requested.lo, requested.hi
    inset = BOUNDARY_INSET * (p.sqrt_neg_delta / (2.0 * p.c))
    if us == lo:
        lo = us + inset
    if us == hi:
        hi = us - inset
    feas_lo, feas_hi = slope_feasible_span(p)
    if math.isfinite(feas_lo):
        if hi <= feas_lo or lo >= feas_hi:
            raise EmptyDomain(
                "requested [%g, %g] lies outside the arc-length-feasible window [%g, %g]"
                % (requested.lo, requested.hi, feas_lo, feas_hi)
            )
        if lo < feas_lo:
            lo = feas_lo + inset
        if hi > feas_hi:
            hi = feas_hi - inset
    if not lo < hi:
        raise EmptyDomain("requested [%g, %g] leaves no admissible width" % (requested.lo, requested.hi))
    return DomainInterval(lo, hi)


def reference_interval(p: QuadraticProfile, span: float = 1.8, margin: float = 0.2) -> DomainInterval:
    """A representative admissible interval on the upper side of u*, used as
    the default chart for checks and exports.  For c <= 1 this is
    [u* + margin, u* + margin + span]; for c > 1 the feasibility window is
    bounded and the middle of its upper half is used instead."""
    us = p.singular_u
    if p.c <= 1.0:
        return admissible_interval(p, DomainInterval(us + margin, us + margin + span))
    _, feas_hi = slope_feasible_span(p)
    half = feas_hi - us
    return admissible_interval(p, DomainInterval(us + 0.10 * half, us + 0.85 * half))


# Carlson's stopping rule for R_D, 4^-n (r/4)^(-1/6) spread < A_n with
# r = 2^-53 and spread >= max|A_0 - argument|, holds after at most 14
# duplications for any spread a double can hold (R_F's rule is weaker).  A
# fixed count keeps every element's rounding independent of the others in
# its array, so an array call equals the scalar calls bit for bit.
_DUPLICATIONS = 16
# The height formulas take ends x with |x| < 2^340 and beta x^2 < 2^672,
# where none of their products overflows: the largest are x (beta x^2)^2 and
# Carlson's (beta x^2)^(3/2).  Farther ends are scaled into that box by a
# power of two (_box_exponents).  Past E = 511, where 4^-E would no longer
# be a normal number, the height is NaN.
_BOX_X, _BOX_D = 340, 672
_MAX_SCALE = 511


def _carlson_rf_rd(w, y, z):
    """R_F(w, y, z) and R_D(y, z, w) for arrays w > 0, y >= 0, z > 0, by
    Carlson's duplication (DLMF 19.36(i); B. C. Carlson, arXiv:math/9409227).
    The two integrals take the same three arguments, so one loop serves
    both; each ends with its fifth-order series in the deviations from the
    mean."""
    args = np.stack((w, y, z))  # row 0: R_D's third argument
    a_f, a_d = (w + y + z) / 3.0, (y + z + 3.0 * w) / 5.0
    tail, scale = 0.0, 1.0
    for _ in range(_DUPLICATIONS):
        r = np.sqrt(args)
        lam = r[0] * (r[1] + r[2]) + r[1] * r[2]
        tail = tail + scale / (r[0] * (args[0] + lam))
        args = (args + lam) * 0.25
        scale *= 0.25
    mean_f, mean_d = args.sum(axis=0) / 3.0, (args[1] + args[2] + 3.0 * args[0]) / 5.0

    dx, dy = (a_f - w) * scale / mean_f, (a_f - y) * scale / mean_f
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(mean_f)

    dx, dy = (a_d - y) * scale / mean_d, (a_d - z) * scale / mean_d
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz, 3.0 * (xy - zz) * zz, xy * zz * dz
    series = 1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
    rd = scale * series / (mean_d * np.sqrt(mean_d)) + 3.0 * tail
    return rf, rd


def _box_exponents(beta, v):
    """The least E >= 0 per element of v with |v| 2^-E < 2^340 and
    beta (v 2^-E)^2 < 2^672; E = 0 wherever v is already inside."""
    room = min(_BOX_X, (_BOX_D - math.frexp(beta)[1]) // 2)
    return np.maximum(np.frexp(v)[1] - room, 0)


def _sqrt_product(a, b):
    """sqrt(a b) for a, b >= 0, each factor first brought near 1 by an even
    power of two, so the product neither overflows nor underflows; that
    scaling is exact, so the result is the plain sqrt(a * b)."""
    i, j = np.frexp(a)[1] // 2, np.frexp(b)[1] // 2
    return np.ldexp(np.sqrt(np.ldexp(a, -2 * i) * np.ldexp(b, -2 * j)), i + j)


def _scaled(v, e):
    """v 2^-e, NaN where e exceeds _MAX_SCALE."""
    return np.where(e <= _MAX_SCALE, np.ldexp(v, -e), np.nan)


def _height_from_axis(alpha, beta, x):
    """G(x) = integral_0^x sqrt((1 + alpha s^2)/(1 + beta s^2)) ds
            = x R_F(1, 1 + alpha x^2, 1 + beta x^2)
              + (alpha x^3/3) R_D(1 + alpha x^2, 1 + beta x^2, 1).
    R_F and R_D are homogeneous of degree -1/2 and -3/2, so with x = X 2^E
    and e = 4^-E, G(x) is the same sum in X with e in place of 1, and it is
    evaluated so, E from ``_box_exponents``: every operation is scaled by a
    power of two, so it rounds alike.  NaN where E exceeds _MAX_SCALE."""
    e = _box_exponents(beta, x)
    one = np.ldexp(1.0, -2 * e)
    x = _scaled(x, e)
    xx = x * x
    rf, rd = _carlson_rf_rd(one, np.maximum(one + alpha * xx, 0.0), one + beta * xx)
    return x * rf + alpha * x * xx / 3.0 * rd


def _height_between(p: QuadraticProfile, u, u_ref: float):
    """eval_g on a 1-D array u with no element equal to u_ref.  Every end is
    scaled by its own 2^-E as in ``_height_from_axis`` and every pair by the
    E of its larger end, so each product and quotient below is the unscaled
    formula's times a power of two: the same bits where E = 0."""
    m = p.radius_sq_min
    alpha, beta = (1.0 - p.c) * p.c / m, p.c / m
    x, y = u - p.singular_u, u_ref - p.singular_u
    ends = np.append(x, y)
    e = _box_exponents(beta, ends)
    one = np.ldexp(1.0, -2 * e)
    ends_sq = np.ldexp(ends, -e) ** 2
    num, den = one + alpha * ends_sq, one + beta * ends_sq  # over 4^E
    # 1 - f'^2 at every end of a path, at any E: 4^-E only underflows once
    # alpha X^2 and beta X^2 dwarf it
    slack = num / den
    worst = int(np.argmin(slack))
    if slack[worst] < -1e-12:
        raise InfeasibleArcLength(
            "f'(%g)^2 = %g exceeds 1; the profile is not arc-length feasible there"
            % (np.append(u, u_ref)[worst], 1.0 - slack[worst])
        )
    root = _sqrt_product(np.maximum(num, 0.0), den)  # R(x) over 4^E
    pair = np.maximum(e[:-1], e[-1])
    xs, ys = _scaled(x, pair), np.ldexp(y, -pair)
    same_side = xs * ys > 0.0  # false past _MAX_SCALE, where G is NaN
    # turn / 8^E; it is 0 only with both ends on the feasibility edge (within
    # the slack above), where the integrand vanishes: then z = 0 and g = 0
    turn = xs * np.ldexp(root[-1], 2 * (e[-1] - pair)) + ys * np.ldexp(root[:-1], 2 * (e[:-1] - pair))
    ahead = np.ldexp(u - u_ref, -2 * pair) * (xs + ys)
    # z 2^j, with j = 0 where E = 0 and z 2^j ~ 1 elsewhere, so that it
    # neither underflows nor, times alpha X Y 4^E = alpha x y, overflows
    j = np.where(pair > 0, np.frexp(turn)[1] - np.frexp(ahead)[1], 0)
    z_j = np.divide(np.ldexp(ahead, j), turn, out=np.zeros_like(turn), where=same_side & (turn != 0.0))
    heights = _height_from_axis(alpha, beta, np.append(np.where(same_side, np.ldexp(z_j, -j), x), y))
    tail = np.ldexp(alpha * xs * ys * z_j, 2 * pair - j)  # alpha x y z, 0 off the same side
    return heights[:-1] + np.where(same_side, tail, -heights[-1])


def eval_g(p: QuadraticProfile, u, u_ref: float):
    """Height g(u) = integral of sqrt(1 - f'(s)^2) from u_ref to u, at u a
    float or a numpy array; g(u_ref) = 0.

    In closed form: with x = u - u*, m = f(u*)^2, alpha = (1 - c) c/m and
    beta = c/m the integrand is sqrt((1 + alpha x^2)/(1 + beta x^2)), whose
    integral G from u* is a sum of Carlson's R_F and R_D
    (``_height_from_axis``).  G is odd, so for u and u_ref on opposite sides
    of u* the height G(x) - G(x_ref) adds two terms of one sign.  On one
    side that difference would cancel, so the addition theorem is used
    instead: G(x) - G(y) = G(z) + alpha x y z with
    z = (u - u_ref)(x + y)/(x R(y) + y R(x)),
    R(s) = sqrt((1 + alpha s^2)(1 + beta s^2)), which keeps the error at a
    few ulps of |u - u_ref| rather than of |x|.  For c = 1 it reduces to
    asinh(sqrt(beta) x)/sqrt(beta).

    Far from u* the ends are scaled by powers of two (exactly, so no bit
    moves where nothing would overflow unscaled), and g is finite wherever
    f^2 is finite at both ends, for c >= 1e-90 and f(u*)^2 >= 1e-200.
    Beyond that it may be NaN.

    Raises InfeasibleArcLength if the slope leaves the feasible band
    anywhere on a path (for this family f'^2 attains its maximum at the
    endpoints, so u and u_ref are checked).
    """
    u_arr = np.asarray(u, dtype=float)
    flat = u_arr.ravel()
    moved = flat != u_ref
    g = np.zeros_like(flat)
    if moved.any():
        g[moved] = _height_between(p, flat[moved], float(u_ref))
    return float(g[0]) if u_arr.ndim == 0 else g.reshape(u_arr.shape)


def gaussian_curvature(p: QuadraticProfile, u: float) -> float:
    """K = -f''/f = delta / (4 f^4); strictly negative on this family.
    u may be a float or a numpy array."""
    w = p.radius_sq(u)
    return p.delta / (4.0 * w * w)


def embed(p: QuadraticProfile, pt: SurfacePoint, u_ref: float):
    """3D embedding (f cos t, f sin t, g) with g anchored at u_ref."""
    f = p.radius(pt.u)
    return f * math.cos(pt.t), f * math.sin(pt.t), eval_g(p, pt.u, u_ref)
