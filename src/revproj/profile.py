"""Profile curves of surfaces of revolution with quadratic squared radius.

A surface of revolution r(t, u) = (f(u) cos t, f(u) sin t, g(u)) whose
generating curve (f, g) is parametrized by arc length carries the metric
du^2 + f(u)^2 dt^2.  This module implements the family

    f(u)^2 = c u^2 + d u + k        (c > 0, k > 0, d^2 - 4ck < 0)

with all derivatives in closed form, the height function g recovered by
quadrature from (f')^2 + (g')^2 = 1, the Gaussian curvature K = -f''/f,
and the 3D embedding.  It also carries ``GeneralProfile``, an arbitrary
sampled or callable radius function used by the existence classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EmptyDomain,
    InfeasibleArcLength,
    RejectedProfile,
    SingularitySplit,
)

# Endpoints produced by clipping at the slope-feasibility boundary are pulled
# inward by this amount so sqrt(1 - f'^2) never sees a negative argument from
# rounding just past the boundary.
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

    def contains(self, u: float) -> bool:
        return self.lo <= u <= self.hi


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


@dataclass(frozen=True)
class GeneralProfile:
    """An arbitrary radius function u -> f(u) > 0 on a bounded domain.

    ``evaluator`` may be any scalar callable; use :meth:`from_table` for
    tabulated data (monotone cubic interpolation, so two numerical
    derivatives stay free of spurious oscillation).
    """

    evaluator: Callable[[float], float]
    domain: DomainInterval

    @classmethod
    def from_table(cls, u_values, f_values) -> "GeneralProfile":
        u = np.asarray(u_values, dtype=float)
        f = np.asarray(f_values, dtype=float)
        if u.ndim != 1 or u.shape != f.shape or u.size < 4:
            raise ValueError("table needs matching 1-D u and f arrays with >= 4 rows")
        if not np.all(np.diff(u) > 0):
            raise ValueError("table u-values must be strictly increasing")
        if not np.all(f > 0):
            raise ValueError("table f-values must be positive")
        from scipy.interpolate import PchipInterpolator

        interp = PchipInterpolator(u, f)
        return cls(evaluator=lambda x: float(interp(x)), domain=DomainInterval(float(u[0]), float(u[-1])))


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
    """Evaluate (f, f', f'') at u, a float or a numpy array.

    f = sqrt(c u^2 + d u + k), f' = (2cu + d)/(2f), f'' = (4ck - d^2)/(4 f^3).
    """
    w = (p.c * u + p.d) * u + p.k
    f = math.sqrt(w) if isinstance(w, float) else np.sqrt(w)
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
    inward by BOUNDARY_INSET.
    """
    us = p.singular_u
    if requested.lo < us < requested.hi:
        raise SingularitySplit(lower=(requested.lo, us), upper=(us, requested.hi))
    lo, hi = requested.lo, requested.hi
    if us == lo:
        lo = us + BOUNDARY_INSET
    if us == hi:
        hi = us - BOUNDARY_INSET
    feas_lo, feas_hi = slope_feasible_span(p)
    if math.isfinite(feas_lo):
        if hi <= feas_lo or lo >= feas_hi:
            raise EmptyDomain(
                "requested [%g, %g] lies outside the arc-length-feasible window [%g, %g]"
                % (requested.lo, requested.hi, feas_lo, feas_hi)
            )
        if lo < feas_lo:
            lo = feas_lo + BOUNDARY_INSET
        if hi > feas_hi:
            hi = feas_hi - BOUNDARY_INSET
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


def _arc_integrand(p: QuadraticProfile, s: float) -> float:
    _, fp, _ = profile_jet(p, s)
    radicand = 1.0 - fp * fp
    if radicand < -1e-12:
        raise InfeasibleArcLength(
            "f'(%g)^2 = %g exceeds 1; the profile is not arc-length feasible there" % (s, fp * fp)
        )
    return math.sqrt(radicand) if radicand > 0.0 else 0.0


def eval_g(p: QuadraticProfile, u: float, u_ref: float) -> float:
    """Height g(u) = integral of sqrt(1 - f'(s)^2) from u_ref to u.

    Normalized so g(u_ref) = 0.  Adaptive quadrature, absolute error
    below 1e-10.  Raises InfeasibleArcLength if the slope leaves the
    feasible band anywhere on the path (for this family f'^2 attains its
    maximum at the endpoints, so both are checked up front).
    """
    if u == u_ref:
        return 0.0
    from scipy.integrate import quad

    _arc_integrand(p, u)
    _arc_integrand(p, u_ref)
    value, _estimate = quad(
        lambda s: _arc_integrand(p, s), u_ref, u, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    return value


def gaussian_curvature(p: QuadraticProfile, u: float) -> float:
    """K = -f''/f = delta / (4 f^4); strictly negative on this family.
    u may be a float or a numpy array."""
    w = (p.c * u + p.d) * u + p.k
    return p.delta / (4.0 * w * w)


def embed(p: QuadraticProfile, pt: SurfacePoint, u_ref: float):
    """3D embedding (f cos t, f sin t, g) with g anchored at u_ref."""
    f, _, _ = profile_jet(p, pt.u)
    return f * math.cos(pt.t), f * math.sin(pt.t), eval_g(p, pt.u, u_ref)
