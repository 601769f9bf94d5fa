"""Numerical certification of the projection and the existence test.

Three kinds of checks live here:

* residual checks on the constructed map (preserved lengths, straight
  meridian images, and the structural identities tying f, a and sqrt(c)),
* an independent fixed-step RK4 oracle for the turning-angle ODE
  a'' = -2 (f'/f) a', compared against the closed form,
* the existence classifier for an arbitrary profile: a length-preserving,
  meridian-straightening map exists iff f^2 is a quadratic in u with the
  right coefficient signs, decided by one least-squares fit of f^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateLine, DomainExceeded
from .profile import (
    DomainInterval,
    GeneralProfile,
    QuadraticProfile,
    _shortest_length,
    profile_jet,
    reference_interval,
)
from .projection import ProjectionParams, _default_t_window, b_slope, meridian_turning, plane_map, plane_map_derivatives

# Safety factors of isometry_tolerance over its error model.  Over 150 random
# profiles (c from 1e-3 to 1e3, k from 1e-8 to 1e12, d up to the discriminant
# edge, steps 1e-8 to 1e-3, random c0, t-window and branch) the residuals
# reached 1.0x the finite-difference model and 4x eps max(1, sqrt(c) scale).
FD_ISOMETRY_SAFETY = 16.0
ANALYTIC_ISOMETRY_SAFETY = 64.0
ANALYTIC_ISOMETRY_FLOOR = 1e-12
# verify's meridian-straightness bound at unit term scale, ~4500 eps; over
# 9,000 meridians (c from 1e-3 to 1e3, k from 1e-8 to 1e14, d up to the
# discriminant edge, 3 to 96 samples, random c0, t_base, t and branch) the
# deviations reached 1.02 eps times the term scale.
STRAIGHTNESS_UNIT_BOUND = 1e-12
# central-difference steps check_local_isometry accepts, in units of the phase
# b = sqrt(c) t for t and of min(L, h) for u; 0 selects the analytic Jacobian
FD_STEP_RANGE = (1e-8, 1e-3)
STRUCTURAL_BOUND = 1e-10  # bound of the structural identities (over L for those in 1/length)
ODE_ORACLE_BOUND = 1e-8  # and of the RK4 oracle, which have no error model
# The RK4 oracle's step counts: its work arrays peak at ~17 doubles per step,
# ~14 MB at the cap.  verify_report takes ODE_VERIFY_STEPS over its chart.
ODE_MAX_STEPS = 100_000
ODE_VERIFY_STEPS = 1_800
# A meridian image's chord below this many eps times the term scale is
# rounding: each endpoint rounds to a few eps of that scale, so the chord
# gives no direction to measure the deviations against.
CHORD_FLOOR_ULPS = 8.0
# (sqrt(5) - 1)/2: frac(s + i phi) is the additive (Kronecker) sequence
# verify_report draws its angles and abscissae from.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The classifier's bound on max|f^2 - fit| for an exact quadratic, in units
# of eps max f^2.  A sample of f good to about an ulp gives f^2 to ~2.5 eps;
# the least-squares residual maps that error through I - P (P the projector
# onto quadratics), whose max-row-sum norm is at most 3.2 for 4 to 1,200
# equispaced rows, and the solve and the evaluation of the fit add a few eps
# more: ~10 eps in all.  Over 20,000 exact quadratics (4 to 1,200 rows,
# c_x/k_x from 1e-12 to 1e4) the misfit reached 20 eps max f^2.
CLASSIFIER_ROUNDING_FLOOR = 64.0


@dataclass(frozen=True)
class ResidualReport:
    """Per-identity residual statistics over a sample set, and their bound."""

    identity_name: str
    max_abs_residual: float
    mean_abs_residual: float
    worst_point: object
    samples: int
    bound: float

    @property
    def passed(self) -> bool:
        """max_abs_residual < bound: a max at the bound fails, and so does NaN."""
        return self.max_abs_residual < self.bound


@dataclass(frozen=True)
class ExistenceVerdict:
    """Outcome of the existence classifier.

    ``gate`` names the check that decided: ``residual``, ``coefficients``
    or ``u_star_inside`` for the first one that rejected, ``admissible``
    when the map exists, which is all ``exists`` reads.  ``misfit`` is
    max|f^2 - fit|/|c_x|, the dimensionless distance of f^2 from its
    quadratic fit, which the residual gate bounds by the threshold.
    ``fitted`` holds the least-squares (c, d, k) when the misfit passed,
    whether or not the coefficients turned out admissible.
    """

    gate: str
    misfit: float
    fitted: Optional[Tuple[float, float, float]]
    curvature_range: Tuple[float, float]

    @property
    def exists(self) -> bool:
        return self.gate == "admissible"


def _summarize(name, residuals, point_at, bound):
    """Report over a residual array; ``point_at(i)`` names the sample at
    flat index i, so only the worst point is ever built."""
    residuals = np.asarray(residuals, dtype=float)
    worst = int(residuals.argmax())
    return ResidualReport(
        identity_name=name,
        max_abs_residual=float(residuals.flat[worst]),
        # ndarray.mean's own sum and division, without its Python layers
        mean_abs_residual=float(np.add.reduce(residuals, axis=None) / residuals.size),
        worst_point=point_at(worst),
        samples=residuals.size,
        bound=bound,
    )


def _term_scale(p: QuadraticProfile, us) -> float:
    """max|u| + 2|w0| over the samples us, the size of the two terms of Phi;
    |w0| = sqrt(k)/sqrt(c), as w0 = -i (sqrt(k)/sqrt(c)) e^{i theta0}."""
    return float(np.abs(us).max()) + 2.0 * (math.sqrt(p.k) / p.sqrt_c)


def isometry_tolerance(
    p: QuadraticProfile,
    params: ProjectionParams,
    u_span: DomainInterval,
    t_span=None,
    fd_step: float = 1e-5,
) -> float:
    """Bound on the residuals of :func:`check_local_isometry` over the same
    window: its error model times a safety factor.

    Phi = sigma (e^{-ib} (u + w0) - e^{-i b(t_base)} w0) is a difference of
    two terms of size at most |u| + |w0| and |w0|, so with
    scale = max|u| + 2|w0| >= max|Phi| over the stencil each evaluation
    rounds to a few eps * scale, and the rounded phase b(t) (off by
    eps |b|) turns u + w0 by as much again times |b|.  A central difference
    divides that by its step, h_t = fd_step/sqrt(c) in t and fd_step min(L, h) in
    u.  The truncation error in t is h_t^2 |d^3 Phi/dt^3| / 6 = fd_step^2 f_max / 6
    (d^3 Phi/dt^3 = (-i b')^3 dPhi/du (u + w0) and sqrt(c) |u + w0| = f); Phi
    is affine in u, so the u-difference has none.  Both rows take the larger
    difference's bound, the t-difference's where L = c = 1.  The analytic
    columns only round: |dPhi/du| to a few eps and |dPhi/dt| = sqrt(c) |u + w0|
    to a few eps sqrt(c) scale, kept above the 1e-12 floor.
    """
    h_t, h_u = fd_step / p.sqrt_c, fd_step * _shortest_length(p)
    scale = _term_scale(p, (u_span.lo - h_u, u_span.hi + h_u))
    eps = np.finfo(float).eps
    if fd_step == 0.0:
        return max(ANALYTIC_ISOMETRY_FLOOR, ANALYTIC_ISOMETRY_SAFETY * eps * max(1.0, p.sqrt_c * scale))
    t_lo, t_hi = _default_t_window(p) if t_span is None else t_span
    bp = b_slope(params, p)  # b(t) = b' t + c0
    b_max = max(abs(bp * (t_lo - h_t) + params.c0), abs(bp * (t_hi + h_t) + params.c0))
    f_max = max(p.radius(u_span.lo - h_u), p.radius(u_span.hi + h_u))
    roundoff = eps * scale * (1.0 + b_max)
    return FD_ISOMETRY_SAFETY * max(roundoff / h_u, roundoff / h_t + fd_step * fd_step * f_max / 6.0)


def check_local_isometry(
    p: QuadraticProfile,
    params: ProjectionParams,
    u_span: DomainInterval,
    t_span=None,
    nt: int = 50,
    nu: int = 50,
    fd_step: float = 1e-5,
):
    """Residuals | |dPhi/du| - 1 | and | |dPhi/dt| - f(u) | of the two preserved-length
    conditions on an nt x nu grid; t_span defaults to the emitters' [0, min(pi, T/2)].

    With fd_step > 0 the derivatives are central differences of plane_map, steps
    fd_step/sqrt(c) in t and fd_step min(L, h) in u (rows ``[fd]``); fd_step = 0
    reads plane_map_derivatives instead (rows ``[analytic]``).  Neither pass forms
    a grid it does not read.  The bound is isometry_tolerance's.
    Raises DomainExceeded when the u-stencil would touch u* or leave u* +- h.
    """
    if fd_step != 0.0 and not FD_STEP_RANGE[0] <= fd_step <= FD_STEP_RANGE[1]:
        raise ValueError("fd_step must be 0 (analytic) or within [%g, %g]" % FD_STEP_RANGE)
    h_t, h_u = fd_step / p.sqrt_c, fd_step * _shortest_length(p)
    lo_st, hi_st = u_span.lo - h_u, u_span.hi + h_u
    u_star = p.singular_u + 0.0  # + 0.0 folds -0.0 to 0.0 in the message
    if lo_st <= u_star <= hi_st:
        raise DomainExceeded("stencil [%g, %g] touches the zero-slope abscissa u*=%g" % (lo_st, hi_st, u_star))
    if lo_st < u_star - p.half_width or hi_st > u_star + p.half_width:
        raise DomainExceeded("stencil [%g, %g] leaves the arc-length-feasible window" % (lo_st, hi_st))

    ts = np.linspace(*(_default_t_window(p) if t_span is None else t_span), nt)
    us = np.linspace(u_span.lo, u_span.hi, nu)
    t, u = ts[:, None], us[None, :]
    if fd_step == 0.0:
        zt, zu = plane_map_derivatives(p, params, t, u)
        du_norm, dt_norm = np.broadcast_to(np.abs(zu), zt.shape), np.abs(zt)
    else:
        du_norm = np.abs(plane_map(p, params, t, u + h_u) - plane_map(p, params, t, u - h_u)) / (2.0 * h_u)
        dt_norm = np.abs(plane_map(p, params, t + h_t, u) - plane_map(p, params, t - h_t, u)) / (2.0 * h_t)
    f = p.radius(us)

    def point_at(i):
        return ts[i // nu], us[i % nu]

    mode = "analytic" if fd_step == 0.0 else "fd"
    bound = isometry_tolerance(p, params, u_span, t_span, fd_step)
    return (
        _summarize("|dPhi/du| - 1 [%s]" % mode, np.abs(du_norm - 1.0), point_at, bound),
        _summarize("|dPhi/dt| - f(u) [%s]" % mode, np.abs(dt_norm - f), point_at, bound),
    )


def straightness_tolerance(p: QuadraticProfile, u_samples) -> float:
    """Bound on the deviations of :func:`check_meridian_straightness` over
    meridian images sampled at u_samples, the one bound ``revproj verify``
    and the SVG graticule both hold them to: STRAIGHTNESS_UNIT_BOUND times
    max(1, scale), with scale = max|u| + 2|w0| the term scale.

    Along one meridian every sample shares the rounded rotation e^{-ib(t)},
    whose error turns the whole line and bends none of it.  Each sample
    then rounds to a few eps of |u| + |w0| (the arm u + w0 and its product
    with the rotation) and of |w0| (the anchor subtracted), and measuring
    it against the chord adds a few eps of the same size, so the deviations
    are a few eps * scale.  max|Phi| alone would under-count where Phi is a
    small difference of two large terms.
    """
    return STRAIGHTNESS_UNIT_BOUND * max(1.0, _term_scale(p, u_samples))


def check_meridian_straightness(p, params, t, u_samples) -> ResidualReport:
    """Max perpendicular distance of a sampled meridian image from the
    straight line through its first and last points, bounded by
    :func:`straightness_tolerance`.

    t is one angle or a 1-D array of angles; all their meridians are mapped
    in one kernel call, and the report is the most bent one's (the first
    of equals), field for field the report of a call at that angle alone.
    Its worst point is (t, u), with t as given when it is one angle.
    Raises DegenerateLine, naming the first such angle, when a chord is
    below CHORD_FLOOR_ULPS eps times the term scale max|u| + 2|w0|.
    """
    us = np.asarray(u_samples, dtype=float)
    if len(us) < 3:
        raise ValueError("straightness check needs at least 3 u-samples")
    ts = np.asarray(t, dtype=float).reshape(-1)
    z = plane_map(p, params, ts[:, None], us)
    chord = z[:, -1:] - z[:, :1]
    length = np.abs(chord)
    short = length[:, 0] < CHORD_FLOOR_ULPS * np.finfo(float).eps * _term_scale(p, us)
    if short.any():
        raise DegenerateLine("meridian image endpoints coincide at t=%g" % ts[short.argmax()])
    # perpendicular distances from the line through each meridian's ends
    deviations = np.abs(((z - z[:, :1]) * (np.conj(chord) / length)).imag)
    row = int(deviations.max(axis=1).argmax())
    t_row = ts[row] if np.ndim(t) else t
    bound = straightness_tolerance(p, us)
    return _summarize("meridian image collinearity", deviations[row], lambda i: (t_row, u_samples[i]), bound)


def check_structural_identities(p: QuadraticProfile, u_samples):
    """Reports, bounded by STRUCTURAL_BOUND (over L for the first two, which
    are in 1/length), on the four identities tying f and the turning angle:

        f'' = (a')^2 f
        2 f' a' + f a'' = 0          (a'' = -2 a' f'/f taken analytically from a')
        f' cos a - f a' sin a = 0
        f' sin a + f a' cos a = sqrt(c)
    """
    us = np.asarray(u_samples, dtype=float)
    f, fp, fpp = profile_jet(p, us)
    a, ap = meridian_turning(p, us)
    app = -2.0 * ap * (fp / f)  # a'' = -2 a' f'/f, analytically from a'
    cos_a, sin_a = np.cos(a), np.sin(a)
    per_length = STRUCTURAL_BOUND / p.length
    rows = {
        "f'' - (a')^2 f": (fpp - ap * ap * f, per_length),
        "2 f' a' + f a''": (2.0 * fp * ap + f * app, per_length),
        "f' cos a - f a' sin a": (fp * cos_a - f * ap * sin_a, STRUCTURAL_BOUND),
        "f' sin a + f a' cos a - sqrt(c)": (fp * sin_a + f * ap * cos_a - p.sqrt_c, STRUCTURAL_BOUND),
    }
    return [_summarize(name, np.abs(r), u_samples.__getitem__, bound) for name, (r, bound) in rows.items()]


def ode_oracle_a(p: QuadraticProfile, u0: float, u1: float, n_steps: int) -> ResidualReport:
    """Integrate a'' = -2 (f'/f) a' from closed-form initial conditions at u0
    to u1 with n_steps of classical fixed-step RK4, 1 <= n_steps <=
    ODE_MAX_STEPS, and report max |a_numeric - a_closed_form| over the
    n_steps + 1 nodes, bounded by ODE_ORACLE_BOUND.  Fixed stepping keeps
    the global error O(h^4), h = (u1 - u0)/n_steps, which the convergence
    tests rely on.  The count, not the step, is given, so the memory is the
    same on a chart of any width.

    The right-hand side is a' times q(u) = -2 f'(u)/f(u) = -((f^2)'/f)/f,
    which depends on u alone, so q is tabulated once at every node and
    midpoint u0 + (h/2) j, j = 0..2n.  a itself never enters a stage and a'
    enters every stage linearly, so each RK4 step is a pair of amplification
    factors, a'_{i+1} = m_i a'_i and a_{i+1} = a_i + n_i a'_i, and the whole
    grid is one cumulative product and one cumulative sum.  Only f, the
    derivative of f^2 and the initial conditions at u0 enter it, so it
    stays independent of the closed form it is compared against."""
    if not 1 <= n_steps <= ODE_MAX_STEPS:
        raise ValueError("n_steps must be within [1, %d], got %r" % (ODE_MAX_STEPS, n_steps))

    a, ap = meridian_turning(p, u0)
    h = (u1 - u0) / n_steps
    u = u0 + 0.5 * h * np.arange(2 * n_steps + 1)  # nodes at even j
    f = p.radius(u)
    q = -((2.0 * p.c * (u - p.singular_u)) / f) / f  # -2 f'/f, f' = (f^2)'/(2f) from f and (f^2)' alone
    q0, q_mid, q1 = q[:-1:2], q[1::2], q[2::2]
    # the stage values of a' over a'_i; the stage slopes of a' are q times them
    s2 = 1.0 + 0.5 * h * q0
    s3 = 1.0 + 0.5 * h * q_mid * s2
    s4 = 1.0 + h * q_mid * s3
    m = 1.0 + h * (q0 + 2.0 * q_mid * s2 + 2.0 * q_mid * s3 + q1 * s4) / 6.0
    n = h * (1.0 + 2.0 * s2 + 2.0 * s3 + s4) / 6.0
    ap_steps = ap * np.cumprod(np.concatenate(([1.0], m[:-1])))  # a' at nodes 0..n-1
    a_numeric = np.concatenate(([a], a + np.cumsum(ap_steps * n)))
    nodes = u[::2]
    a_exact, _ = meridian_turning(p, nodes)
    errors = np.abs(a_numeric - a_exact)
    return _summarize("a(u): RK4 vs closed form", errors, lambda i: float(nodes[i]), ODE_ORACLE_BOUND)


def _golden_draws(seed: int, n: int):
    """frac(s + i phi) for i = 1..n, s = frac(seed phi): n points of the
    golden-ratio additive sequence, equidistributed in [0, 1)."""
    return np.mod(seed * GOLDEN % 1.0 + GOLDEN * np.arange(1, n + 1), 1.0)


def verify_report(p: QuadraticProfile, params: ProjectionParams, grid, fd_step: float, seed):
    """The ten reports of ``revproj verify`` in print order, on the emitters' default
    chart [0, min(pi, T/2)] x reference_interval(p): isometry on the (nt, nu) grid by
    central differences of steps fd_step/sqrt(c) in t and fd_step min(L, h) in u, then
    analytically; the most bent of three meridian images; the structural identities at
    1,000 abscissae; the RK4 oracle in ODE_VERIFY_STEPS steps over the chart
    (h = 1e-3 L on the width-1.8 L chart of every c <= 1).  The angles and
    abscissae are 2 pi times and lo + W times the first 3 and the next 1,000
    golden-ratio draws frac(s + i phi), the integer seed picking s = frac(seed phi)."""
    lo, hi = FD_STEP_RANGE
    if not lo <= fd_step <= hi:  # 0, the analytic mode, would fill the [fd] rows
        raise ValueError("--fd-step must be within [%g, %g], got %r" % (lo, hi, fd_step))
    if not -(2**53) <= seed <= 2**53:  # where seed phi stops resolving seeds apart, and then overflows
        raise ValueError("--seed must be within [-2**53, 2**53], got %d" % seed)
    u_span = reference_interval(p)
    draws = _golden_draws(seed, 1003)
    reports = []
    for h in (fd_step, 0.0):
        reports += check_local_isometry(p, params, u_span, nt=grid[0], nu=grid[1], fd_step=h)
    u_line = np.linspace(u_span.lo, u_span.hi, 16)
    reports.append(check_meridian_straightness(p, params, 2.0 * math.pi * draws[:3], u_line))
    reports += check_structural_identities(p, u_span.lo + u_span.width * draws[3:])
    reports.append(ode_oracle_a(p, u_span.lo, u_span.hi, ODE_VERIFY_STEPS))
    return reports


# Built-in profiles exercising both non-existence regimes, as 200 equispaced
# rows each: positive curvature (unit sphere, f = cos u) and constant
# negative curvature (pseudosphere, f = e^u for u < 0).
BUILTIN_PROFILES = {
    "sphere": GeneralProfile.sample(math.cos, DomainInterval(0.2, 1.2)),
    "pseudosphere": GeneralProfile.sample(math.exp, DomainInterval(-2.0, -0.5)),
}


def existence_classifier(gp: GeneralProfile, threshold: float = 1e-4) -> ExistenceVerdict:
    """Decide whether a length-preserving, meridian-straightening plane map
    can exist for the profile: iff f^2 is a quadratic in u with c > 0, a
    negative discriminant and u* = -d/(2c) off the domain.

    f^2 at the profile's rows is least-squares fitted by
    c_x x^2 + d_x x + k_x in x = (u - lo)/W, W the domain width.  The first
    gate that rejects is the verdict's ``gate``:

    * ``residual``: max|f^2 - fit| < threshold |c_x| + the rounding floor
      CLASSIFIER_ROUNDING_FLOOR eps max f^2, so the threshold bounds the
      misfit max|f^2 - fit|/|c_x|;
    * ``coefficients``: c_x > 1e-9 max f^2 (c > 1e-9 max f^2/W^2) and
      d_x^2 < 4 c_x k_x (1 - 1e-9), margins that keep a cylinder (c at
      rounding level) and a cone (zero discriminant) out on noise;
    * ``u_star_inside``: u* must lie off [lo, hi].

    Under u -> lambda u, f -> lambda f, x stays and f^2, c_x, d_x and k_x
    all scale by lambda^2, so no gate moves.  f is divided by 2^e > max f,
    exactly, before it is squared, and the fitted (c, d, k) are multiplied
    back by 4^e; W is divided by 2^s > W the same way, so W^2 neither
    overflows nor underflows on any finite domain.  ValueError if max f^2
    or a fitted coefficient overflows.
    """
    # no misfit falls below a threshold <= 0, and every one passes NaN
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError("classifier threshold must be positive and finite, got %r" % threshold)
    lo, width = gp.domain.lo, gp.domain.width
    us, f_vals = gp.table
    e = math.frexp(np.max(f_vals))[1]  # max f < 2^e, so max f^2 < 4^e
    if e > 512:
        raise ValueError("f^2 overflows: max f = %g" % np.max(f_vals))
    f_sq = np.square(np.ldexp(f_vals, -e))  # f^2 / 4^e
    curvature_range = curvature_report(gp)

    x = (us - lo) / width
    fit = np.polyfit(x, f_sq, 2)
    c_x, d_x, k_x = (float(v) for v in fit)
    gap = float(np.max(np.abs(f_sq - np.polyval(fit, x))))
    misfit = gap / abs(c_x) if c_x else math.inf
    scale = float(np.max(f_sq))
    if gap >= threshold * abs(c_x) + CLASSIFIER_ROUNDING_FLOOR * np.finfo(float).eps * scale:
        return ExistenceVerdict("residual", misfit, None, curvature_range)

    t = -lo / width  # x at u = 0
    s = math.frexp(width)[1]  # W = unit 2^s, unit in [1/2, 1)
    unit = math.ldexp(width, -s)
    with np.errstate(over="ignore"):
        fitted = np.ldexp(
            (c_x / unit**2, (2.0 * c_x * t + d_x) / unit, (c_x * t + d_x) * t + k_x), (2 * e - 2 * s, 2 * e - s, 2 * e)
        )
    if not np.all(np.isfinite(fitted)):
        raise ValueError("the fitted coefficients of f^2 overflow")
    if not (c_x > 1e-9 * scale and d_x * d_x < 4.0 * c_x * k_x * (1.0 - 1e-9)):
        gate = "coefficients"
    elif 0.0 <= -d_x / (2.0 * c_x) <= 1.0:
        gate = "u_star_inside"
    else:
        gate = "admissible"
    return ExistenceVerdict(gate, misfit, tuple(map(float, fitted)), curvature_range)


def curvature_report(gp: GeneralProfile):
    """(K_min, K_max) of the profile over its interior rows u[2:-2].

    K = w'^2/(4 w^2) - w''/(2 w), w = f^2, with w, w' and w'' read off the
    least-squares quadratic of w over the 5-row window centred on each row:
    a Savitzky-Golay derivative (A. Savitzky and M. J. E. Golay, Anal.
    Chem. 36 (1964) 1627-1639) that holds on uneven rows.  Each window's
    abscissae are measured from its centre row in units of its half-width
    before the 3x3 normal equations are solved, so they stay in [-1, 1] at
    any scale and K lambda^2 does not move under u -> lambda u,
    f -> lambda f; f is first divided by 2^e > max f and u by
    2^s > max|u|, exactly, so that w * w and half * half stay finite, and K
    is multiplied back by 4^-s.  It is the classifier's own quadratic model,
    so an admissible table gives its K to rounding; on rows of a smooth
    non-quadratic f it misses the window's O(h^2) terms."""
    u, f = gp.table
    windows = np.lib.stride_tricks.sliding_window_view
    f = np.ldexp(f, -math.frexp(np.max(f))[1])
    s = math.frexp(np.max(np.abs(u)))[1]
    u = np.ldexp(u, -s)
    half = 0.5 * (u[4:] - u[:-4])
    x = (windows(u, 5) - u[2:-2, None]) / half[:, None]
    basis = x[..., None] ** np.arange(3)  # 1, x, x^2 per row of each window
    normal = np.einsum("mri,mrj->mij", basis, basis)
    moments = np.einsum("mri,mr->mi", basis, windows(f * f, 5))
    w, wx, wxx = np.linalg.solve(normal, moments[..., None])[..., 0].T
    w1, w2 = wx / half, 2.0 * wxx / (half * half)
    ks = np.ldexp(w1 * w1 / (4.0 * w * w) - w2 / (2.0 * w), -2 * s)
    return float(np.min(ks)), float(np.max(ks))
