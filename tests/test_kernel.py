"""Property tests of the complex array kernels ``plane_map`` and
``plane_map_derivatives``: against the real-form frame (g1, h1, G2, H2)
they replaced, each vectorized check against a per-point loop over the
scalar wrappers, and the closed-form ``invert`` against ``project``."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revproj import (
    Branch,
    SurfacePoint,
    check_local_isometry,
    check_meridian_straightness,
    check_structural_identities,
    invert,
    jacobian,
    make_projection_params,
    make_quadratic_profile,
    meridian_turning,
    plane_map,
    plane_map_derivatives,
    profile_jet,
    project,
    reference_interval,
    t_period,
)
from revproj.verifier import isometry_tolerance, straightness_tolerance

EPS = np.finfo(float).eps
ULPS = 8
angles = st.floats(-math.pi, math.pi)
UNIT = make_quadratic_profile(1, 0, 1)


def term_scale(p, us):
    """max(1, |u| + 2|w0|): Phi is the difference of two terms of size at
    most |u| + |w0| and |w0|, so both forms round to a few eps of this even
    where |Phi| itself is small."""
    return max(1.0, max(abs(u) for u in us) + 2.0 * math.sqrt(p.k) / p.sqrt_c)


@st.composite
def maps(draw, cs=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 5.0)), ks=st.floats(0.05, 5.0)):
    """An admissible profile with c and k drawn from ``cs`` and ``ks`` (by
    default c below or above 1), either branch, principal or mirrored
    theta0, and random c0 and t_base."""
    c = draw(cs)
    k = draw(ks)
    d = draw(st.floats(-0.95, 0.95)) * 2.0 * math.sqrt(c * k)
    p = make_quadratic_profile(c, d, k)
    params = make_projection_params(
        p,
        c0=draw(angles),
        branch=draw(st.sampled_from(Branch)),
        t_base=draw(angles),
        mirror_theta0=draw(st.booleans()),
    )
    return p, params


def real_form(p, params, t, u):
    """Phi, dPhi/dt and dPhi/du at one point from the real-form frame:
    (g1, h1) = s (cos b, -sin b) and the anchored antiderivatives
    G2 = s A [sin(theta0 - b) - sin(theta0 - b0)],
    H2 = -s A [cos(theta0 - b) - cos(theta0 - b0)], A = sqrt(k)/sqrt(c),
    with s = +1 on CASE_A and -1 on CASE_B."""
    s = 1.0 if params.branch is Branch.CASE_A else -1.0
    bp = -s * p.sqrt_c
    b = bp * t + params.c0
    b0 = bp * params.t_base + params.c0
    amp = math.sqrt(p.k) / p.sqrt_c
    g1, h1 = s * math.cos(b), -s * math.sin(b)
    G2 = s * amp * (math.sin(params.theta0 - b) - math.sin(params.theta0 - b0))
    H2 = -s * amp * (math.cos(params.theta0 - b) - math.cos(params.theta0 - b0))
    dx_dt = -u * s * bp * math.sin(b) + math.sqrt(p.k) * math.cos(params.theta0 - b)
    dy_dt = -u * s * bp * math.cos(b) + math.sqrt(p.k) * math.sin(params.theta0 - b)
    return complex(u * g1 + G2, u * h1 + H2), complex(dx_dt, dy_dt), complex(g1, h1)


@settings(max_examples=150, deadline=None)
@given(maps(), st.lists(angles, min_size=1, max_size=6), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
def test_kernel_matches_real_form(case, ts, us):
    p, params = case
    t, u = np.array(ts)[:, None], np.array(us)[None, :]
    z, (zt, zu) = plane_map(p, params, t, u), plane_map_derivatives(p, params, t, u)
    ref = np.array([[real_form(p, params, a, b) for b in us] for a in ts])
    scale = term_scale(p, us)
    f = profile_jet(p, u)[0]
    assert np.all(np.abs(z - ref[..., 0]) <= ULPS * EPS * scale)
    assert np.all(np.abs(zt - ref[..., 1]) <= ULPS * EPS * scale * max(1.0, p.sqrt_c))
    assert np.all(np.abs(zu - ref[..., 2]) <= ULPS * EPS)
    assert np.all(np.abs(np.abs(zt) - f) <= ULPS * EPS * max(1.0, float(f.max())))


def test_spot_value_is_exact():
    # the README example and acceptance criterion 6
    p = make_quadratic_profile(1, 0, 1)
    q = project(p, make_projection_params(p), SurfacePoint(math.pi / 2, 1.0))
    assert (q.x, q.y) == (1.0, 2.0)


def isometry_loop(p, params, u_span, t_span, nt, nu, h):
    """check_local_isometry as a per-point loop over project / jacobian,
    with steps h/sqrt(c) in t and h min(L, h_w) in u, h_w the half width."""
    res_u, res_t, points = [], [], []
    h_t, h_u = h / p.sqrt_c, h * min(p.length, p.half_width)
    for t in np.linspace(t_span[0], t_span[1], nt):
        for u in np.linspace(u_span.lo, u_span.hi, nu):
            if h == 0.0:
                jac = jacobian(p, params, SurfacePoint(t, u))
                du, dt = math.hypot(jac[0, 1], jac[1, 1]), math.hypot(jac[0, 0], jac[1, 0])
            else:
                up, um = project(p, params, SurfacePoint(t, u + h_u)), project(p, params, SurfacePoint(t, u - h_u))
                tp, tm = project(p, params, SurfacePoint(t + h_t, u)), project(p, params, SurfacePoint(t - h_t, u))
                du = math.hypot(up.x - um.x, up.y - um.y) / (2.0 * h_u)
                dt = math.hypot(tp.x - tm.x, tp.y - tm.y) / (2.0 * h_t)
            res_u.append(abs(du - 1.0))
            res_t.append(abs(dt - profile_jet(p, u)[0]))
            points.append((t, u))
    return (res_u, points), (res_t, points)


def assert_report_matches(rep, residuals, points, tol):
    assert rep.samples == len(points)
    assert type(rep.worst_point) is type(points[0])
    if isinstance(points[0], tuple):
        assert [type(v) for v in rep.worst_point] == [type(v) for v in points[0]]
    assert abs(rep.max_abs_residual - max(residuals)) <= tol
    assert abs(rep.mean_abs_residual - float(np.mean(residuals))) <= tol


@settings(max_examples=40, deadline=None)
@given(maps(), st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-5, 1e-3]))
def test_isometry_check_matches_loop(case, t0, h):
    p, params = case
    span = reference_interval(p)
    t_span = (t0, t0 + 2.0)
    reports = check_local_isometry(p, params, span, t_span=t_span, nt=7, nu=6, fd_step=h)
    scale = term_scale(p, [span.lo, span.hi])
    tol = ULPS * EPS * max(1.0, p.sqrt_c * scale) if h == 0.0 else ULPS * EPS * scale / h
    for rep, (residuals, points) in zip(reports, isometry_loop(p, params, span, t_span, 7, 6, h)):
        assert_report_matches(rep, residuals, points, tol)
        # the report carries verify's error-model bound, and stays inside it
        assert rep.bound == isometry_tolerance(p, params, span, t_span, fd_step=h)
        assert rep.passed


@settings(max_examples=40, deadline=None)
@given(maps(), angles)
def test_straightness_check_matches_loop(case, t):
    p, params = case
    span = reference_interval(p)
    u_samples = np.linspace(span.lo, span.hi, 9)
    pts = [project(p, params, SurfacePoint(t, u)) for u in u_samples]
    chord = math.hypot(pts[-1].x - pts[0].x, pts[-1].y - pts[0].y)
    ex, ey = (pts[-1].x - pts[0].x) / chord, (pts[-1].y - pts[0].y) / chord
    deviations = [abs((q.x - pts[0].x) * ey - (q.y - pts[0].y) * ex) for q in pts]
    scale = max(1.0, max(math.hypot(q.x, q.y) for q in pts))
    rep = check_meridian_straightness(p, params, t, u_samples)
    assert_report_matches(rep, deviations, [(t, u) for u in u_samples], ULPS * EPS * scale)
    assert rep.bound == straightness_tolerance(p, u_samples)


@settings(max_examples=40, deadline=None)
@given(maps(), st.lists(angles, min_size=1, max_size=8))
def test_straightness_over_angles_is_the_most_bent_meridian(case, ts):
    # one call over all the angles reports what a loop of one-angle calls
    # keeping the largest max, the first of equals, would
    p, params = case
    span = reference_interval(p)
    u_samples = np.linspace(span.lo, span.hi, 16)
    singles = [check_meridian_straightness(p, params, t, u_samples) for t in ts]
    most_bent = max(singles, key=lambda rep: rep.max_abs_residual)
    assert check_meridian_straightness(p, params, np.array(ts), u_samples) == most_bent


@settings(max_examples=100, deadline=None)
@given(maps(), st.lists(angles, min_size=1, max_size=4), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
@example((UNIT, make_projection_params(UNIT)), [0.0], [0.203132])  # math.atan and np.arctan round a(u) apart
def test_scalar_calls_are_elements_of_the_array_call(case, ts, us):
    # One code path: a float argument gives the array call's element, as a
    # float or a complex.  numpy rounds its ufuncs (arctan2, exp, the complex
    # absolute) and real arithmetic alike for a scalar and an array, so f, f', f'', a,
    # a' and dPhi/du match to the bit.  Phi and dPhi/dt end in a product of
    # two complex numbers, which numpy's array loop can fuse (an fma, on
    # x86_64 with FMA3) and its scalar arithmetic does not, so they match to
    # a few eps of their terms.
    p, params = case
    t, u = np.array(ts)[:, None], np.array(us)
    jet, turning = profile_jet(p, u), meridian_turning(p, u)
    z, (zt, zu) = plane_map(p, params, t, u), plane_map_derivatives(p, params, t, u)
    scale = term_scale(p, us)
    for j, uj in enumerate(us):
        for got, arr in zip(profile_jet(p, uj) + meridian_turning(p, uj), jet + turning):
            assert isinstance(got, float) and got == arr[j]
        for i, ti in enumerate(ts):
            z1, (zt1, zu1) = plane_map(p, params, ti, uj), plane_map_derivatives(p, params, ti, uj)
            assert all(isinstance(v, complex) for v in (z1, zt1, zu1))
            assert zu1 == zu[i, 0]
            assert abs(z1 - z[i, j]) <= ULPS * EPS * scale
            assert abs(zt1 - zt[i, j]) <= ULPS * EPS * scale * max(1.0, p.sqrt_c)


@settings(max_examples=40, deadline=None)
@given(maps(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_structural_check_matches_loop(case, fractions):
    p, _ = case
    span = reference_interval(p)
    us = [span.lo + s * span.width for s in fractions]
    rows = [[], [], [], []]
    scales = [0.0, 0.0, 0.0, 0.0]
    for u in us:
        f, fp, fpp = profile_jet(p, u)
        a, ap = meridian_turning(p, u)
        app = -2.0 * p.c * p.length * fp / (f * f * f)
        terms = [
            (fpp, -ap * ap * f),
            (2.0 * fp * ap, f * app),
            (fp * math.cos(a), -f * ap * math.sin(a)),
            (fp * math.sin(a), f * ap * math.cos(a), -p.sqrt_c),
        ]
        for i, row in enumerate(terms):
            rows[i].append(abs(sum(row)))
            scales[i] = max(scales[i], sum(abs(v) for v in row))
    for rep, residuals, scale in zip(check_structural_identities(p, us), rows, scales):
        assert_report_matches(rep, residuals, us, ULPS * EPS * max(1.0, scale))


def log_floats(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    maps(cs=log_floats(-2.0, 2.0), ks=log_floats(-3.0, 3.0)),
    st.floats(0.0, 1.0),
    st.integers(-3, 3),
    st.sampled_from([-1.0, 1.0]),
    log_floats(-2.0, 1.0),
    st.floats(-0.45, 0.45),
    log_floats(-2.0, 1.0),
)
def test_invert_recovers_point(case, t_frac, sheet, side, offset, seed_dt, seed_offset):
    p, params = case
    period = t_period(p)
    t = (t_frac + sheet) * period
    u = p.singular_u + side * offset * math.sqrt(p.k / p.c)
    q = project(p, params, SurfacePoint(t, u))
    # a seed on the same side of u* and within half a period of t
    got = invert(p, params, q, SurfacePoint(t + seed_dt * period, p.singular_u + side * seed_offset))

    # Phi rounds to a few eps of its terms, |u| + 2|w0|, and the rounded
    # phase b = b' t + c0 turns them by eps |b| more
    b = p.sqrt_c * abs(t) + abs(params.c0)
    scale = (1.0 + abs(u) + 2.0 * math.sqrt(p.k) / p.sqrt_c) * (1.0 + b)
    back = project(p, params, got)
    assert abs(complex(back.x - q.x, back.y - q.y)) <= ULPS * EPS * scale
    # |det J| = sqrt(c) |u - u*| and the larger column norm is at most
    # 1 + f, so (t, u) moves by at most that error over sqrt(c) |u - u*| / (1 + f)
    f = profile_jet(p, u)[0]
    tol = ULPS * EPS * scale * (1.0 + f) / (p.sqrt_c * abs(u - p.singular_u))
    assert abs(got.t - t) <= tol
    assert abs(got.u - u) <= tol
