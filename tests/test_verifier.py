import contextlib
import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revproj import (
    BUILTIN_PROFILES,
    Branch,
    DegenerateLine,
    DomainExceeded,
    DomainInterval,
    ExistenceVerdict,
    GeneralProfile,
    ResidualReport,
    check_local_isometry,
    check_meridian_straightness,
    check_structural_identities,
    curvature_report,
    existence_classifier,
    make_projection_params,
    make_quadratic_profile,
    meridian_turning,
    ode_oracle_a,
    profile_jet,
    reference_interval,
    verify_report,
)
import revproj.verifier as verifier_mod
from revproj.cli import cli_dispatch
from revproj.verifier import FD_STEP_RANGE, ODE_MAX_STEPS, _summarize, isometry_tolerance, straightness_tolerance
from helpers import gaussian_curvature, random_profiles


class TestLocalIsometry:
    @pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 1, 1)])
    def test_fd_residuals_below_1e8(self, coeffs):
        p = make_quadratic_profile(*coeffs)
        params = make_projection_params(p)
        rep_u, rep_t = check_local_isometry(p, params, DomainInterval(0.2, 2.0), fd_step=1e-5)
        assert rep_u.max_abs_residual < 1e-8
        assert rep_t.max_abs_residual < 1e-8
        assert rep_u.samples == 2500

    def test_analytic_mode_is_exact(self, fig1, fig1_params):
        rep_u, rep_t = check_local_isometry(fig1, fig1_params, DomainInterval(0.2, 2.0), fd_step=0.0)
        assert rep_u.max_abs_residual < 1e-12
        assert rep_t.max_abs_residual < 1e-12

    def test_fd_error_scales_quadratically(self, fig1, fig1_params):
        span = DomainInterval(0.2, 2.0)
        _, coarse = check_local_isometry(fig1, fig1_params, span, nt=10, nu=10, fd_step=1e-3)
        _, fine = check_local_isometry(fig1, fig1_params, span, nt=10, nu=10, fd_step=5e-4)
        ratio = coarse.max_abs_residual / fine.max_abs_residual
        assert 3.0 < ratio < 5.0

    def test_stencil_leaving_domain_raises(self):
        p = make_quadratic_profile(2, 0, 1)
        edge = 1.0 / math.sqrt(2.0)
        with pytest.raises(DomainExceeded):
            check_local_isometry(p, make_projection_params(p), DomainInterval(0.3, edge), fd_step=1e-5)

    def test_stencil_touching_singularity_raises(self, fig1, fig1_params):
        # fig1's u* is -0.0, printed as 0
        with pytest.raises(DomainExceeded, match=r"u\*=0$"):
            check_local_isometry(fig1, fig1_params, DomainInterval(5e-6, 1.0), fd_step=1e-5)

    def test_fd_step_range_enforced(self, fig1, fig1_params):
        with pytest.raises(ValueError):
            check_local_isometry(fig1, fig1_params, DomainInterval(0.2, 2.0), fd_step=1e-2)

    @pytest.mark.parametrize("fd_step, grids", [(1e-5, 5.0), (0.0, 3.5)])
    def test_peak_memory_at_64x64(self, fd_step, grids):
        # a complex 64x64 grid is 64 KB.  Each pass holds only the grids it
        # reads: a kernel that also formed the unread derivative (or Phi)
        # peaked at 5.6 grids in fd mode and 4.1 in analytic mode, and the
        # glibc heap then trimmed and faulted back that top on every op
        p = make_quadratic_profile(2.5, -1.0, 0.6)
        params = make_projection_params(p, branch=Branch.CASE_B, mirror_theta0=True)
        span = reference_interval(p)
        check_local_isometry(p, params, span, nt=64, nu=64, fd_step=fd_step)
        tracemalloc.start()
        try:
            check_local_isometry(p, params, span, nt=64, nu=64, fd_step=fd_step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grids * 64 * 64 * 16


class TestResidualReport:
    def test_max_equal_to_its_bound_fails(self):
        rep = ResidualReport("row", 1e-10, 0.0, 0.0, 1, 1e-10)
        assert not rep.passed
        assert dataclasses.replace(rep, max_abs_residual=math.nextafter(1e-10, 0.0)).passed
        assert not dataclasses.replace(rep, max_abs_residual=math.nan).passed


class TestIsometryTolerance:
    def test_default_bounds_on_fig1(self, fig1, fig1_params):
        # no looser than the fixed 1e-8 / 1e-12 bounds they replace
        span = reference_interval(fig1)
        assert isometry_tolerance(fig1, fig1_params, span) <= 1e-8
        assert isometry_tolerance(fig1, fig1_params, span, fd_step=0.0) == 1e-12

    def test_bounds_grow_with_the_map_scale(self):
        # k = 1e6 puts |Phi| near 2e3: central-difference roundoff grows like
        # eps |Phi| / h, and the residuals stay inside the grown bound
        p = make_quadratic_profile(1, 0, 1e6)
        params = make_projection_params(p)
        span = reference_interval(p)
        for h in (1e-5, 0.0):
            tol = isometry_tolerance(p, params, span, fd_step=h)
            assert tol > (1e-8 if h else 1e-12)
            for rep in check_local_isometry(p, params, span, nt=64, nu=64, fd_step=h):
                assert rep.max_abs_residual < tol


class TestMeridianStraightness:
    def test_vertical_meridian(self, fig1, fig1_params):
        rep = check_meridian_straightness(fig1, fig1_params, math.pi / 2, np.linspace(0.2, 2.0, 10))
        assert rep.max_abs_residual < 1e-12

    def test_random_profiles_and_angles(self):
        rng = np.random.default_rng(44)
        for p in random_profiles(17, 10):
            params = make_projection_params(p, c0=0.15)
            span = reference_interval(p)
            t = rng.uniform(0, 2 * math.pi)
            u_samples = np.linspace(span.lo, span.hi, 25)
            rep = check_meridian_straightness(p, params, t, u_samples)
            assert rep.max_abs_residual < 1e-12
            assert rep.bound == straightness_tolerance(p, u_samples)

    def test_needs_three_samples(self, fig1, fig1_params):
        with pytest.raises(ValueError):
            check_meridian_straightness(fig1, fig1_params, 0.5, [0.2, 2.0])

    def test_coincident_endpoints_degenerate(self, fig1, fig1_params):
        with pytest.raises(DegenerateLine):
            check_meridian_straightness(fig1, fig1_params, 0.5, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("lam", [1.0, 1e-10, 1e-16])
    def test_chord_floor_scales_with_the_profile(self, lam):
        # 1,0,lam^2 on lam [0.2, 2] is the image of 1,0,1 on [0.2, 2] under
        # u -> lam u, f -> lam f: its chord 1.8 lam is no more degenerate
        p = make_quadratic_profile(1.0, 0.0, lam * lam)
        rep = check_meridian_straightness(p, make_projection_params(p), 0.5, lam * np.linspace(0.2, 2.0, 16))
        assert rep.passed

    def test_degenerate_names_first_short_meridian(self, fig1, fig1_params, monkeypatch):
        real_map = verifier_mod.plane_map

        def collapsed(p, params, t, u):  # every meridian past t = 1 maps to 0
            return np.where(t > 1.0, 0j, real_map(p, params, t, u))

        monkeypatch.setattr(verifier_mod, "plane_map", collapsed)
        ts = np.array([0.5, 1.5, 2.5])
        with pytest.raises(DegenerateLine, match="at t=1.5$"):
            check_meridian_straightness(fig1, fig1_params, ts, np.linspace(0.2, 2.0, 10))


LAYOUTS = {
    "contiguous": lambda x: x,
    "reversed": lambda x: x[::-1],
    "strided": lambda x: np.repeat(x, 3)[::3],
    "broadcast rows": lambda x: np.broadcast_to(x, (3, x.size)),
    "broadcast column": lambda x: np.broadcast_to(x[:, None], (x.size, 2)),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5000), st.integers(0, 2**32 - 1), st.sampled_from(sorted(LAYOUTS)))
def test_summary_mean_is_ndarray_mean_to_the_bit(size, seed, layout):
    residuals = LAYOUTS[layout](np.random.default_rng(seed).exponential(size=size) * 1e-16)
    rep = _summarize("r", residuals, lambda i: i, 1.0)
    assert rep.mean_abs_residual.hex() == float(residuals.mean()).hex()
    assert (rep.worst_point, rep.max_abs_residual, rep.samples) == (
        int(np.argmax(residuals)), float(residuals.max()), residuals.size)


class TestStructuralIdentities:
    def test_exact_arithmetic_point(self):
        # at u = 0 for (1,1,1): f''=3/4 equals (a')^2 f = 3/4, and the
        # sqrt(c) combination is exactly 1/4 + 3/4
        p = make_quadratic_profile(1, 1, 1)
        reports = {r.identity_name: r for r in check_structural_identities(p, [0.0])}
        assert reports["f'' - (a')^2 f"].max_abs_residual < 1e-15
        assert reports["f' sin a + f a' cos a - sqrt(c)"].max_abs_residual < 1e-15

    def test_residuals_below_1e10_on_random_samples(self, fig1):
        rng = np.random.default_rng(5)
        for p in [fig1, make_quadratic_profile(1, 1, 1)]:
            us = rng.uniform(0.1, 3.0, size=1000)
            for rep in check_structural_identities(p, us):
                assert rep.max_abs_residual < 1e-10
                assert rep.samples == 1000
                assert rep.mean_abs_residual <= rep.max_abs_residual


class TestOdeOracle:
    # each call passes ceil(W/step) steps, the count the step once gave
    def test_error_below_1e8_at_step_1e3(self, fig1):
        rep = ode_oracle_a(fig1, 0.5, 2.0, 1500)
        assert rep.max_abs_residual < 1e-8

    def test_shifted_profile(self):
        p = make_quadratic_profile(1, 1, 1)
        rep = ode_oracle_a(p, 0.0, 1.5, 1500)
        assert rep.max_abs_residual < 1e-8

    def test_zero_length_interval(self, fig1):
        # one step of length 0: both nodes are u0
        rep = ode_oracle_a(fig1, 1.0, 1.0, 1)
        assert rep.max_abs_residual == 0.0
        assert rep.samples == 2

    def test_fourth_order_convergence(self, fig1):
        coarse = ode_oracle_a(fig1, 0.5, 2.0, 150).max_abs_residual
        fine = ode_oracle_a(fig1, 0.5, 2.0, 300).max_abs_residual
        assert 12.0 <= coarse / fine <= 20.0

    def test_step_bound_enforced(self, fig1):
        for n_steps in (0, -1, ODE_MAX_STEPS + 1):
            with pytest.raises(ValueError):
                ode_oracle_a(fig1, 0.5, 2.0, n_steps)
        assert ode_oracle_a(fig1, 0.5, 2.0, ODE_MAX_STEPS).passed

    def test_verify_memory_does_not_grow_with_the_chart(self):
        # verify takes a fixed step count, so a chart ~2e4 times wider than
        # 1,0,1's (3,0,1e10: width ~3e4) costs it no more memory
        def peak(c, d, k):
            p = make_quadratic_profile(c, d, k)
            tracemalloc.start()
            try:
                reports = verify_report(p, make_projection_params(p), (50, 50), 1e-5, 0)
                return tracemalloc.get_traced_memory()[1], reports
            finally:
                tracemalloc.stop()

        base, _ = peak(1, 0, 1)
        wide, reports = peak(3, 0, 1e10)
        assert reference_interval(make_quadratic_profile(3, 0, 1e10)).width > 1e4
        assert all(rep.passed for rep in reports)
        assert wide <= 2 * base

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(0.1, 4.0),
        k=st.floats(0.1, 4.0),
        skew=st.floats(-0.95, 0.95),
        side=st.sampled_from([-1.0, 1.0]),
        gap=st.floats(0.05, 2.0),
        backwards=st.booleans(),
        n_steps=st.one_of(st.integers(1, 50), st.integers(1500, 2000)),
        step=st.floats(1e-4, 1e-2),
        short=st.floats(0.0, 0.9),
    )
    def test_matches_per_call_rhs_loop(self, c, k, skew, side, gap, backwards, n_steps, step, short):
        # windows on either side of u*, run either way, spanning 1 to 50 steps
        # or the ~1,800 that verify takes, where the cumulative product's
        # rounding has had the most steps to accumulate
        p = make_quadratic_profile(c, skew * 2.0 * math.sqrt(c * k), k)
        near = p.singular_u + side * gap
        far = near + side * step * (n_steps - short)
        u0, u1 = (far, near) if backwards else (near, far)
        rep = ode_oracle_a(p, u0, u1, math.ceil(abs(u1 - u0) / step))
        ref_max, ref_mean, ref_samples = _rk4_per_call_reference(p, u0, u1, step)
        assert rep.samples == ref_samples == math.ceil(abs(u1 - u0) / step) + 1
        assert 2 <= rep.samples <= 2002
        assert abs(rep.max_abs_residual - ref_max) < 1e-13
        assert abs(rep.mean_abs_residual - ref_mean) < 1e-13
        assert type(rep.worst_point) is float
        assert min(u0, u1) - 1e-12 <= rep.worst_point <= max(u0, u1) + 1e-12


def _rk4_per_call_reference(p, u0, u1, step):
    """(max error, mean error, samples) of classical RK4 with one profile_jet
    call per stage.  Each step starts at u0 + i h: a position accumulated by
    u += h drifts by up to i eps |u|, which over ~1,500 steps of 1e-2 moved
    the max error by ~1e-13 off RK4 in exact arithmetic."""

    def rhs(u, a, ap):
        f, fp, _ = profile_jet(p, u)
        return ap, -2.0 * fp / f * ap

    a, ap = meridian_turning(p, u0)
    errors = [0.0]
    n_steps = math.ceil(abs(u1 - u0) / step)
    h = (u1 - u0) / n_steps
    for i in range(n_steps):
        u = u0 + i * h
        k1a, k1p = rhs(u, a, ap)
        k2a, k2p = rhs(u + 0.5 * h, a + 0.5 * h * k1a, ap + 0.5 * h * k1p)
        k3a, k3p = rhs(u + 0.5 * h, a + 0.5 * h * k2a, ap + 0.5 * h * k2p)
        k4a, k4p = rhs(u + h, a + h * k3a, ap + h * k3p)
        a += h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        ap += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        errors.append(abs(a - meridian_turning(p, u0 + (i + 1) * h)[0]))
    return max(errors), sum(errors) / len(errors), len(errors)


def _quadratic_radius(c, d, k):
    p = make_quadratic_profile(c, d, k)
    return lambda u: profile_jet(p, u)[0]


# ((f at lambda = 1, lo, hi), gate): the lambda-image of f on [lo, hi] is
# lambda f(u/lambda) on [lambda lo, lambda hi]; for f^2 = c u^2 + d u + k
# that is the profile (c, lambda d, lambda^2 k)
HOMOTHETY_CASES = [
    ((math.cos, 0.2, 1.2), "residual"),
    ((math.exp, -2.0, -0.5), "residual"),
    ((math.exp, -1.0, -0.5), "residual"),
    ((math.exp, -3.0, -1.0), "residual"),
    ((math.exp, -0.5, -0.1), "residual"),
    ((_quadratic_radius(1.0, 0.0, 1.0), 0.2, 2.0), "admissible"),
    ((_quadratic_radius(0.3, -0.5, 2.0), -4.0, 0.5), "admissible"),
    ((_quadratic_radius(3.0, 1.0, 2.0), -0.1, 0.3), "admissible"),
    ((_quadratic_radius(1.0, -2.0, 2.0), 0.0, 2.0), "u_star_inside"),
    ((lambda u: 2.0 + 0.5 * u, 0.0, 1.0), "coefficients"),
    ((lambda u: 1.5, 0.0, 1.0), "coefficients"),
]


class TestExistenceClassifier:
    def test_sphere_profile_rejected(self):
        verdict = existence_classifier(BUILTIN_PROFILES["sphere"])
        assert not verdict.exists
        assert verdict.fitted is None
        # the 200 rows' 5-row estimate of K = 1 (see test_sphere_is_unit_positive)
        assert verdict.curvature_range == pytest.approx((0.999481, 0.999959), abs=1e-6)

    def test_pseudosphere_profile_rejected(self):
        verdict = existence_classifier(BUILTIN_PROFILES["pseudosphere"])
        assert not verdict.exists
        # the 200 rows' 5-row estimate of K = -1: the fit's O(h^2) truncation at
        # h = W/199, h^2 (17/60 w' w'''/w^2 - 31/168 w''''/w) = 1.58 h^2 = 9.0e-5
        assert verdict.curvature_range == pytest.approx((-0.99991, -0.99991), abs=1e-6)
        assert verdict.curvature_range == pytest.approx((-1.0, -1.0), abs=9.0e-5)

    def test_quadratic_radius_accepted_and_fitted(self):
        gp = GeneralProfile.sample(lambda u: math.sqrt(u * u + 1.0), DomainInterval(0.2, 2.0))
        verdict = existence_classifier(gp)
        assert verdict.exists
        assert verdict.fitted == pytest.approx((1.0, 0.0, 1.0), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-150.0, 150.0))
    def test_table_follows_the_homothety_at_any_scale(self, log_lam):
        # u -> lam u, f -> lam f keeps f^2 = u^2 + 1 quadratic with c = 1:
        # the table stays admissible, d and k scale by lam and lam^2, K by
        # lam^-2, with no square of f or of w leaving the doubles
        lam = 10.0**log_lam
        u = np.linspace(0.2, 2.0, 50)
        base = existence_classifier(GeneralProfile.from_table(u, np.sqrt(u * u + 1.0)))
        verdict = existence_classifier(GeneralProfile.from_table(lam * u, lam * np.sqrt(u * u + 1.0)))
        assert verdict.gate == "admissible"
        c, d, k = verdict.fitted
        assert c == pytest.approx(1.0, rel=1e-9) and abs(d) < 1e-9 * lam and k == pytest.approx(lam * lam, rel=1e-9)
        scaled = [v * lam * lam for v in verdict.curvature_range]
        assert scaled == pytest.approx(base.curvature_range, rel=1e-8)

    def test_flat_cone_rejected_by_discriminant(self):
        # f linear in u: f^2 is a perfect-square quadratic, discriminant 0
        gp = GeneralProfile.sample(lambda u: 2.0 + 0.5 * u, DomainInterval(0.0, 1.0))
        verdict = existence_classifier(gp)
        assert not verdict.exists
        assert verdict.gate == "coefficients"
        assert verdict.fitted is not None

    def test_cylinder_rejected_by_vanishing_c(self):
        gp = GeneralProfile.sample(lambda u: 1.5, DomainInterval(0.0, 1.0))
        verdict = existence_classifier(gp)
        assert not verdict.exists
        assert verdict.gate == "coefficients"

    def test_interior_zero_slope_rejected(self):
        # f^2 = (u-1)^2 + 1 is admissible as a quadratic but its slope
        # vanishes inside the domain
        gp = GeneralProfile.sample(lambda u: math.sqrt((u - 1.0) ** 2 + 1.0), DomainInterval(0.0, 2.0))
        verdict = existence_classifier(gp)
        assert not verdict.exists
        assert verdict.gate == "u_star_inside"
        assert verdict.fitted == pytest.approx((1.0, -2.0, 2.0), abs=1e-6)

    def test_threshold_bounds_the_misfit(self):
        # the sphere's misfit sits far above the rounding floor, so the
        # threshold alone moves the residual gate across it
        misfit = existence_classifier(BUILTIN_PROFILES["sphere"]).misfit
        assert existence_classifier(BUILTIN_PROFILES["sphere"], threshold=0.99 * misfit).gate == "residual"
        # past the residual gate, c < 0 rejects
        assert existence_classifier(BUILTIN_PROFILES["sphere"], threshold=1.01 * misfit).gate == "coefficients"

    def test_round_trip_recovers_coefficients(self):
        for p in random_profiles(23, 20):
            span = reference_interval(p)
            gp = GeneralProfile.sample(lambda u, p=p: profile_jet(p, u)[0], span)
            verdict = existence_classifier(gp)
            assert verdict.exists
            c, d, k = verdict.fitted
            assert abs(c - p.c) <= 1e-6 * abs(p.c)
            assert abs(d - p.d) <= 1e-6 * max(1.0, abs(p.d))
            assert abs(k - p.k) <= 1e-6 * abs(p.k)

    def test_verdict_invariant_under_resampling(self):
        for fn, span in ((math.cos, BUILTIN_PROFILES["sphere"].domain),
                         (math.exp, BUILTIN_PROFILES["pseudosphere"].domain),
                         (lambda u: math.sqrt(u * u + 1.0), DomainInterval(0.2, 2.0))):
            v1 = existence_classifier(GeneralProfile.sample(fn, span, n=150))
            v2 = existence_classifier(GeneralProfile.sample(fn, span, n=300))
            assert v1.exists == v2.exists

    def test_tabulated_input(self):
        u = np.linspace(0.2, 2.0, 1500)
        gp = GeneralProfile.from_table(u, np.sqrt(u * u + 1.0))
        verdict = existence_classifier(gp)
        assert verdict.exists
        assert verdict.fitted == pytest.approx((1.0, 0.0, 1.0), abs=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-2.0, 3.0))
    def test_verdict_invariant_under_homothety(self, log_lam):
        # u -> lam u, f -> lam f rescales the surface; (exists, gate) must not move
        lam = 10.0**log_lam
        for (f1, lo, hi), gate in HOMOTHETY_CASES:
            gp = GeneralProfile.sample(lambda u, f1=f1: lam * f1(u / lam), DomainInterval(lam * lo, lam * hi))
            verdict = existence_classifier(gp)
            assert (verdict.exists, verdict.gate) == (gate == "admissible", gate), (f1, lo, hi, lam)

    def test_table_is_read_at_its_rows_only(self):
        # benchmark/tracing.py swaps a table's evaluator for a wrapper by
        # dataclasses.replace, so a table's evaluator may be a callable; it
        # must never be called
        def refuse(u):
            raise AssertionError("table profile evaluated between its rows, at u=%r" % u)

        admissible, sphere = np.linspace(0.2, 4.0, 20), np.linspace(0.2, 1.2, 41)
        for gp in (GeneralProfile.from_table(admissible, np.sqrt(admissible * admissible + 1.0)),
                   GeneralProfile.from_table(sphere, np.cos(sphere))):
            guarded = dataclasses.replace(gp, evaluator=refuse)
            assert existence_classifier(guarded) == existence_classifier(gp)
            assert curvature_report(guarded) == curvature_report(gp)

    def test_verdict_fields(self):
        # exists is read from gate, not stored beside it
        assert [f.name for f in dataclasses.fields(ExistenceVerdict)] == [
            "gate", "misfit", "fitted", "curvature_range"]
        for gate in ("residual", "coefficients", "u_star_inside", "admissible"):
            verdict = ExistenceVerdict(gate, 0.0, None, (-1.0, -1.0))
            assert verdict.exists == (gate == "admissible")

    def test_sample_count_validated(self):
        # fewer rows than one 5-row curvature window
        with pytest.raises(ValueError):
            GeneralProfile.sample(math.cos, DomainInterval(0.2, 1.2), 4)


class TestCurvatureReport:
    def test_quadratic_profile_range(self, fig1):
        ks = gaussian_curvature(fig1, np.linspace(0.1, 2.0, 100))
        k_min, k_max = float(np.min(ks)), float(np.max(ks))
        assert k_min == pytest.approx(-1.0 / 1.01**2, abs=1e-12)
        assert k_max == pytest.approx(-0.04, abs=1e-12)
        assert k_max < 0.0

    def test_sphere_is_unit_positive(self):
        # K = 1 to the 5-row fit's O(h^2) truncation at h = W/199,
        # h^2 (17/60 w' w'''/w^2 - 31/168 w''''/w) with w = f^2: at most
        # 20.6 h^2 = 5.2e-4 on these rows
        k_min, k_max = curvature_report(BUILTIN_PROFILES["sphere"])
        assert (k_min, k_max) == pytest.approx((0.999481, 0.999959), abs=1e-6)
        assert k_min == pytest.approx(1.0, abs=5.2e-4)
        assert k_max == pytest.approx(1.0, abs=5.2e-4)
        assert not k_max < 0.0

    @pytest.mark.parametrize("lam", [1e-2, 0.3, 1.0, 50.0, 1e3])
    def test_scaled_sphere_curvature(self, lam):
        # f = lam cos(u/lam) is the sphere of radius lam: K lam^2 is the unit
        # sphere's row estimate at every scale
        gp = GeneralProfile.sample(lambda u: lam * math.cos(u / lam), DomainInterval(0.2 * lam, 1.2 * lam))
        k_min, k_max = curvature_report(gp)
        base_min, base_max = curvature_report(BUILTIN_PROFILES["sphere"])
        assert abs(k_min * lam * lam - base_min) < 1e-8
        assert abs(k_max * lam * lam - base_max) < 1e-8

    @pytest.mark.parametrize("f, lo, hi, k_range", [
        (np.cos, 0.2, 1.2, (0.989546, 0.998954)),  # unit sphere, K = 1
        (np.exp, -2.0, -0.5, (-0.997763, -0.997763)),  # pseudosphere, K = -1
    ])
    def test_table_rows_of_non_quadratic_profiles(self, f, lo, hi, k_range):
        # 41 rows: each 5-row quadratic of f^2 misses its O(h^2) terms
        u = np.linspace(lo, hi, 41)
        gp = GeneralProfile.from_table(u, f(u))
        k_min, k_max = curvature_report(gp)
        assert (k_min, k_max) == pytest.approx(k_range, abs=1e-5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-3.0, 3.0),
        st.floats(-2.0, 2.0),
        st.floats(-5.0, 5.0),
        st.floats(-3.0, 3.0),
        st.lists(st.floats(0.1, 0.5), min_size=4, max_size=20),
        st.floats(-2.0, 3.0),
    )
    def test_table_rows_of_admissible_quadratic(self, log_c, log_len, u_star, start, gaps, log_lam):
        # f^2 = c (u - u*)^2 + m, m = c L^2, on sorted uneven rows; u* and
        # the rows are drawn in units of L, and K = -c m / f^4.  The two
        # terms of K cancel by ~(u - u*)^2/L^2, so rows stay within 13 L of
        # u*; over 5,000 such tables K was within 3.4e-11 relative
        c, length = 10.0**log_c, 10.0**log_len
        u_star, m = length * u_star, c * length * length
        u = u_star + length * (start + np.concatenate(([0.0], np.cumsum(gaps))))
        f_sq = c * (u - u_star) ** 2 + m
        truth = -c * m / f_sq[2:-2] ** 2
        f = np.sqrt(f_sq)
        k_min, k_max = curvature_report(GeneralProfile.from_table(u, f))
        assert k_max < 0.0
        assert abs(k_min / truth.min() - 1.0) < 1e-9 and abs(k_max / truth.max() - 1.0) < 1e-9
        # u -> lam u, f -> lam f: K lam^2 does not move
        lam = 10.0**log_lam
        scaled_min, scaled_max = curvature_report(GeneralProfile.from_table(lam * u, lam * f))
        assert abs(scaled_min * lam * lam / k_min - 1.0) < 1e-9
        assert abs(scaled_max * lam * lam / k_max - 1.0) < 1e-9

    def test_table_beyond_the_square_root_of_the_largest_double(self):
        # u -> 2^520 u, f -> 2^520 f: half * half would be ~2^1037, and K
        # 2^1040 keeps every bit, though K itself is subnormal
        u = np.linspace(0.2, 4.0, 20)
        f = np.sqrt(u * u + 1.0)
        with np.errstate(over="raise", invalid="raise"):
            scaled = curvature_report(GeneralProfile.from_table(np.ldexp(u, 520), np.ldexp(f, 520)))
        assert scaled[1] < 0.0
        assert scaled == tuple(np.ldexp(curvature_report(GeneralProfile.from_table(u, f)), -1040))

    def test_always_negative_for_admissible_profiles(self):
        p = make_quadratic_profile(1, 1, 1)
        assert np.max(gaussian_curvature(p, np.linspace(0.0, 1.0, 50))) < 0.0
        for p in random_profiles(29, 10):
            span = reference_interval(p)
            assert np.max(gaussian_curvature(p, np.linspace(span.lo, span.hi, 40))) < 0.0


def cli_outcome(*argv):
    """cli_dispatch's exit code and stdout on argv, with any warning an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_dispatch(list(argv))
    return code, out.getvalue()


def coefficient_flags(c, d, k):
    return "--c", repr(c), "--d", repr(d), "--k", repr(k)


# d = s 2 sqrt(ck): s = d/(2 sqrt(ck)) is the discriminant ratio, |s| < 1
EXTENDED_SWEEP = [(c, s * 2.0 * math.sqrt(c * k), k) for c in (1e-3, 1e-2, 0.3, 1.0, 3.0, 30.0, 1e3)
                  for k in (1e-12, 1e-6, 1e-2, 1.0, 1e4, 1e10, 1e32, 1e300) for s in (0.0, 0.9, -0.999)]
NEAR_EDGE_SWEEP = [(c, sign * (1.0 - gap) * 2.0 * math.sqrt(c * k), k) for c in (1e-3, 0.3, 1.0, 3.0, 1e3)
                   for k in (1e-6, 1.0, 1e6) for gap in (1e-6, 1e-10, 1e-14) for sign in (1.0, -1.0)]
# c up to 1e10, where the feasible half width h = L/sqrt(c - 1) is 1e-5 L
LARGE_C_SWEEP = [(10.0**e, s * 2.0 * math.sqrt(10.0**e * k), k) for e in range(11)
                 for k in (1e-6, 1.0, 1e6) for s in (0.0, 0.9, -0.999)]
# c <= 1 over the whole double range, where L = sqrt(m/c) reaches 1e162
# and (u - u*)^2 would overflow though f itself is finite
FULL_RANGE_SWEEP = [(10.0**ec, s * 2.0 * math.sqrt(10.0**ec) * math.sqrt(10.0**ek), 10.0**ek)
                    for ec in range(-300, 1, 25) for ek in range(-300, 301, 25) for s in (0.0, 0.9, -0.999)]


class TestWholeDoubleRange:
    def test_every_profile_with_c_at_most_one_verifies_with_finite_bounds(self, monkeypatch):
        # every closed form reads H = hypot(u - u*, L), finite wherever f is;
        # a bound of inf would pass any finite residual, so each must be finite
        bounds = []

        def recording(*args):
            reports = verify_report(*args)
            bounds.extend(rep.bound for rep in reports)
            return reports

        monkeypatch.setattr(verifier_mod, "verify_report", recording)
        failed = []
        for coeffs in FULL_RANGE_SWEEP:
            try:
                code = cli_outcome("verify", *coefficient_flags(*coeffs), "--grid", "8x8")[0]
            except RuntimeWarning as warning:
                code = repr(warning)
            if code != 0:
                failed.append((coeffs, code))
        assert (len(FULL_RANGE_SWEEP), failed) == (975, [])
        assert len(bounds) == 10 * 975 and all(map(math.isfinite, bounds))


@st.composite
def homothetic_images(draw):
    """The coefficients of a profile and of its image (c, lam d, lam^2 k)
    under u -> lam u, f -> lam f, and verify's map flags: c in 10^[-3, 3],
    k in 10^[-6, 6], d up to 0.999 of the discriminant edge, lam in
    10^[-6, 6], either branch, the principal or mirrored theta0, and a
    random c0 and seed."""
    c, k = 10.0 ** draw(st.floats(-3.0, 3.0)), 10.0 ** draw(st.floats(-6.0, 6.0))
    d = draw(st.floats(-0.999, 0.999)) * 2.0 * math.sqrt(c * k)
    lam = 10.0 ** draw(st.floats(-6.0, 6.0))
    map_flags = ("--case", draw(st.sampled_from(["a", "b"])),
                 "--theta0-branch", draw(st.sampled_from(["principal", "mirror"])),
                 "--c0", repr(draw(st.floats(-math.pi, math.pi))), "--seed", str(draw(st.integers(0, 2**31))))
    return (c, d, k), (c, lam * d, lam * lam * k), map_flags


class TestOneLengthScale:
    # every default length of verify and classify quadratic: is a multiple
    # of the profile's lengths L and h, which the homothety scales by lam,
    # and so no verdict moves with the surface's size

    @pytest.mark.parametrize("sweep", [EXTENDED_SWEEP, NEAR_EDGE_SWEEP, LARGE_C_SWEEP],
                             ids=["extended", "near-edge", "large-c"])
    def test_every_profile_of_the_sweep_verifies(self, sweep):
        failed = [coeffs for coeffs in sweep
                  if cli_outcome("verify", *coefficient_flags(*coeffs), "--grid", "20x20")[0] != 0]
        assert failed == []

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3.0, 10.0), st.floats(-6.0, 6.0), st.floats(-0.999, 0.999))
    def test_widest_stencil_stays_inside_the_chart(self, log_c, log_k, s):
        # the u-stencil of the largest fd step is 1e-3 min(L, h), which the
        # chart's ends at u* + 0.1 h and u* + 0.85 h leave room for
        c, k = 10.0**log_c, 10.0**log_k
        p = make_quadratic_profile(c, s * 2.0 * math.sqrt(c * k), k)
        span = reference_interval(p)
        h_u = FD_STEP_RANGE[1] * min(p.length, p.half_width)
        assert span.lo - h_u > p.singular_u
        assert span.hi + h_u < p.singular_u + p.half_width

    @settings(max_examples=60, deadline=None)
    @given(homothetic_images())
    def test_verify_pass_flags_do_not_move(self, images):
        here, there, map_flags = images
        (code, out), (image_code, image_out) = (
            cli_outcome("verify", *coefficient_flags(*coeffs), *map_flags, "--grid", "20x20") for coeffs in (here, there))
        assert image_code == code
        assert [line.split()[-1] for line in image_out.splitlines()] == [line.split()[-1] for line in out.splitlines()]

    @settings(max_examples=60, deadline=None)
    @given(homothetic_images())
    def test_classify_gate_does_not_move(self, images):
        here, there, _ = images
        (code, out), (image_code, image_out) = (
            cli_outcome("classify", "--profile", "quadratic:%r,%r,%r" % coeffs) for coeffs in (here, there))
        assert (image_code, image_out.splitlines()[:2]) == (code, out.splitlines()[:2])
