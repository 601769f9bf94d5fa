import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revproj import (
    DomainInterval,
    EmptyDomain,
    GeneralProfile,
    InfeasibleArcLength,
    RejectedProfile,
    SingularitySplit,
    SurfacePoint,
    admissible_interval,
    embed,
    eval_g,
    gaussian_curvature,
    make_quadratic_profile,
    profile_jet,
    reference_interval,
)
from helpers import random_profiles, subprocess_env


@st.composite
def profiles(draw):
    c = draw(st.floats(0.1, 4.0))
    k = draw(st.floats(0.1, 4.0))
    frac = draw(st.floats(-0.95, 0.95))
    return make_quadratic_profile(c, frac * 2.0 * math.sqrt(0.9 * c * k), k)


class TestMakeQuadraticProfile:
    def test_fig1_constants(self):
        p = make_quadratic_profile(1, 0, 1)
        assert p.delta == -4.0
        assert p.sqrt_neg_delta == 2.0
        assert p.sqrt_c == 1.0

    def test_general_discriminant(self):
        assert make_quadratic_profile(1, 1, 1).delta == -3.0

    def test_zero_discriminant_rejected(self):
        with pytest.raises(RejectedProfile):
            make_quadratic_profile(1, 2, 1)

    @pytest.mark.parametrize("c,d,k", [(0, 0, 1), (-1, 0, 1), (1, 0, 0), (1, 0, -2), (1, 3, 1)])
    def test_bad_coefficients_rejected(self, c, d, k):
        with pytest.raises(RejectedProfile):
            make_quadratic_profile(c, d, k)

    def test_non_finite_rejected(self):
        with pytest.raises(RejectedProfile):
            make_quadratic_profile(math.nan, 0, 1)


class TestProfileJet:
    def test_fig1_at_one(self, fig1):
        f, fp, fpp = profile_jet(fig1, 1.0)
        assert f == pytest.approx(1.4142136, abs=1e-7)
        assert fp == pytest.approx(0.7071068, abs=1e-7)
        assert fpp == pytest.approx(0.3535534, abs=1e-7)

    def test_shifted_profile_at_zero(self):
        p = make_quadratic_profile(1, 1, 1)
        assert profile_jet(p, 0.0) == pytest.approx((1.0, 0.5, 0.75), abs=1e-15)

    def test_fig1_vertex(self, fig1):
        assert profile_jet(fig1, 0.0) == pytest.approx((1.0, 0.0, 1.0), abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(profiles(), st.floats(-3.0, 3.0))
    def test_matches_finite_differences(self, p, u):
        h = 1e-5
        f, fp, fpp = profile_jet(p, u)
        fd_fp = (profile_jet(p, u + h)[0] - profile_jet(p, u - h)[0]) / (2 * h)
        fd_fpp = (profile_jet(p, u + h)[1] - profile_jet(p, u - h)[1]) / (2 * h)
        assert abs(fd_fp - fp) <= 1e-8 * max(1.0, abs(fp))
        assert abs(fd_fpp - fpp) <= 1e-8 * max(1.0, abs(fpp))

    @settings(max_examples=100, deadline=None)
    @given(profiles(), st.floats(-3.0, 3.0))
    def test_bend_times_radius_cubed_is_constant(self, p, u):
        # f'' f^3 = (4ck - d^2)/4 everywhere, the square of sqrt(-delta)/2
        f, _, fpp = profile_jet(p, u)
        expected = -p.delta / 4.0
        assert fpp * f**3 == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx((p.sqrt_neg_delta / 2.0) ** 2, rel=1e-15)

    def test_radius_times_slope_has_vanishing_second_derivative(self):
        # (f f')'' = 0: f f' is linear in u, so the second difference is
        # pure rounding noise
        h = 1e-4
        rng = np.random.default_rng(3)
        for p in (make_quadratic_profile(1, 0, 1), make_quadratic_profile(1, 1, 1)):
            for u in rng.uniform(0.1, 3.0, size=1000):
                s = lambda v: profile_jet(p, v)[0] * profile_jet(p, v)[1]
                second = (s(u + h) - 2 * s(u) + s(u - h)) / (h * h)
                assert abs(second) < 1e-6


class TestAdmissibleInterval:
    def test_clips_at_feasibility_boundary(self):
        p = make_quadratic_profile(2, 0, 1)
        got = admissible_interval(p, DomainInterval(0.1, 1.0))
        assert got.lo == 0.1
        assert got.hi == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-7)
        assert got.hi < 1.0 / math.sqrt(2.0)

    def test_returns_request_when_always_feasible(self, fig1):
        got = admissible_interval(fig1, DomainInterval(0.5, 2.0))
        assert (got.lo, got.hi) == (0.5, 2.0)

    def test_splits_on_interior_singularity(self, fig1):
        with pytest.raises(SingularitySplit) as exc:
            admissible_interval(fig1, DomainInterval(-1.0, 1.0))
        assert exc.value.lower == (-1.0, 0.0)
        assert exc.value.upper == (0.0, 1.0)

    def test_empty_when_fully_infeasible(self):
        p = make_quadratic_profile(2, 0, 1)
        with pytest.raises(EmptyDomain):
            admissible_interval(p, DomainInterval(0.8, 1.2))

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            DomainInterval(1.0, 1.0)

    def test_reference_interval_is_admissible(self):
        for p in random_profiles(11, 30):
            span = reference_interval(p)
            again = admissible_interval(p, span)
            assert again.lo == span.lo and again.hi == span.hi


class TestEvalG:
    def test_fig1_height_is_inverse_sinh(self, fig1):
        assert eval_g(fig1, 1.0, 0.0) == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-10)
        assert eval_g(fig1, 2.0, 0.0) == pytest.approx(math.log(math.sqrt(5) + 2), abs=1e-10)

    def test_normalization(self, fig1):
        assert eval_g(fig1, 0.0, 0.0) == 0.0

    def test_infeasible_slope_raises(self):
        p = make_quadratic_profile(2, 0, 1)
        with pytest.raises(InfeasibleArcLength):
            eval_g(p, 0.9, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(profiles(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_additivity(self, p, fa, fb, fc):
        span = reference_interval(p)
        u0, u1, u2 = (span.lo + f * span.width for f in (fa, fb, fc))
        direct = eval_g(p, u2, u0)
        via = eval_g(p, u2, u1) + eval_g(p, u1, u0)
        assert abs(direct - via) < 1e-9


class TestCurvatureAndMetric:
    def test_fig1_values(self, fig1):
        assert gaussian_curvature(fig1, 0.0) == pytest.approx(-1.0, abs=1e-15)
        assert gaussian_curvature(fig1, 1.0) == pytest.approx(-0.25, abs=1e-15)
        assert gaussian_curvature(fig1, 2.0) == pytest.approx(-0.04, abs=1e-15)

    def test_equals_minus_bend_over_radius(self):
        for p in random_profiles(5, 10):
            for u in np.linspace(-2, 2, 11):
                f, _, fpp = profile_jet(p, u)
                assert gaussian_curvature(p, u) == pytest.approx(-fpp / f, abs=1e-12, rel=1e-12)
                assert gaussian_curvature(p, u) < 0


class TestEmbed:
    def test_spot_values(self, fig1):
        x, y, z = embed(fig1, SurfacePoint(math.pi / 2, 1.0), 0.0)
        assert (x, y, z) == pytest.approx((0.0, 1.4142136, 0.8813736), abs=1e-7)
        assert embed(fig1, SurfacePoint(0.0, 0.0), 0.0) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)
        x, y, z = embed(fig1, SurfacePoint(math.pi, 1.0), 0.0)
        assert (x, y, z) == pytest.approx((-1.4142136, 0.0, 0.8813736), abs=1e-7)

    def test_radius_identity(self):
        rng = np.random.default_rng(2)
        for p in random_profiles(9, 5):
            span = reference_interval(p)
            for _ in range(20):
                pt = SurfacePoint(rng.uniform(0, 2 * math.pi), rng.uniform(span.lo, span.hi))
                x, y, _ = embed(p, pt, span.lo)
                f, _, _ = profile_jet(p, pt.u)
                assert abs(x * x + y * y - f * f) < 1e-12


class TestGeneralProfile:
    def test_from_table_interpolates(self):
        u = np.linspace(0.2, 2.0, 200)
        gp = GeneralProfile.from_table(u, np.sqrt(u * u + 1))
        assert gp.evaluator(1.0) == pytest.approx(math.sqrt(2), abs=1e-6)
        assert (gp.domain.lo, gp.domain.hi) == (0.2, 2.0)

    def test_from_table_rejects_unsorted(self):
        with pytest.raises(ValueError):
            GeneralProfile.from_table([0.0, 0.5, 0.4, 1.0], [1, 1, 1, 1])

    def test_from_table_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GeneralProfile.from_table([0.0, 0.5, 1.0, 1.5], [1.0, -1.0, 1.0, 1.0])


def test_import_loads_no_scipy():
    # scipy is imported only by eval_g and GeneralProfile.from_table
    code = "import sys, revproj; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
