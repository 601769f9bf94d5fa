import dataclasses
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from revproj import (
    Branch,
    DomainInterval,
    EmptyDomain,
    GeneralProfile,
    InfeasibleArcLength,
    MeshSpec,
    QuadraticProfile,
    RejectedProfile,
    SingularitySplit,
    admissible_interval,
    eval_g,
    export_mesh_obj,
    make_projection_params,
    make_quadratic_profile,
    profile_jet,
    reference_interval,
)
from revproj.profile import TableRowError
from revproj.projection import _map_constants
from revproj.verifier import check_local_isometry, check_structural_identities
from helpers import gaussian_curvature, random_profiles, subprocess_env


@st.composite
def profiles(draw):
    c = draw(st.floats(0.1, 4.0))
    k = draw(st.floats(0.1, 4.0))
    frac = draw(st.floats(-0.95, 0.95))
    return make_quadratic_profile(c, frac * 2.0 * math.sqrt(0.9 * c * k), k)


class TestMakeQuadraticProfile:
    def test_fig1_constants(self):
        p = make_quadratic_profile(1, 0, 1)
        assert (p.singular_u, p.radius_sq_min, p.length) == (0.0, 1.0, 1.0)
        assert p.sqrt_c == 1.0

    def test_general_discriminant(self):
        # f^2 = u^2 + u + 1 = (u + 1/2)^2 + 3/4
        p = make_quadratic_profile(1, 1, 1)
        assert (p.singular_u, p.radius_sq_min, p.length) == (-0.5, 0.75, math.sqrt(0.75))

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


class TestQuadraticProfileValidatesItself:
    # the type is the only constructor: make_quadratic_profile is its other
    # name, and the constants derived from (c, d, k) cannot be passed in
    @pytest.mark.parametrize("c,d,k,message", [
        (math.nan, 0, 1, "coefficient c must be finite, got nan"),
        (1, math.inf, 1, "coefficient d must be finite, got inf"),
        (1, 0, -math.inf, "coefficient k must be finite, got -inf"),
        (math.nan, 0, -1, "coefficient c must be finite, got nan"),
        (1, 0, 0, "k must be positive so the radius f(0) = sqrt(k) exists (got k=0)"),
        (-1, 0, -2, "k must be positive so the radius f(0) = sqrt(k) exists (got k=-2)"),
        (-1, 0, 1, "c must be positive so the profile opens upward (got c=-1)"),
        (0, 0, 1, "c must be positive so the profile opens upward (got c=0)"),
        (1, 2, 1, "discriminant d^2 - 4ck = 0 must be negative: it keeps f > 0 "
                  "everywhere and f'' strictly positive"),
        (1, 3, 1, "discriminant d^2 - 4ck = 5 must be negative: it keeps f > 0 "
                  "everywhere and f'' strictly positive"),
    ])
    def test_each_rule_rejects_with_its_message(self, c, d, k, message):
        with pytest.raises(RejectedProfile) as info:
            QuadraticProfile(c, d, k)
        assert str(info.value) == message

    def test_derived_fields_cannot_be_passed(self):
        with pytest.raises(TypeError):
            QuadraticProfile(c=-1.0, d=0.0, k=1.0, sqrt_c=1.0, singular_u=0.0, radius_sq_min=1.0, length=1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(QuadraticProfile(1, 0, 1), sqrt_c=3.0)

    def test_replace_validates_and_derives_again(self):
        p = dataclasses.replace(QuadraticProfile(1, 0, 1), c=4.0)
        assert (p.sqrt_c, p.singular_u, p.radius_sq_min, p.length) == (2.0, 0.0, 1.0, 0.5)
        assert p == QuadraticProfile(4, 0, 1)
        with pytest.raises(RejectedProfile):
            dataclasses.replace(p, c=-1.0)

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(1e-3, 1e3), k=st.floats(1e-3, 1e3), skew=st.floats(-0.999, 0.999))
    def test_derived_fields_are_the_closed_forms(self, c, k, skew):
        d = skew * 2.0 * math.sqrt(c * k)
        m = float(Fraction(k) - Fraction(d) ** 2 / (4 * Fraction(c)))  # rounded once
        p = QuadraticProfile(c, d, k)
        assert (p.c, p.d, p.k) == (c, d, k)
        assert p.singular_u == -d / (2.0 * c)
        assert p.radius_sq_min == m
        assert p.sqrt_c == math.sqrt(c)
        assert p.length == math.sqrt(m) / math.sqrt(c)

    def test_coefficients_are_stored_as_floats(self):
        p = QuadraticProfile(1, np.float64(0.5), 2)
        assert [type(v) for v in (p.c, p.d, p.k)] == [float, float, float]
        assert p == QuadraticProfile(1.0, 0.5, 2.0)

    def test_make_quadratic_profile_is_the_type(self):
        assert make_quadratic_profile is QuadraticProfile


@st.composite
def edge_coefficients(draw):
    """(c, d, k) with c and k in 10^[-200, 200] and d = s 2 sqrt(c k), the
    gap 1 - |s| in 10^[-16, 0]: out to the discriminant edge, where
    d^2 - 4ck in floats would cancel to nothing."""
    c, k = (10.0 ** draw(st.floats(-200.0, 200.0)) for _ in range(2))
    s = draw(st.sampled_from([-1.0, 1.0])) * (1.0 - 10.0 ** draw(st.floats(-16.0, 0.0)))
    return c, s * 2.0 * math.sqrt(c) * math.sqrt(k), k


class TestInvariants:
    @settings(max_examples=300, deadline=None)
    @given(edge_coefficients())
    def test_within_a_few_eps_of_mpmath(self, coefficients):
        import mpmath

        try:
            p = QuadraticProfile(*coefficients)
        except RejectedProfile:  # rounding took d past the edge
            assume(False)
        with mpmath.workdps(50):
            c, d, k = map(mpmath.mpf, coefficients)
            m = k - d * d / (4 * c)
            exact = (-d / (2 * c), m, mpmath.sqrt(m / c))
            for got, want in zip((p.singular_u, p.radius_sq_min, p.length), exact):
                assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(1e-3, 1e3), k=st.floats(1e-3, 1e3), skew=st.floats(-1.0, 1.0), j=st.integers(-400, 400))
    def test_homothety_scales_them_exactly(self, c, k, skew, j):
        # (c, l d, l^2 k) with l = 2^j is the surface scaled by l, exactly
        # while every value stays a normal float
        assume(skew == 0.0 or abs(skew) > 1e-100)
        d = skew * 2.0 * math.sqrt(c * k)
        try:
            p = QuadraticProfile(c, d, k)
        except RejectedProfile:
            assume(False)
        q = QuadraticProfile(c, math.ldexp(d, j), math.ldexp(k, 2 * j))
        assert q.singular_u == math.ldexp(p.singular_u, j)
        assert q.length == math.ldexp(p.length, j)
        assert q.radius_sq_min == math.ldexp(p.radius_sq_min, 2 * j)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(1e-300, 1e300), k=st.floats(1e-300, 1e300), c0=st.floats(-4.0, 4.0), case_b=st.booleans())
    def test_d_zero_keeps_w0_and_m(self, c, k, c0, case_b):
        # what asin and sin/cos gave on d = 0 with the principal theta0
        p = QuadraticProfile(c, 0.0, k)
        params = make_projection_params(p, c0=c0, branch=Branch.CASE_B if case_b else Branch.CASE_A)
        w0 = _map_constants(p, params)[2]
        assert p.radius_sq_min == k
        assert w0 == complex(0.0, -math.sqrt(k) / math.sqrt(c))
        assert math.copysign(1.0, w0.real) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(profiles(), st.booleans())
    def test_w0_is_minus_u_star_on_theta0s_side(self, p, mirror):
        params = make_projection_params(p, mirror_theta0=mirror)
        assert math.sin(params.theta0) == pytest.approx(p.d / (2.0 * math.sqrt(p.c * p.k)), abs=1e-15)
        assert _map_constants(p, params)[2] == complex(-p.singular_u, p.length if mirror else -p.length)

    def test_far_profiles_have_their_invariants(self):
        # 4ck underflows at 1e-200 and overflows at 1e200 in floats
        tiny, huge = QuadraticProfile(1e-200, 0.0, 1e-200), QuadraticProfile(1e200, 0.0, 1e200)
        assert (tiny.singular_u, tiny.radius_sq_min, tiny.length) == (0.0, 1e-200, 1.0)
        assert (huge.singular_u, huge.radius_sq_min, huge.length) == (0.0, 1e200, 1.0)


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
        # f'' f^3 = c m = (4ck - d^2)/4 everywhere, the square of c L
        f, _, fpp = profile_jet(p, u)
        expected = p.c * p.radius_sq_min
        assert fpp * f**3 == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx((p.c * p.length) ** 2, rel=1e-15)

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

    def test_infeasible_slope_raises_for_arrays(self):
        p = make_quadratic_profile(2, 0, 1)  # feasible for |u| < sqrt(2)/2
        with pytest.raises(InfeasibleArcLength):
            eval_g(p, np.array([0.1, 0.9, 0.3]), 0.0)
        with pytest.raises(InfeasibleArcLength):
            eval_g(p, np.array([0.1, 0.3]), 0.9)

    def test_path_along_the_feasibility_edge_is_flat(self):
        p = make_quadratic_profile(2, 0, 1)
        edge = math.sqrt(2.0) / 2.0  # f'^2 = 1 there; both ends lie within the 1e-12 slack beyond it
        assert eval_g(p, edge * (1 + 1e-13), edge * (1 + 2e-13)) == 0.0
        # across the whole window: -2 H int_0^{pi/2} cos^2 / sqrt(1 + sin^2), with u = H sin
        assert eval_g(p, -edge, edge) == pytest.approx(-1.0068615925073928, abs=1e-15)

    def test_fig1_matches_asinh(self, fig1):
        # acceptance criterion 7's height, sqrt(1 - f'^2) = 1/sqrt(1 + u^2)
        u = np.linspace(-5.0, 5.0, 401)
        for u_ref in (0.0, 0.05, -1.3, 2.0):
            expect = np.array([math.asinh(v) - math.asinh(u_ref) for v in u.tolist()])
            assert np.all(np.abs(eval_g(fig1, u, u_ref) - expect) <= 1e-15 * np.maximum(1.0, np.abs(u)))

    @settings(max_examples=40, deadline=None)
    @given(profiles(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_additivity(self, p, fa, fb, fc):
        span = reference_interval(p)
        u0, u1, u2 = (span.lo + f * span.width for f in (fa, fb, fc))
        direct = eval_g(p, u2, u0)
        via = eval_g(p, u2, u1) + eval_g(p, u1, u0)
        assert abs(direct - via) < 1e-9


@st.composite
def height_paths(draw):
    """A profile with c in 10^[-2, 0.6], k in 10^[-12, 10] and d up to 0.99
    of the discriminant edge, and two abscissae on either side of u*: within
    10 L of it for c <= 1 (L = f(u*)/sqrt(c), the profile's length scale),
    out to 1 - 1e-6 of the feasibility half-width for c > 1."""
    c = 10.0 ** draw(st.floats(-2.0, 0.6))
    k = 10.0 ** draw(st.floats(-12.0, 10.0))
    p = make_quadratic_profile(c, draw(st.floats(-0.99, 0.99)) * 2.0 * math.sqrt(c * k), k)
    length = math.sqrt(p.radius_sq_min / c)
    reach = 10.0 * length if c <= 1.0 else (1.0 - 1e-6) * length / math.sqrt(c - 1.0)
    u, u_ref = (p.singular_u + draw(st.floats(-1.0, 1.0)) * reach for _ in range(2))
    if draw(st.booleans()):  # a short path far from u*, where G(x) - G(x_ref) would cancel
        u = u_ref + draw(st.floats(-1e-6, 1e-6)) * reach
    return p, u, u_ref


def quad_height(p, u, u_ref):
    """The height by adaptive quadrature of sqrt(1 - f'^2), independent of
    the closed form.  With x = s - u* and m = f(u*)^2, f'^2 = (c x)^2/f^2
    and 1 - f'^2 = ((1 - c) c x^2 + m)/(c x^2 + m); taken as 1 - f'^2 it
    would cancel to nothing once |x| is 1e8 times f(u*)/sqrt(c)."""
    from scipy.integrate import quad

    c, m = p.c, p.radius_sq_min

    def integrand(s):
        x = s - p.singular_u
        return math.sqrt(max(((1.0 - c) * c * x * x + m) / (c * x * x + m), 0.0))

    # a path across u* is split there: quad's error estimate on the whole
    # path can miss its sqrt-like rise towards a far feasibility edge
    stops = [u_ref, p.singular_u, u] if (u_ref - p.singular_u) * (u - p.singular_u) < 0 else [u_ref, u]
    return sum(quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0] for a, b in zip(stops, stops[1:]))


class TestClosedFormHeight:
    @settings(max_examples=300, deadline=None)
    @given(height_paths())
    def test_matches_quadrature(self, path):
        p, u, u_ref = path
        assert abs(eval_g(p, u, u_ref) - quad_height(p, u, u_ref)) <= 1e-12 * max(1.0, abs(u - u_ref))

    @settings(max_examples=60, deadline=None)
    @given(height_paths(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_array_call_equals_scalar_calls(self, path, fractions):
        p, u, u_ref = path
        us = np.array([u_ref + f * (u - u_ref) for f in fractions] + [u, u_ref])
        heights = eval_g(p, us, u_ref)
        assert heights.tolist() == [eval_g(p, v, u_ref) for v in us.tolist()]
        assert eval_g(p, us.reshape(1, -1), u_ref).tolist() == [heights.tolist()]
        assert isinstance(eval_g(p, u, u_ref), float)


def _far_ends(p, sign, count):
    """count abscissae on one side of u*, from 1e10 L out to where f^2 is
    about to overflow, equispaced in log|u - u*|."""
    top = math.log10(1e154 / math.sqrt(p.c) / p.length)
    return p.singular_u + sign * p.length * 10.0 ** np.linspace(10.0, top, count)


FAR_PROFILES = [(1e-3, 0.5, 1.0), (0.1, -0.9, 1e-40), (0.5, 0.0, 1.0), (0.9, 0.3, 1e40)]


@pytest.mark.filterwarnings("error")
class TestFarFieldHeight:
    # A homothety cannot find a far-field fault: alpha x^2 does not move
    # under u -> lu, f -> lf.  So distances from u* are counted in L.

    @pytest.mark.parametrize("c, frac, k", FAR_PROFILES)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_same_side_slope_is_sqrt_one_minus_c(self, c, frac, k, sign):
        # far from u* on one side f' -> sqrt(c), so g = sqrt(1 - c)(u - u_ref)
        # up to a term of order L^2/((u - u*)(u_ref - u*)) < 1e-20
        p = make_quadratic_profile(c, frac * 2.0 * math.sqrt(c * k), k)
        us = _far_ends(p, sign, 40)
        for u_ref in [us[0], us[17], us[-1], float(us[23] * (1.0 + 1e-9))]:
            moved = us != u_ref
            run = np.array([float(Fraction(u) - Fraction(u_ref)) for u in us[moved].tolist()])
            heights = eval_g(p, us[moved], u_ref)
            assert np.all(np.abs(heights - math.sqrt(1.0 - c) * run) <= 16.0 * np.finfo(float).eps * np.abs(run))

    @pytest.mark.parametrize("k", [1.0, 1e-40, 1e40])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_c_one_matches_asinh(self, k, sign):
        # c = 1: g = sqrt(m) (asinh(x/sqrt(m)) - asinh(x_ref/sqrt(m))), m = f(u*)^2
        import mpmath

        p = make_quadratic_profile(1.0, 0.4 * 2.0 * math.sqrt(k), k)

        def closed(u):
            root_m = mpmath.sqrt(mpmath.mpf(p.radius_sq_min))
            return root_m * mpmath.asinh((mpmath.mpf(u) - mpmath.mpf(p.singular_u)) / root_m)

        us = _far_ends(p, sign, 30)
        for u_ref in [us[0], us[-1], float(us[11] * (1.0 + 1e-9)), p.singular_u - sign * 3.0 * p.length]:
            moved = us != u_ref
            heights = eval_g(p, us[moved], u_ref)
            with mpmath.workdps(60):
                expect = [float(closed(u) - closed(u_ref)) for u in us[moved].tolist()]
            assert np.all(np.abs(heights - expect) <= 16.0 * np.finfo(float).eps * np.abs(expect))

    @pytest.mark.parametrize("c, frac, k", FAR_PROFILES + [(1.0, 0.2, 1.0)])
    def test_heights_add_across_u_star(self, c, frac, k):
        p = make_quadratic_profile(c, frac * 2.0 * math.sqrt(c * k), k)
        below, above = _far_ends(p, -1.0, 12), _far_ends(p, 1.0, 12)
        for u_ref in [above[0], above[-1], below[-1]]:
            for via in [above[5], below[7], p.singular_u + p.length]:
                direct = eval_g(p, below, u_ref)
                first, second = eval_g(p, below, via), eval_g(p, via, u_ref)
                assert np.all(np.isfinite(direct))
                assert np.all(np.abs(direct - (first + second)) <= 16.0 * np.finfo(float).eps * (np.abs(first) + abs(second)))

    @pytest.mark.parametrize("u, u_ref", [(1e155, 0.1), (0.1, -1e300), (1e308, 1e307), (-1e200, 1e200)])
    def test_infeasible_far_end_raises(self, u, u_ref):
        with pytest.raises(InfeasibleArcLength):
            eval_g(make_quadratic_profile(2, 0, 1), u, u_ref)
        with pytest.raises(InfeasibleArcLength):
            eval_g(make_quadratic_profile(1.0 + 1e-9, 0.5, 1.0), np.array([0.0, u]), u_ref)


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


@st.composite
def chart_points(draw):
    """A profile with c in 10^[-3, 3], k in 10^[-6, 6] and d = s 2 sqrt(c k),
    the gap 1 - |s| in 10^[-14, 0], and a u on its chart scale,
    u* + L [0.2, 2]."""
    c, k = 10.0 ** draw(st.floats(-3.0, 3.0)), 10.0 ** draw(st.floats(-6.0, 6.0))
    s = draw(st.sampled_from([-1.0, 1.0])) * (1.0 - 10.0 ** draw(st.floats(-14.0, 0.0)))
    try:
        p = QuadraticProfile(c, s * 2.0 * math.sqrt(c) * math.sqrt(k), k)
    except RejectedProfile:  # rounding took d past the edge
        assume(False)
    return p, p.singular_u + p.length * draw(st.floats(0.2, 2.0))


class TestRadius:
    @settings(max_examples=300, deadline=None)
    @given(chart_points())
    def test_radius_sq_and_slope_within_a_few_eps_of_mpmath(self, point):
        # f^2 at a rounded u is off by its condition in u, eps 2c|u||u - u*|,
        # plus eps f^2; f' = c (u - u*)/f by eps (|f'| + c|u|/f). Near the
        # discriminant edge |u| >> |u - u*| ~ L, where (c u + d) u + k cancels
        import mpmath

        p, u = point
        eps = np.finfo(float).eps
        f_sq, f_prime = p.radius_sq(u), profile_jet(p, u)[1]
        with mpmath.workdps(50):
            c, d, k, x = map(mpmath.mpf, (p.c, p.d, p.k, u))
            exact_sq = (c * x + d) * x + k
            exact_prime = (c * x + d / 2) / mpmath.sqrt(exact_sq)
            assert abs(f_sq - exact_sq) <= 4 * eps * (exact_sq + 2 * c * abs(x) * abs(x + d / (2 * c)))
            assert abs(f_prime - exact_prime) <= 4 * eps * (abs(exact_prime) + c * abs(x) / mpmath.sqrt(exact_sq))

    @settings(max_examples=100, deadline=None)
    @given(profiles(), st.floats(-3.0, 3.0))
    def test_is_profile_jets_f_to_the_bit(self, p, u):
        us = np.linspace(u, u + 1.0, 7)
        assert p.radius(u) == profile_jet(p, u)[0]
        assert np.array_equal(p.radius(us), profile_jet(p, us)[0])

    def test_huge_radius_reads_without_warning(self, tmp_path):
        # f^2 = u^2 + 1e300: no reader of f, f' or f'' forms f f^2, which
        # would overflow
        p = make_quadratic_profile(1, 0, 1e300)
        params = make_projection_params(p)
        span = reference_interval(p)
        path = tmp_path / "huge.obj"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fd_step in (0.0, 1e-5):
                check_local_isometry(p, params, span, nt=5, nu=5, fd_step=fd_step)
            assert all(rep.passed for rep in check_structural_identities(p, np.linspace(span.lo, span.hi, 9)))
            export_mesh_obj(p, MeshSpec(4, 3, span, span.lo), str(path))
        vertices = [tuple(map(float, line.split()[1:])) for line in open(path) if line.startswith("v ")]
        # the ring at t = pi/2 starts at (0, f(u0), g(u0) = 0)
        assert vertices[3] == (0.0, float(p.radius(span.lo)), 0.0)
        assert all(math.isfinite(z) for _, _, z in vertices)


class TestGeneralProfile:
    def test_from_table_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GeneralProfile.from_table([0.0, 0.5, 0.4, 1.0, 1.5], [1, 1, 1, 1, 1])

    def test_from_table_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="must be positive"):
            GeneralProfile.from_table([0.0, 0.5, 1.0, 1.5, 2.0], [1.0, -1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("u, f", [
        ([0.0, 0.5, 1.0, 1.5, 2.0], [1.0, math.inf, 1.0, 1.0, 1.0]),
        ([0.0, 0.5, 1.0, 1.5, 2.0], [1.0, math.nan, 1.0, 1.0, 1.0]),
        ([0.0, 0.5, 1.0, 1.5, math.inf], [1.0, 1.0, 1.0, 1.0, 1.0]),
    ])
    def test_from_table_rejects_nonfinite(self, u, f):
        with pytest.raises(ValueError, match="finite"):
            GeneralProfile.from_table(u, f)

    @pytest.mark.parametrize("u, f, row, detail", [
        ([0.0, 0.5, 1.0, 1.5, 2.0], [1.0, 1.0, math.nan, -1.0, 1.0], 2, "(u=1.0, f=nan): u- and f-values must be finite"),
        ([0.0, 0.5, 0.5, 0.4, 2.0], [1.0, 1.0, 1.0, -1.0, 1.0], 2, "(u=0.5, f=1.0): u-values must be strictly increasing"),
        ([0.0, 0.5, 1.0, 1.5, 2.0], [1.0, 1.0, 1.0, -1.0, 0.0], 3, "(u=1.5, f=-1.0): f-values must be positive"),
    ])
    def test_from_table_names_the_first_bad_row(self, u, f, row, detail):
        # the rules run in this order, each naming its first bad row
        with pytest.raises(TableRowError) as info:
            GeneralProfile.from_table(u, f)
        assert (info.value.row, info.value.detail) == (row, detail)
        assert str(info.value) == "table row %d %s" % (row, detail)

    def test_from_table_needs_one_curvature_window(self):
        # the row curvature needs one 5-row window
        with pytest.raises(ValueError, match=">= 5 rows"):
            GeneralProfile.from_table([0.0, 0.5, 1.0, 1.5], [1.0, 1.0, 1.0, 1.0])

    def test_from_table_keeps_rows(self):
        u = np.linspace(0.2, 2.0, 5)
        gp = GeneralProfile.from_table(u, np.sqrt(u * u + 1))
        assert np.array_equal(gp.table[0], u) and np.array_equal(gp.table[1], np.sqrt(u * u + 1))
        assert (gp.domain.lo, gp.domain.hi) == (0.2, 2.0)
        # the rows are the profile's only data: nothing evaluates between them
        assert gp.evaluator is None

    def test_needs_rows(self):
        # a function and a domain are no profile, and the domain is the rows'
        with pytest.raises(TypeError):
            GeneralProfile(math.cos, DomainInterval(0.2, 1.2))
        with pytest.raises(TypeError):
            GeneralProfile(evaluator=math.cos, domain=DomainInterval(0.2, 1.2))
        gp = GeneralProfile.sample(math.cos, DomainInterval(0.2, 1.2))
        with pytest.raises(ValueError):
            dataclasses.replace(gp, domain=DomainInterval(0.0, 1.0))
        # nor can its validated rows change after construction
        with pytest.raises(ValueError):
            gp.table[1][0] = -1.0

    def test_profiles_with_the_same_ends_but_different_rows_differ(self):
        # a profile is its rows, so it equals only itself: two tables that
        # share their first and last u neither compare equal nor hash alike
        u = np.linspace(0.2, 2.0, 9)
        root, cosh = GeneralProfile.from_table(u, np.sqrt(u * u + 1)), GeneralProfile.from_table(u, np.cosh(u))
        assert root.domain == cosh.domain
        assert root != cosh and root == root
        assert len({root, cosh}) == 2
        # the benchmark's tracer rebuilds each table this way
        traced = dataclasses.replace(root, evaluator=print)
        assert traced.evaluator is print and traced != root
        assert all(np.array_equal(a, b) for a, b in zip(traced.table, root.table))

    def test_sample_calls_once_per_row(self):
        calls = []
        gp = GeneralProfile.sample(lambda u: calls.append(u) or math.cos(u), DomainInterval(0.2, 1.2), n=7)
        u = np.linspace(0.2, 1.2, 7)
        assert calls == list(u)
        assert np.array_equal(gp.table[0], u) and np.array_equal(gp.table[1], [math.cos(x) for x in u])
        assert (gp.domain.lo, gp.domain.hi) == (0.2, 1.2)


def test_import_loads_no_scipy():
    code = "import sys, revproj; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["export-mesh", "classify-csv", "classify-sphere"])
def test_cli_runs_with_scipy_blocked(command, tmp_path):
    # the runtime needs numpy only: scipy is a test dependency, for the oracles
    table = tmp_path / "profile.csv"
    table.write_text("u,f\n" + "".join("%r,%r\n" % (u, math.sqrt(u * u + 1.0)) for u in np.linspace(0.2, 2.0, 81).tolist()))
    argv = {
        "export-mesh": ["export-mesh", "--c", "1", "--d", "0", "--k", "1", "-o", str(tmp_path / "surface.obj")],
        "classify-csv": ["classify", "--profile", "csv:%s" % table],
        "classify-sphere": ["classify", "--profile", "sphere"],
    }[command]
    code = "import sys; sys.modules['scipy'] = None; from revproj.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, *argv], env=subprocess_env(), capture_output=True, text=True)
    # the sphere admits no such map, and 1 is that verdict's exit code
    assert (out.returncode, out.stderr) == (1 if command == "classify-sphere" else 0, "")


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == ["numpy"]
    assert "scipy" in project["optional-dependencies"]["test"]
