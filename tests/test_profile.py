import dataclasses
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

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
    make_projection_params,
    make_quadratic_profile,
    profile_jet,
    reference_interval,
)
from revproj.verifier import check_local_isometry
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


def _length(p):
    """L = sqrt(-delta)/(2c), the profile's length scale."""
    return p.sqrt_neg_delta / (2.0 * p.c)


def _far_ends(p, sign, count):
    """count abscissae on one side of u*, from 1e10 L out to where f^2 is
    about to overflow, equispaced in log|u - u*|."""
    top = math.log10(1e154 / math.sqrt(p.c) / _length(p))
    return p.singular_u + sign * _length(p) * 10.0 ** np.linspace(10.0, top, count)


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
        for u_ref in [us[0], us[-1], float(us[11] * (1.0 + 1e-9)), p.singular_u - sign * 3.0 * _length(p)]:
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
            for via in [above[5], below[7], p.singular_u + _length(p)]:
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


class TestRadius:
    @settings(max_examples=100, deadline=None)
    @given(profiles(), st.floats(-3.0, 3.0))
    def test_is_profile_jets_f_to_the_bit(self, p, u):
        us = np.linspace(u, u + 1.0, 7)
        assert p.radius(u) == profile_jet(p, u)[0]
        assert np.array_equal(p.radius(us), profile_jet(p, us)[0])

    def test_huge_radius_reads_without_warning(self):
        # f^2 = u^2 + 1e300: f'' = -delta/(4 f w) overflows in f w, which
        # the readers of f alone no longer form
        p = make_quadratic_profile(1, 0, 1e300)
        params = make_projection_params(p)
        span = reference_interval(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fd_step in (0.0, 1e-5):
                check_local_isometry(p, params, span, nt=5, nu=5, fd_step=fd_step)
            x, y, z = embed(p, SurfacePoint(math.pi / 2, 1.0), span.lo)
        assert (x, y) == (p.radius(1.0) * math.cos(math.pi / 2), p.radius(1.0))
        assert math.isfinite(z)


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
