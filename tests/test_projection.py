import math

import numpy as np
import pytest

from revproj import (
    Branch,
    NoPreimage,
    PlanePoint,
    SurfacePoint,
    invert,
    jacobian,
    make_projection_params,
    make_quadratic_profile,
    meridian_turning,
    profile_jet,
    project,
    reference_interval,
    t_period,
)
from helpers import random_profiles


class TestProjectionParams:
    def test_theta0_zero_for_symmetric_profile(self, fig1):
        assert make_projection_params(fig1).theta0 == 0.0

    def test_theta0_principal_values(self):
        p = make_quadratic_profile(1, 1, 1)
        assert make_projection_params(p).theta0 == pytest.approx(math.pi / 6, abs=1e-7)
        p = make_quadratic_profile(4, 2, 1)
        assert make_projection_params(p).theta0 == pytest.approx(0.5235988, abs=1e-7)

    def test_mirror_branch_has_same_sine(self):
        p = make_quadratic_profile(2, 1.5, 1)
        principal = make_projection_params(p).theta0
        mirrored = make_projection_params(p, mirror_theta0=True).theta0
        assert mirrored == pytest.approx(math.pi - principal, abs=1e-15)
        assert math.sin(mirrored) == pytest.approx(math.sin(principal), abs=1e-15)


class TestMeridianTurning:
    def test_spot_values(self, fig1):
        assert meridian_turning(fig1, 1.0) == pytest.approx((0.7853982, 0.5), abs=1e-7)
        p = make_quadratic_profile(1, 1, 1)
        assert meridian_turning(p, 0.0) == pytest.approx((0.5235988, 0.8660254), abs=1e-7)
        assert meridian_turning(fig1, 0.0) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_turning_rate_squared_is_curvature_ratio(self):
        for p in random_profiles(21, 10):
            for u in np.linspace(-2, 2, 9):
                f, _, fpp = profile_jet(p, u)
                _, ap = meridian_turning(p, u)
                assert ap * ap == pytest.approx(fpp / f, rel=1e-12)


def meridian_angle(p, params, t):
    """Direction angle of the meridian image at t: the angle of dPhi/du,
    the u-column of the Jacobian."""
    jac = jacobian(p, params, SurfacePoint(t, 0.0))
    return math.atan2(jac[1, 1], jac[0, 1])


def frame(p, params, t):
    """(g1, h1, G2, H2) with Phi(t, u) = (u g1 + G2, u h1 + H2): (g1, h1) is
    the u-column of the Jacobian and (G2, H2) = Phi(t, 0)."""
    q = project(p, params, SurfacePoint(t, 0.0))
    g1, h1 = jacobian(p, params, SurfacePoint(t, 0.0))[:, 1]
    return g1, h1, q.x, q.y


class TestAngles:
    """The line angle b(t) = b' t + c0 read off the map: the meridian image
    runs along e^{-i b} on CASE_A and along -e^{-i b} = e^{i (pi - b)} on
    CASE_B."""

    def test_angle_b_case_a(self, fig1, fig1_params):
        assert -meridian_angle(fig1, fig1_params, math.pi / 2) == pytest.approx(-1.5707963, abs=1e-7)
        p = make_quadratic_profile(4, 0, 1)
        params = make_projection_params(p, c0=1.0)
        assert -meridian_angle(p, params, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_angle_b_case_b_is_mirrored(self, fig1):
        params = make_projection_params(fig1, branch=Branch.CASE_B)
        assert math.pi - meridian_angle(fig1, params, math.pi / 2) == pytest.approx(1.5707963, abs=1e-7)

    def test_phi_case_b(self, fig1):
        params = make_projection_params(fig1, branch=Branch.CASE_B)
        t = 0.7
        b = fig1.sqrt_c * t + params.c0
        assert meridian_angle(fig1, params, t) == pytest.approx(math.pi - b, abs=1e-15)


class TestFrameFunctions:
    def test_anchored_at_base(self, fig1, fig1_params):
        assert frame(fig1, fig1_params, 0.0) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)

    def test_quarter_and_half_turn(self, fig1, fig1_params):
        assert frame(fig1, fig1_params, math.pi / 2) == pytest.approx((0.0, 1.0, 1.0, 1.0), abs=1e-12)
        assert frame(fig1, fig1_params, math.pi) == pytest.approx((-1.0, 0.0, 0.0, 2.0), abs=1e-12)

    def test_direction_is_unit_and_antiderivative_speed_is_sqrt_k(self):
        h = 1e-6
        for p in random_profiles(31, 6):
            for branch in (Branch.CASE_A, Branch.CASE_B):
                params = make_projection_params(p, c0=0.3, branch=branch)
                for t in np.linspace(-2, 2, 9):
                    g1, h1, _, _ = frame(p, params, t)
                    assert math.hypot(g1, h1) == pytest.approx(1.0, abs=1e-12)
                    _, _, G2p, H2p = frame(p, params, t + h)
                    _, _, G2m, H2m = frame(p, params, t - h)
                    speed = math.hypot((G2p - G2m) / (2 * h), (H2p - H2m) / (2 * h))
                    assert speed == pytest.approx(math.sqrt(p.k), rel=1e-7)


class TestProject:
    def test_spot_values(self, fig1, fig1_params):
        cases = [
            ((0.0, 1.0), (1.0, 0.0)),
            ((math.pi / 2, 1.0), (1.0, 2.0)),
            ((math.pi, 0.5), (-0.5, 2.0)),
        ]
        for (t, u), (x, y) in cases:
            q = project(fig1, fig1_params, SurfacePoint(t, u))
            assert abs(q.x - x) < 1e-12
            assert abs(q.y - y) < 1e-12

    def test_meridians_are_affine_in_u(self):
        for p in random_profiles(41, 8):
            params = make_projection_params(p, c0=0.2)
            span = reference_interval(p)
            t = 1.1
            q0 = project(p, params, SurfacePoint(t, span.lo))
            q1 = project(p, params, SurfacePoint(t, span.hi))
            for lam in np.linspace(0, 1, 7):
                u = span.lo + lam * span.width
                q = project(p, params, SurfacePoint(t, u))
                assert abs(q.x - ((1 - lam) * q0.x + lam * q1.x)) < 1e-12
                assert abs(q.y - ((1 - lam) * q0.y + lam * q1.y)) < 1e-12

    def test_periodic_in_t(self, fig1, fig1_params):
        period = t_period(fig1)
        q0 = project(fig1, fig1_params, SurfacePoint(0.7, 1.3))
        q1 = project(fig1, fig1_params, SurfacePoint(0.7 + period, 1.3))
        assert (q0.x, q0.y) == pytest.approx((q1.x, q1.y), abs=1e-12)


class TestJacobian:
    def test_spot_columns(self, fig1, fig1_params):
        jac = jacobian(fig1, fig1_params, SurfacePoint(math.pi / 2, 1.0))
        assert jac[:, 1] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert jac[:, 0] == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert np.hypot(*jac[:, 0]) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_vertex_point_columns(self, fig1, fig1_params):
        # central differences of the map give the t-column (1, 0) here;
        # its norm is f(0) = 1 and the u-column is the unit meridian direction
        jac = jacobian(fig1, fig1_params, SurfacePoint(0.0, 0.0))
        assert jac[:, 1] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert jac[:, 0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert np.hypot(*jac[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_u_column_is_always_unit(self):
        for p in random_profiles(51, 10):
            params = make_projection_params(p, c0=-0.4)
            jac = jacobian(p, params, SurfacePoint(0.9, 1.7))
            assert np.hypot(*jac[:, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_columns_match_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(8)
        for p in random_profiles(61, 6):
            span = reference_interval(p)
            for branch in (Branch.CASE_A, Branch.CASE_B):
                params = make_projection_params(p, c0=0.1, branch=branch)
                t = rng.uniform(0, 2 * math.pi)
                u = rng.uniform(span.lo, span.hi)
                jac = jacobian(p, params, SurfacePoint(t, u))
                tp = project(p, params, SurfacePoint(t + h, u))
                tm = project(p, params, SurfacePoint(t - h, u))
                up = project(p, params, SurfacePoint(t, u + h))
                um = project(p, params, SurfacePoint(t, u - h))
                fd_t = [(tp.x - tm.x) / (2 * h), (tp.y - tm.y) / (2 * h)]
                fd_u = [(up.x - um.x) / (2 * h), (up.y - um.y) / (2 * h)]
                assert jac[:, 0] == pytest.approx(fd_t, abs=1e-7)
                assert jac[:, 1] == pytest.approx(fd_u, abs=1e-7)

    def test_t_column_norm_is_radius(self):
        for p in random_profiles(71, 10):
            params = make_projection_params(p)
            span = reference_interval(p)
            # u = 0 included: there |dPhi/dt| = f(0) = sqrt(k)
            for u in [0.0, *np.linspace(span.lo, span.hi, 7)]:
                jac = jacobian(p, params, SurfacePoint(1.3, u))
                f, _, _ = profile_jet(p, u)
                assert np.hypot(*jac[:, 0]) == pytest.approx(f, abs=1e-12, rel=1e-12)


class TestInvert:
    def test_known_points(self, fig1, fig1_params):
        got = invert(fig1, fig1_params, PlanePoint(1.0, 2.0), SurfacePoint(1.4, 0.9))
        assert (got.t, got.u) == pytest.approx((math.pi / 2, 1.0), abs=1e-8)
        got = invert(fig1, fig1_params, PlanePoint(1.0, 0.0), SurfacePoint(0.1, 0.9))
        assert (got.t, got.u) == pytest.approx((0.0, 1.0), abs=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for p in random_profiles(81, 10):
            params = make_projection_params(p, c0=0.25)
            span = reference_interval(p)
            t_star = rng.uniform(0, math.pi)
            u_star = rng.uniform(span.lo, span.hi)
            q = project(p, params, SurfacePoint(t_star, u_star))
            got = invert(p, params, q, SurfacePoint(t_star + 0.05, u_star + 0.05))
            assert (got.t, got.u) == pytest.approx((t_star, u_star), abs=1e-8)

    def test_seed_selects_sheet(self, fig1, fig1_params):
        period = t_period(fig1)
        q = project(fig1, fig1_params, SurfacePoint(0.5, 1.0))
        got = invert(fig1, fig1_params, q, SurfacePoint(0.5 + 3 * period + 0.02, 1.01))
        assert got.t == pytest.approx(0.5 + 3 * period, abs=1e-8)

    def test_singular_jacobian_raises(self, fig1, fig1_params):
        # u = 0 is the zero-slope abscissa u* of this profile, where det J = 0;
        # a seed there lies on neither side of u*, so it picks no preimage
        with pytest.raises(NoPreimage):
            invert(fig1, fig1_params, PlanePoint(5.0, 5.0), SurfacePoint(0.5, 0.0))

    def test_unreachable_target_raises(self, fig1, fig1_params):
        # the fold circle of this profile is |q - i| = 1, the image of u* = 0:
        # targets on it or inside it have no preimage
        for q in (PlanePoint(1.0, 1.0), PlanePoint(0.0, 1.0)):
            with pytest.raises(NoPreimage):
                invert(fig1, fig1_params, q, SurfacePoint(0.5, 1.0))


class TestBranchCongruence:
    def test_case_b_is_rotated_reflected_case_a(self):
        # the mirrored branch satisfies Phi_B(t, u) = -Phi_A(-t, u): a
        # rotation of the plane by pi composed with the surface's own
        # reflection isometry t -> -t, so both images are congruent
        for p in random_profiles(91, 8):
            pa = make_projection_params(p, c0=0.3)
            pb = make_projection_params(p, c0=0.3, branch=Branch.CASE_B)
            span = reference_interval(p)
            for t in np.linspace(-2.0, 2.0, 9):
                for u in np.linspace(span.lo, span.hi, 5):
                    qa = project(p, pa, SurfacePoint(-t, u))
                    qb = project(p, pb, SurfacePoint(t, u))
                    assert abs(qb.x + qa.x) < 1e-12
                    assert abs(qb.y + qa.y) < 1e-12

    def test_case_b_preserves_lengths_too(self):
        for p in random_profiles(95, 4):
            params = make_projection_params(p, branch=Branch.CASE_B)
            span = reference_interval(p)
            for u in np.linspace(span.lo, span.hi, 5):
                jac = jacobian(p, params, SurfacePoint(0.8, u))
                f, _, _ = profile_jet(p, u)
                assert np.hypot(*jac[:, 1]) == pytest.approx(1.0, abs=1e-12)
                assert np.hypot(*jac[:, 0]) == pytest.approx(f, rel=1e-12)
