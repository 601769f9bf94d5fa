"""Tests of the benchmark's independent reference against properties of the
method, not against revproj's output.

    python3 -m pytest benchmark/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref
from run import import_breakdown

RNG_SEEDS = range(40)


def random_setup(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.2, 3.0)
    k = rng.uniform(0.2, 5.0)
    d = rng.uniform(-0.95, 0.95) * 2.0 * math.sqrt(c * k)
    return dict(c=c, d=d, k=k, c0=rng.uniform(-4, 4), case=str(rng.choice(["a", "b"])),
                mirror=bool(rng.integers(2))), rng


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_preserves_length_along_meridians_and_parallels(seed):
    s, rng = random_setup(seed)
    t = rng.uniform(-5, 5, 50)
    u = rng.uniform(-4, 4, 50)
    dz_du, dz_dt = ref.plane_map_derivatives(s["c"], s["d"], s["k"], t, u, s["c0"], s["case"], s["mirror"])
    np.testing.assert_allclose(np.abs(dz_du), 1.0, rtol=1e-14)
    np.testing.assert_allclose(np.abs(dz_dt), ref.radius(s["c"], s["d"], s["k"], u), rtol=1e-13)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_derivatives_match_central_differences_of_the_map(seed):
    s, rng = random_setup(seed)
    t, u, h = rng.uniform(-5, 5, 20), rng.uniform(-4, 4, 20), 1e-5
    args = (s["c0"], s["case"], s["mirror"])
    phi = lambda tt, uu: ref.plane_map(s["c"], s["d"], s["k"], tt, uu, *args)
    dz_du, dz_dt = ref.plane_map_derivatives(s["c"], s["d"], s["k"], t, u, *args)
    np.testing.assert_allclose((phi(t, u + h) - phi(t, u - h)) / (2 * h), dz_du, atol=1e-8)
    np.testing.assert_allclose((phi(t + h, u) - phi(t - h, u)) / (2 * h), dz_dt, atol=1e-8)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_meridian_images_are_straight(seed):
    s, rng = random_setup(seed)
    u = np.sort(rng.uniform(-4, 4, 30))
    z = ref.plane_map(s["c"], s["d"], s["k"], rng.uniform(-5, 5), u, s["c0"], s["case"], s["mirror"])
    chord = (z[-1] - z[0]) / abs(z[-1] - z[0])
    deviation = np.abs(((z - z[0]) * np.conj(chord)).imag)
    assert deviation.max() < 1e-13 * (1 + np.abs(z).max())


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_map_is_periodic_in_t(seed):
    s, rng = random_setup(seed)
    t, u = rng.uniform(-5, 5, 20), rng.uniform(-4, 4, 20)
    args = (s["c0"], s["case"], s["mirror"])
    z = ref.plane_map(s["c"], s["d"], s["k"], t, u, *args)
    z_shift = ref.plane_map(s["c"], s["d"], s["k"], t + ref.period(s["c"]), u, *args)
    np.testing.assert_allclose(z_shift, z, atol=1e-12 * (1 + np.abs(z).max()))


def test_spot_value_of_the_unit_profile():
    z = ref.plane_map(1.0, 0.0, 1.0, math.pi / 2, 1.0)
    assert abs(z - (1.0 + 2.0j)) < 1e-15


def test_height_is_asinh_for_the_unit_profile():
    u = np.linspace(-3, 3, 25)
    np.testing.assert_allclose(ref.height(1.0, 0.0, 1.0, u, 0.4), np.arcsinh(u) - np.arcsinh(0.4), atol=1e-14)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_height_derivative_completes_the_unit_tangent(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(1.2, 3.0)
    k = rng.uniform(0.5, 3.0)
    d = rng.uniform(-0.9, 0.9) * 2.0 * math.sqrt(c * k)
    half = ref.feasible_half_width(c, d, k)
    us = ref.singular_u(c, d)
    np.testing.assert_allclose(ref.slope(c, d, k, [us - half, us + half]) ** 2, 1.0, rtol=1e-12)
    u = us + rng.uniform(0.2, 0.8, 10) * half
    h = 1e-5
    g = lambda x: ref.height(c, d, k, x, us + 0.1 * half)
    np.testing.assert_allclose((g(u + h) - g(u - h)) / (2 * h),
                               np.sqrt(1.0 - ref.slope(c, d, k, u) ** 2), atol=1e-8)


def test_ground_truth_verdicts():
    assert not ref.map_exists("sphere")
    assert not ref.map_exists("pseudosphere")
    assert ref.map_exists("quadratic", (1.0, 0.0, 1.0), (0.2, 2.0))
    assert not ref.map_exists("quadratic", (1.0, 0.0, 1.0), (-1.0, 1.0))  # u* = 0 inside
    assert not ref.map_exists("quadratic", (1.0, 2.0, 1.0), (0.2, 2.0))  # d^2 - 4ck = 0
    assert not ref.map_exists("quadratic", (-1.0, 0.0, 1.0), (0.2, 2.0))
    with pytest.raises(ValueError):
        ref.map_exists("torus")


def test_profile_families_have_the_stated_curvature():
    h = 1e-3
    for fn, v, expect in ((ref.pseudosphere(1.0), np.linspace(-1.0, -0.5, 7), -1.0),
                          (ref.pseudosphere(50.0), np.linspace(-50.0, -25.0, 7), -1.0 / 2500.0),
                          (ref.sphere(2.0), np.linspace(0.4, 2.4, 7), 0.25)):
        f2 = (fn(v + h) - 2 * fn(v) + fn(v - h)) / (h * h)
        np.testing.assert_allclose(-f2 / fn(v), expect, rtol=1e-5)


def test_import_breakdown_counts_outermost_imports_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       400 |        450 |   scipy.integrate",
        "import time:        10 |        800 | revproj",
        "import time:        20 |         20 | scipy.interpolate",
    ])
    assert import_breakdown(log) == pytest.approx({"numpy": 0.3, "scipy": 0.47, "revproj": 0.8})
