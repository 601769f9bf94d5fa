"""Shared helpers for the test suite."""

import math
import os

import numpy as np

import revproj
from revproj import make_quadratic_profile, reference_interval


def subprocess_env():
    """The environment with the imported revproj's source directory first
    on PYTHONPATH, for tests that run a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(revproj.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def random_profiles(seed, count):
    """Valid profiles drawn from c, k in (0.1, 4) with d^2 < 4ck * 0.9."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = float(rng.uniform(0.1, 4.0))
        k = float(rng.uniform(0.1, 4.0))
        d = float(rng.uniform(-0.999, 0.999) * 2.0 * math.sqrt(0.9 * c * k))
        out.append(make_quadratic_profile(c, d, k))
    return out


def chart(p):
    """Default admissible u-interval used when a test needs one."""
    return reference_interval(p)


def gaussian_curvature(p, u):
    """The curvature oracle K = -f''/f = -c m/f^4 (m = f(u*)^2), strictly
    negative on this family; u may be a float or a numpy array.  f^2 is
    written out from the invariants, not read from the profile's modulus."""
    x = u - p.singular_u
    w = p.c * (x * x) + p.radius_sq_min
    return -p.c * p.radius_sq_min / (w * w)
