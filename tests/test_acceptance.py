"""Acceptance gate: every numbered criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time

import numpy as np
import pytest

import revproj.verifier as verifier_mod
from revproj import (
    BUILTIN_PROFILES,
    DomainInterval,
    GeneralProfile,
    MeshSpec,
    ResidualReport,
    SurfacePoint,
    check_local_isometry,
    check_meridian_straightness,
    check_structural_identities,
    curvature_report,
    existence_classifier,
    export_mesh_obj,
    make_projection_params,
    make_quadratic_profile,
    ode_oracle_a,
    project,
    reference_interval,
)
from revproj.cli import cli_dispatch
from helpers import gaussian_curvature, random_profiles

PROFILE_SEED = 2026


def _criterion(number, description, ok, detail=""):
    print("criterion %d  %-58s %s" % (number, description, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s %s" % (number, description, detail)


def _suite_profiles():
    return [make_quadratic_profile(1, 0, 1)] + random_profiles(PROFILE_SEED, 19)


def _chart(p):
    if (p.c, p.d, p.k) == (1.0, 0.0, 1.0):
        return DomainInterval(0.2, 2.0)
    return reference_interval(p)


def test_criterion_1_constructive_local_isometry():
    start = time.perf_counter()
    worst_fd = worst_analytic = 0.0
    for p in _suite_profiles():
        params = make_projection_params(p)
        span = _chart(p)
        rep_u, rep_t = check_local_isometry(p, params, span, nt=50, nu=50, fd_step=1e-5)
        worst_fd = max(worst_fd, rep_u.max_abs_residual, rep_t.max_abs_residual)
        rep_u, rep_t = check_local_isometry(p, params, span, nt=50, nu=50, fd_step=0.0)
        worst_analytic = max(worst_analytic, rep_u.max_abs_residual, rep_t.max_abs_residual)
    elapsed = time.perf_counter() - start
    ok = worst_fd < 1e-8 and worst_analytic < 1e-12 and elapsed < 5.0
    _criterion(
        1,
        "length preservation on 20 profiles (fd %.1e, exact %.1e, %.1fs)" % (worst_fd, worst_analytic, elapsed),
        ok,
    )


def test_criterion_2_straight_meridians():
    rng = np.random.default_rng(PROFILE_SEED + 1)
    worst = 0.0
    for p in _suite_profiles():
        params = make_projection_params(p)
        span = _chart(p)
        us = np.linspace(span.lo, span.hi, 12)
        for t in rng.uniform(0.0, 2.0 * math.pi, size=5):
            rep = check_meridian_straightness(p, params, float(t), us)
            worst = max(worst, rep.max_abs_residual)
    _criterion(2, "meridian image straightness on 100 pairs (%.1e)" % worst, worst < 1e-12)


def test_criterion_3_proof_identities():
    rng = np.random.default_rng(PROFILE_SEED + 2)
    worst = 0.0
    for p in _suite_profiles():
        span = _chart(p)
        us = rng.uniform(span.lo, span.hi, size=1000)
        for rep in check_structural_identities(p, us):
            worst = max(worst, rep.max_abs_residual)
    _criterion(3, "structural identities at 1000 u per profile (%.1e)" % worst, worst < 1e-10)


def test_criterion_4_ode_oracle():
    p = make_quadratic_profile(1, 0, 1)
    # steps of 1e-3, 1e-2 and 5e-3 over the width 1.5
    err = ode_oracle_a(p, 0.5, 2.0, 1500).max_abs_residual
    coarse = ode_oracle_a(p, 0.5, 2.0, 150).max_abs_residual
    fine = ode_oracle_a(p, 0.5, 2.0, 300).max_abs_residual
    ratio = coarse / fine
    ok = err < 1e-8 and 12.0 <= ratio <= 20.0
    _criterion(4, "RK4 oracle error %.1e, halving ratio %.1f" % (err, ratio), ok)


def test_criterion_5_necessity_and_curvature():
    sphere = existence_classifier(BUILTIN_PROFILES["sphere"])
    pseudo = existence_classifier(BUILTIN_PROFILES["pseudosphere"])
    quad = existence_classifier(GeneralProfile.sample(lambda u: math.sqrt(u * u + 1.0), DomainInterval(0.2, 2.0)))
    ok = (
        not sphere.exists
        and not pseudo.exists
        and quad.exists
        and quad.fitted == pytest.approx((1.0, 0.0, 1.0), abs=1e-6)
    )
    for p in _suite_profiles():
        span = _chart(p)
        ok = ok and np.max(gaussian_curvature(p, np.linspace(span.lo, span.hi, 100))) < 0.0
    # K = 1 to the 5-row fit's O(h^2) truncation at h = W/199, 5.2e-4 on these rows
    k_min, k_max = curvature_report(BUILTIN_PROFILES["sphere"])
    ok = ok and abs(k_min - 1.0) < 5.2e-4 and abs(k_max - 1.0) < 5.2e-4
    _criterion(5, "classifier verdicts and curvature signs", ok)


def test_criterion_6_closed_form_spot_values():
    p = make_quadratic_profile(1, 0, 1)
    params = make_projection_params(p)
    expected = {
        (0.0, 1.0): (1.0, 0.0),
        (math.pi / 2, 1.0): (1.0, 2.0),
        (math.pi, 0.5): (-0.5, 2.0),
    }
    worst = 0.0
    for (t, u), (x, y) in expected.items():
        q = project(p, params, SurfacePoint(t, u))
        worst = max(worst, abs(q.x - x), abs(q.y - y))
    _criterion(6, "closed-form spot values (%.1e)" % worst, worst < 1e-12)


def test_criterion_7_mesh_reproduction(tmp_path):
    p = make_quadratic_profile(1, 0, 1)
    spec = MeshSpec(64, 32, DomainInterval(0.05, 2.0), 0.05)
    path = tmp_path / "figure.obj"
    export_mesh_obj(p, spec, str(path))
    u_values = np.linspace(0.05, 2.0, 32)
    anchor = math.asinh(0.05)
    worst_radius = worst_height = 0.0
    count = 0
    for line in open(path):
        if not line.startswith("v "):
            continue
        x, y, z = (float(v) for v in line.split()[1:])
        u = u_values[count % 32]
        worst_radius = max(worst_radius, abs(x * x + y * y - (u * u + 1.0)))
        worst_height = max(worst_height, abs(z - (math.asinh(u) - anchor)))
        count += 1
    ok = count == 2048 and worst_radius < 1e-9 and worst_height < 1e-8
    _criterion(7, "mesh radii %.1e and heights %.1e on %d vertices" % (worst_radius, worst_height, count), ok)


def test_criterion_8_cli_contract(capsys, monkeypatch):
    code_classify = cli_dispatch(["classify", "--profile", "sphere"])
    out_classify = capsys.readouterr().out
    code_verify = cli_dispatch(["verify", "--c", "1", "--d", "0", "--k", "1"])
    capsys.readouterr()
    code_project = cli_dispatch(
        ["project", "--c", "1", "--d", "0", "--k", "1", "--c0", "0", "--t", "0", "--u", "1"]
    )
    out_project = capsys.readouterr().out

    real = verifier_mod.check_structural_identities

    def corrupted(p, u_samples):
        reports = real(p, u_samples)
        broken = ResidualReport(
            reports[0].identity_name, 1.0, 1.0, reports[0].worst_point, reports[0].samples, reports[0].bound
        )
        return [broken] + reports[1:]

    monkeypatch.setattr(verifier_mod, "check_structural_identities", corrupted)
    code_faulted = cli_dispatch(["verify", "--c", "1", "--d", "0", "--k", "1"])
    capsys.readouterr()
    monkeypatch.undo()

    ok = (
        code_classify == 1
        and "exists: false" in out_classify
        and code_verify == 0
        and code_project == 0
        and out_project.strip() == "1 0"
        and code_faulted != 0
    )
    with capsys.disabled():
        print()
        _criterion(8, "CLI contract and fault injection", ok)
