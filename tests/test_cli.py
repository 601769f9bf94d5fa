import dataclasses
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import revproj.cli as cli_mod
import revproj.verifier as verifier_mod
from revproj import (
    Branch,
    DomainInterval,
    GraticuleSpec,
    MeshSpec,
    ResidualReport,
    SurfacePoint,
    admissible_interval,
    export_graticule_svg,
    export_mesh_obj,
    make_projection_params,
    make_quadratic_profile,
    project,
    sample_table_csv,
    verify_report,
)
from revproj.cli import cli_dispatch
from helpers import subprocess_env


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_profile(tmp_path, fn, lo, hi, rows):
    """A CSV profile of fn at rows equispaced u on [lo, hi], written losslessly."""
    u = np.linspace(lo, hi, rows)
    path = tmp_path / "profile.csv"
    path.write_text("u,f\n" + "".join("%r,%r\n" % (float(a), float(b)) for a, b in zip(u, fn(u))))
    return path


class TestProjectCommand:
    def test_contract_example(self, capsys):
        code, out, _ = run(capsys, "project", "--c", "1", "--d", "0", "--k", "1",
                           "--c0", "0", "--t", "0", "--u", "1")
        assert code == 0
        assert out.strip() == "1 0"

    def test_quarter_turn(self, capsys):
        code, out, _ = run(capsys, "project", "--c", "1", "--d", "0", "--k", "1",
                           "--t", str(math.pi / 2), "--u", "1")
        assert code == 0
        x, y = (float(v) for v in out.split())
        assert (x, y) == pytest.approx((1.0, 2.0), abs=1e-10)

    def test_python_m_revproj_runs_without_warnings(self):
        argv = ["project", "--c", "1", "--d", "0", "--k", "1", "--t", "1.5707963267948966", "--u", "1"]
        out = subprocess.run([sys.executable, "-W", "error", "-m", "revproj", *argv],
                             env=subprocess_env(), capture_output=True, text=True)
        assert (out.returncode, out.stdout, out.stderr) == (0, "1 2\n", "")

    def test_negative_c0_in_exponent_notation(self, capsys):
        argv = ["project", "--c", "1", "--d", "0", "--k", "1", "--t", "0.3", "--u", "1"]
        spelled = run(capsys, *argv, "--c0", "-2.5e+00")
        assert spelled == run(capsys, *argv, "--c0=-2.5")
        assert spelled[0] == 0

    @pytest.mark.parametrize("argv, joined", [
        (["verify", "--d", "-1e-3", "--k", "-2"], ["verify", "--d=-1e-3", "--k=-2"]),
        (["project", "--t", "-inf", "--u", "-.5E+1"], ["project", "--t=-inf", "--u=-.5E+1"]),
        (["verify", "--help", "-1e-3"], ["verify", "--help", "-1e-3"]),
        (["table", "-o", "-1e-3", "--grid", "-2x2"], ["table", "-o", "-1e-3", "--grid", "-2x2"]),
        (["verify", "--d=-1", "-1e-3"], ["verify", "--d=-1", "-1e-3"]),
    ])
    def test_negative_values_are_joined_to_their_flag(self, argv, joined):
        assert cli_mod._join_negative_values(argv) == joined

    def test_case_b_and_mirror_accepted(self, capsys):
        code, out, _ = run(capsys, "project", "--c", "1", "--d", "0.5", "--k", "1",
                           "--case", "b", "--theta0-branch", "mirror", "--t", "0.3", "--u", "1")
        assert code == 0
        assert len(out.split()) == 2


class TestVerifyCommand:
    def test_negative_d_in_exponent_notation(self, capsys):
        spelled = run(capsys, "verify", "--c", "1", "--d", "-1e-3", "--k", "1")
        assert spelled == run(capsys, "verify", "--c", "1", "--d=-1e-3", "--k", "1")
        assert spelled[0] == 0

    def test_seed_moves_only_the_drawn_rows(self, capsys):
        # the seed picks where the golden-ratio draws start: the straightness
        # angles and the structural abscissae (rows 5-9), and nothing else
        argv = ("verify", "--c", "1", "--d", "0", "--k", "1", "--seed")
        rows = {}
        for seed in ("0", "1", "-7", str(2**31)):
            code, out, _ = run(capsys, *argv, seed)
            assert (code, out) == run(capsys, *argv, seed)[:2]
            rows[seed] = out.splitlines()
            assert [row.split()[-1] for row in rows[seed][1:]] == ["pass"] * 11
        for seed in ("1", "-7", str(2**31)):
            moved = [i for i, (a, b) in enumerate(zip(rows["0"], rows[seed])) if a != b]
            assert moved and set(moved) <= {5, 6, 7, 8, 9}

    def test_seed_beyond_2_53_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--c", "1", "--d", "0", "--k", "1", "--seed", str(-(2**53) - 1))
        assert (code, out) == (2, "") and "--seed" in err

    def test_fresh_verify_loads_no_numpy_random(self):
        code = ("import sys; from revproj.cli import main; main(['verify', '--c', '1', '--d', '0', '--k', '1']); "
                "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
        out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1] == "[]"

    def test_fig1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--c", "1", "--d", "0", "--k", "1")
        assert code == 0
        assert "overall: pass" in out

    def test_small_grid_still_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--c", "2", "--d", "1", "--k", "1.5",
                           "--grid", "12x12", "--seed", "3")
        assert code == 0

    def test_large_k_profile_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--c", "1", "--d", "0", "--k", "1e6", "--grid", "64x64")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("k", ["1e9", "1e14"])
    def test_huge_k_straightness_row_passes(self, capsys, k):
        # the meridian deviation grows with the term scale 2 sqrt(k/c):
        # 6.2e-12 at k = 1e9 and 1.2e-9 at k = 1e14
        code, out, _ = run(capsys, "verify", "--c", "1", "--d", "0", "--k", k)
        assert code == 0
        rows = out.strip().splitlines()[1:-1]
        assert [row.split()[-1] for row in rows] == ["pass"] * 10

    def test_bent_meridians_fail_straightness_row(self, capsys, monkeypatch):
        # a 1e-10 bend is far below the isometry bounds but 25 times the
        # straightness bound on this profile (1e-12 times term scale 4)
        real_map = verifier_mod.plane_map

        def bent(p, params, t, u):
            z, zt, zu = real_map(p, params, t, u)
            return z + 1e-10 * np.sin(3 * u), zt, zu

        monkeypatch.setattr(verifier_mod, "plane_map", bent)
        code, out, _ = run(capsys, "verify", "--c", "1", "--d", "0", "--k", "1")
        assert code == 1
        failed = [row.split()[0] for row in out.splitlines() if row.endswith("FAIL")]
        assert failed == ["meridian", "overall:"]

    def test_fault_injection_fails_run(self, capsys, monkeypatch):
        real = verifier_mod.check_structural_identities

        def corrupted(p, u_samples):
            reports = real(p, u_samples)
            broken = ResidualReport(
                identity_name=reports[0].identity_name,
                max_abs_residual=1.0,
                mean_abs_residual=1.0,
                worst_point=reports[0].worst_point,
                samples=reports[0].samples,
                bound=reports[0].bound,
            )
            return [broken] + reports[1:]

        monkeypatch.setattr(verifier_mod, "check_structural_identities", corrupted)
        code, out, _ = run(capsys, "verify", "--c", "1", "--d", "0", "--k", "1")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("coeffs, case", [("1,0,1", "a"), ("0.3,-0.2,2", "a"), ("3,1,1", "b")])
    def test_rows_are_the_library_reports(self, capsys, coeffs, case):
        c, d, k = coeffs.split(",")
        code, out, _ = run(capsys, "verify", "--c", c, "--d", d, "--k", k, "--case", case)
        p = make_quadratic_profile(float(c), float(d), float(k))
        params = make_projection_params(p, branch=Branch.CASE_A if case == "a" else Branch.CASE_B)
        reports = verify_report(p, params, (50, 50), 1e-5, 0)
        rows = out.splitlines()[1:-1]
        assert [row[:42].rstrip() for row in rows] == [rep.identity_name for rep in reports]
        assert [row.split()[-2:] for row in rows] == [
            ["%.0e" % rep.bound, "pass" if rep.passed else "FAIL"] for rep in reports
        ]
        assert code == (0 if all(rep.passed for rep in reports) else 1)

    def test_max_equal_to_its_bound_fails(self, capsys, monkeypatch):
        real = verifier_mod.ode_oracle_a

        def at_bound(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, max_abs_residual=rep.bound)

        monkeypatch.setattr(verifier_mod, "ode_oracle_a", at_bound)
        code, out, _ = run(capsys, "verify", "--c", "1", "--d", "0", "--k", "1")
        assert code == 1
        failed = [row.split()[0] for row in out.splitlines() if row.endswith("FAIL")]
        assert failed == ["a(u):", "overall:"]

    @pytest.mark.parametrize("fd_step", ["0", "1e-9", "2e-3"])
    def test_fd_step_outside_range_is_usage_error(self, capsys, fd_step):
        # 0 would print the analytic residuals in the [fd] rows
        code, out, err = run(capsys, "verify", "--c", "1", "--d", "0", "--k", "1", "--fd-step", fd_step)
        assert code == 2
        assert out == ""
        assert "--fd-step" in err


class TestClassifyCommand:
    def test_sphere_contract_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--profile", "sphere")
        assert code == 1
        assert "exists: false" in out

    def test_pseudosphere(self, capsys):
        code, out, _ = run(capsys, "classify", "--profile", "pseudosphere")
        assert code == 1
        assert "exists: false" in out

    def test_quadratic_profile(self, capsys):
        code, out, _ = run(capsys, "classify", "--profile", "quadratic:1,0,1")
        assert code == 0
        assert "exists: true" in out
        assert "fitted:" in out

    @pytest.mark.parametrize("profile, expected", [
        # K = 1 and K = -1 as their 200 rows' 5-row estimates give them
        ("sphere", "exists: false\ngate: residual\nmisfit: 0.195196\ncurvature_range: [0.999481, 0.999959]\n"),
        ("pseudosphere", "exists: false\ngate: residual\nmisfit: 0.0592\ncurvature_range: [-0.99991, -0.99991]\n"),
    ])
    def test_builtin_output(self, capsys, profile, expected):
        assert run(capsys, "classify", "--profile", profile) == (1, expected, "")

    @pytest.mark.parametrize("profile", ["sphere", "pseudosphere", "quadratic:1,0,1"])
    def test_named_profile_is_its_rows(self, capsys, tmp_path, profile):
        # a named profile prints exactly what its own rows print from a CSV
        u, f = cli_mod._resolve_profile_arg(profile).table
        path = tmp_path / "rows.csv"
        path.write_text("u,f\n" + "".join("%r,%r\n" % (float(a), float(b)) for a, b in zip(u, f)))
        assert run(capsys, "classify", "--profile", profile) == run(capsys, "classify", "--profile", "csv:%s" % path)

    def test_quadratic_output(self, capsys):
        # its misfit and fitted d are rounding noise, so only these lines are pinned
        code, out, _ = run(capsys, "classify", "--profile", "quadratic:1,0,1")
        lines = out.splitlines()
        assert code == 0
        assert lines[:2] == ["exists: true", "gate: admissible"]
        # the exact K = -1/(u^2 + 1)^2 at rows 2 and n - 3 of its 200 rows
        assert lines[-1] == "curvature_range: [-0.911254, -0.0411779]"

    def test_output_lines(self, capsys):
        _, out, _ = run(capsys, "classify", "--profile", "sphere")
        assert [line.split(":")[0] for line in out.splitlines()] == ["exists", "gate", "misfit", "curvature_range"]
        assert out.startswith("exists: false\ngate: residual\n")

    def test_csv_profile(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        u = np.linspace(0.2, 2.0, 1200)
        rows = "\n".join("%r,%r" % (float(ui), math.sqrt(ui * ui + 1)) for ui in u)
        path.write_text("u,f\n" + rows + "\n")
        code, out, _ = run(capsys, "classify", "--profile", "csv:%s" % path)
        assert code == 0
        assert "exists: true" in out

    @pytest.mark.parametrize("hi, rows", [(4.0, 20), (2.0, 30)])
    def test_short_csv_of_admissible_profile(self, capsys, tmp_path, hi, rows):
        # the fit runs on the rows themselves, so a short table decides too
        path = write_profile(tmp_path, lambda u: np.sqrt(u * u + 1.0), 0.2, hi, rows)
        code, out, err = run(capsys, "classify", "--profile", "csv:%s" % path)
        assert (code, err) == (0, "")
        assert out.startswith("exists: true\ngate: admissible\nmisfit: ")
        # K = -1/(u^2 + 1)^2 at the interior rows, those with two rows on each side
        u = np.linspace(0.2, hi, rows)[2:-2]
        truth = (-1.0 / (u[0] ** 2 + 1.0) ** 2, -1.0 / (u[-1] ** 2 + 1.0) ** 2)
        assert out.endswith("curvature_range: [%.6g, %.6g]\n" % truth)
        verdict = verifier_mod.existence_classifier(cli_mod._resolve_profile_arg("csv:%s" % path))
        assert verdict.curvature_range == pytest.approx(truth, rel=1e-9, abs=0.0)

    def test_csv_of_large_pseudosphere(self, capsys, tmp_path):
        # f = 50 e^{u/50} is the unit pseudosphere scaled by 50
        path = write_profile(tmp_path, lambda u: 50.0 * np.exp(u / 50.0), -50.0, -25.0, 201)
        code, out, _ = run(capsys, "classify", "--profile", "csv:%s" % path)
        assert code == 1
        assert out.startswith("exists: false\ngate: residual\n")
        assert "fitted:" not in out

    @pytest.mark.parametrize("lam, code", [(1e-150, 0), (1e150, 0), (1e160, 2)])
    def test_csv_at_extreme_scales(self, capsys, tmp_path, lam, code):
        # the lam-image of sqrt(u^2 + 1) on [0.2, 2] is admissible at any
        # scale whose f^2 is a double; at 1e160 f^2 overflows, a usage error
        path = write_profile(tmp_path, lambda u: lam * np.sqrt((u / lam) ** 2 + 1.0), 0.2 * lam, 2.0 * lam, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(capsys, "classify", "--profile", "csv:%s" % path)
        if code == 0:
            assert got[0] == 0 and got[1].startswith("exists: true\ngate: admissible\n")
        else:
            assert got[:2] == (2, "") and got[2].startswith("error: f^2 overflows")

    def test_csv_wider_than_the_square_root_of_the_largest_double(self, capsys, tmp_path):
        # W^2 ~ 1e320 while f^2 <= 1e300 stays finite: a verdict, not an
        # OverflowError's traceback
        path = write_profile(tmp_path, lambda u: np.sqrt((1e-10 * u) ** 2 + 1.0), 0.0, 1e160, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "classify", "--profile", "csv:%s" % path)
        assert (code, err) == (1, "")
        assert out.startswith("exists: false\ngate: ")
        # |K| < 1e-580 at every row, which rounds to a signed zero
        k_min, k_max = map(float, out.rsplit("curvature_range: [", 1)[1].rstrip("]\n").split(", "))
        assert k_min == k_max == 0.0

    def test_small_quadratic_profile(self, capsys):
        # a chart ~1e-6 wide: no absolute step has to fit inside it
        code, out, _ = run(capsys, "classify", "--profile", "quadratic:1000,0,1e-6")
        assert code == 0
        assert "exists: true" in out

    def test_csv_nonfinite_radius_rejected(self, capsys, tmp_path):
        path = write_profile(tmp_path, lambda u: np.sqrt(u * u + 1.0), 0.2, 2.0, 60)
        lines = path.read_text().splitlines()
        lines[30] = lines[30].split(",")[0] + ",inf"
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "classify", "--profile", "csv:%s" % path)
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_csv_bad_header(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n2,3\n3,4\n4,5\n")
        code, _, err = run(capsys, "classify", "--profile", "csv:%s" % path)
        assert code == 2
        assert "header" in err

    def test_csv_unsorted_u_rejected(self, capsys, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text("u,f\n0.2,1.0\n0.5,1.1\n0.4,1.2\n0.9,1.3\n1.1,1.4\n")
        code, _, err = run(capsys, "classify", "--profile", "csv:%s" % path)
        assert code == 2
        assert "increasing" in err

    def test_csv_ragged_row_rejected(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("u,f\n0.2,1.0\n0.5\n0.6,1.2\n0.9,1.3\n")
        code, _, err = run(capsys, "classify", "--profile", "csv:%s" % path)
        assert code == 2

    def test_csv_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", "--profile", "csv:%s/nope.csv" % tmp_path)
        assert code == 3

    def test_unknown_profile(self, capsys):
        code, _, err = run(capsys, "classify", "--profile", "torus")
        assert code == 2
        assert "--profile" in err

    def test_threshold_flag(self, capsys):
        # an absurdly large threshold flips the sphere verdict to a fit
        # attempt, which the coefficient constraints then reject
        code, out, _ = run(capsys, "classify", "--profile", "sphere", "--threshold", "10")
        assert code == 1
        assert "exists: false" in out

    @pytest.mark.parametrize("threshold", ["-1e-4", "0", "nan"])
    def test_threshold_that_cannot_decide_is_usage_error(self, capsys, threshold):
        # <= 0 rejects even an admissible quadratic; NaN would accept the sphere
        for profile in ("quadratic:1,0,1", "sphere"):
            code, out, err = run(capsys, "classify", "--profile", profile, "--threshold", threshold)
            assert code == 2
            assert out == ""
            assert "threshold" in err


class TestExportCommands:
    def test_graticule(self, capsys, tmp_path):
        out_path = tmp_path / "g.svg"
        code, out, _ = run(capsys, "export-graticule", "--c", "1", "--d", "0", "--k", "1",
                           "-o", str(out_path))
        assert code == 0
        assert out_path.exists()
        assert "9 meridians" in out

    def test_graticule_of_large_map(self, capsys, tmp_path):
        # |Phi| near 2e7: the collinearity guard scales with the image
        out_path = tmp_path / "g.svg"
        code, _, err = run(capsys, "export-graticule", "--c", "1", "--d", "0", "--k", "1e14",
                           "-o", str(out_path))
        assert code == 0, err
        assert out_path.exists()

    def test_mesh(self, capsys, tmp_path):
        out_path = tmp_path / "m.obj"
        code, out, _ = run(capsys, "export-mesh", "--c", "1", "--d", "0", "--k", "1",
                           "-o", str(out_path))
        assert code == 0
        assert "2048 vertices" in out

    def test_mesh_far_from_u_star(self, capsys, tmp_path):
        # at 1e78 the slope is sqrt(c) to ~1e-156, so g = sqrt(1 - c)(u - u0);
        # only the anchor ring, at u0, reads 0.0
        out_path = tmp_path / "far.obj"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "export-mesh", "--c", "0.5", "--d", "0", "--k", "1",
                               "--u0", "1e78", "--u1", "2e78", "-o", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        heights = np.array([float(line.split()[3]) for line in lines if line.startswith("v ")]).reshape(64, 32)
        run_u = np.linspace(1e78, 2e78, 32) - 1e78
        assert np.all(np.abs(heights - math.sqrt(0.5) * run_u) <= 16.0 * np.finfo(float).eps * run_u)
        assert np.count_nonzero(heights == 0.0) == 64

    def test_mesh_of_huge_radius_warns_nothing(self, capsys, tmp_path):
        # f^2 = u^2 + 1e300: f'' = -delta/(4 f w) would overflow in f w,
        # but the mesh reads f alone
        out_path = tmp_path / "huge.obj"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "export-mesh", "--c", "1", "--d", "0", "--k", "1e300", "-o", str(out_path))
        assert (code, err) == (0, ""), err
        assert "2048 vertices" in out
        assert sum(line.startswith("v ") for line in out_path.read_text().splitlines()) == 2048

    def test_mesh_anchors_at_clipped_lower_end(self, capsys, tmp_path):
        # f'(0) = 0 is u* for d = 0, so u0 = 0 is clipped to just above it:
        # the default anchor is the clipped end, where the height reads 0.0
        out_path = tmp_path / "m.obj"
        code, _, err = run(capsys, "export-mesh", "--c", "3", "--d", "0", "--k", "1", "--u0", "0", "--u1", "0.3",
                           "-o", str(out_path))
        assert code == 0, err
        assert out_path.read_text().splitlines()[0] == "v 1.0 0.0 0.0"

    @pytest.mark.parametrize("lam", [1.0, 1e-10, 1e-16])
    def test_mesh_clipped_at_u_star_scales_with_the_profile(self, capsys, tmp_path, lam):
        # u0 = u* is moved inward by an inset measured in the profile's
        # length sqrt(-delta)/(2c), so the lam-image (3, 0, lam^2) on
        # [0, lam] is the lam = 1 mesh times lam
        def vertices(scale):
            out_path = tmp_path / ("%r.obj" % scale)
            code, _, err = run(capsys, "export-mesh", "--c", "3", "--d", "0", "--k", repr(scale * scale),
                               "--u0", "0", "--u1", repr(scale), "-o", str(out_path))
            assert code == 0, err
            lines = out_path.read_text().splitlines()
            return np.array([[float(v) for v in line.split()[1:]] for line in lines if line.startswith("v ")])

        base = vertices(1.0)
        assert np.max(np.abs(vertices(lam) - lam * base)) <= 8.0 * np.finfo(float).eps * lam * np.max(np.abs(base))

    def test_table(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, out, _ = run(capsys, "table", "--c", "1", "--d", "0", "--k", "1",
                           "--grid", "3x4", "-o", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("t,u,x,y\n")
        assert "12 rows" in out

    def test_split_message_folds_negative_zero(self, capsys, tmp_path):
        # u* = -0/(2c) is -0.0 when d = 0
        code, out, err = run(capsys, "export-mesh", "--c", "1", "--d", "0", "--k", "1", "--u0", "-1", "--u1", "1",
                             "-o", str(tmp_path / "m.obj"))
        assert code == 2
        assert "u*=0 " in err and "[-1, 0)" in err and "(0, 1]" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("table", "--c", "1", "--d", "0", "--k", "1", "--t0", "-1e308", "--t1", "1e308"),
        ("export-mesh", "--c", "1", "--d", "0", "--k", "1", "--u-ref", "1e300"),
        ("export-mesh", "--c", "1", "--d", "0", "--k", "1", "--u1", "1e200"),
    ])
    def test_non_finite_output_writes_nothing(self, capsys, tmp_path, argv):
        # finite flags whose coordinates or heights overflow: neither the
        # file nor its temporary is left behind
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, *argv, "-o", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_io_error_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "--c", "1", "--d", "0", "--k", "1",
                           "-o", str(tmp_path / "missing" / "t.csv"))
        assert code == 3
        assert "error:" in err


class TestFlagsReachTheLibrary:
    # case b, the mirrored theta0 and a negative c0 on a profile with c > 1,
    # whose arc-length-feasible window clips [0, 5] to about [0, 0.571]
    COEFFS = ("--c", "2", "--d", "0.5", "--k", "1")
    MAP_FLAGS = ("--case", "b", "--theta0-branch", "mirror", "--c0", "-0.7")
    WINDOW = ("--u0", "0", "--u1", "5")

    @pytest.fixture
    def inputs(self):
        p = make_quadratic_profile(2, 0.5, 1)
        params = make_projection_params(p, c0=-0.7, branch=Branch.CASE_B, mirror_theta0=True)
        window = admissible_interval(p, DomainInterval(0.0, 5.0))
        assert window.hi < 1.0
        return p, params, window

    def test_project(self, capsys, inputs):
        p, params, _ = inputs
        code, out, _ = run(capsys, "project", *self.COEFFS, *self.MAP_FLAGS, "--t", "0.4", "--u", "0.3")
        q = project(p, params, SurfacePoint(0.4, 0.3))
        assert (code, out) == (0, "%.12g %.12g\n" % (q.x + 0.0, q.y + 0.0))

    def test_verify(self, capsys, inputs):
        p, params, _ = inputs
        code, out, _ = run(capsys, "verify", *self.COEFFS, *self.MAP_FLAGS, "--grid", "9x7", "--seed", "4")
        reports = verify_report(p, params, (9, 7), 1e-5, 4)
        rows = ["%-42s %12.3e %12.3e %9.0e  %s" % (rep.identity_name, rep.max_abs_residual, rep.mean_abs_residual,
                                                    rep.bound, "pass" if rep.passed else "FAIL") for rep in reports]
        assert out.splitlines()[1:-1] == rows
        assert code == (0 if all(rep.passed for rep in reports) else 1)

    def test_export_graticule(self, capsys, tmp_path, inputs):
        p, params, window = inputs
        code, _, err = run(capsys, "export-graticule", *self.COEFFS, *self.MAP_FLAGS, *self.WINDOW,
                           "--samples", "11", "-o", str(tmp_path / "cli.svg"))
        assert code == 0, err
        spec = GraticuleSpec(t_range=(0.0, math.pi), u_range=window, samples_per_curve=11)
        export_graticule_svg(p, params, spec, str(tmp_path / "lib.svg"))
        assert (tmp_path / "cli.svg").read_bytes() == (tmp_path / "lib.svg").read_bytes()

    def test_table(self, capsys, tmp_path, inputs):
        p, params, window = inputs
        code, _, err = run(capsys, "table", *self.COEFFS, *self.MAP_FLAGS, *self.WINDOW, "--t0", "-1", "--t1", "2",
                           "--grid", "4x6", "-o", str(tmp_path / "cli.csv"))
        assert code == 0, err
        t, u = np.meshgrid(np.linspace(-1.0, 2.0, 4), np.linspace(window.lo, window.hi, 6), indexing="ij")
        sample_table_csv(p, params, np.stack((t.ravel(), u.ravel()), axis=-1), str(tmp_path / "lib.csv"))
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_export_mesh_window_and_default_anchor(self, capsys, tmp_path, inputs):
        p, _, window = inputs
        code, _, err = run(capsys, "export-mesh", *self.COEFFS, *self.WINDOW, "--t-div", "12", "--u-div", "5",
                           "-o", str(tmp_path / "cli.obj"))
        assert code == 0, err
        export_mesh_obj(p, MeshSpec(12, 5, window, window.lo), str(tmp_path / "lib.obj"))
        assert (tmp_path / "cli.obj").read_bytes() == (tmp_path / "lib.obj").read_bytes()


class TestFlagGroups:
    @pytest.mark.parametrize("argv", [
        ("project", "--t", "0", "--u", "1"),
        ("verify",),
        ("export-graticule", "-o", "g.svg"),
        ("export-mesh", "-o", "m.obj"),
        ("table", "-o", "t.csv"),
    ])
    def test_coefficients_are_required(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.rstrip().endswith("the following arguments are required: --c, --d, --k")

    def test_export_mesh_takes_no_map_flags(self, capsys, tmp_path):
        code, _, err = run(capsys, "export-mesh", "--c", "1", "--d", "0", "--k", "1", "--case", "a",
                           "-o", str(tmp_path / "m.obj"))
        assert code == 2
        assert "unrecognized arguments: --case a" in err
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "project", "--c", "1", "--d", "0")
        assert code == 2

    def test_invalid_float(self, capsys):
        code, _, err = run(capsys, "project", "--c", "x", "--d", "0", "--k", "1",
                           "--t", "0", "--u", "1")
        assert code == 2
        assert "--c" in err

    def test_bad_grid_shape(self, capsys):
        code, _, err = run(capsys, "verify", "--c", "1", "--d", "0", "--k", "1", "--grid", "50")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_rejected_profile_is_usage_error(self, capsys):
        code, _, err = run(capsys, "project", "--c", "1", "--d", "2", "--k", "1",
                           "--t", "0", "--u", "1")
        assert code == 2
        assert "discriminant" in err

    @pytest.mark.parametrize("argv", [
        ("export-mesh", "--c", "1", "--d", "0", "--k", "1", "--u-ref", "nan"),
        ("export-mesh", "--c", "1", "--d", "0", "--k", "1", "--u1", "inf"),
        ("table", "--c", "1", "--d", "0", "--k", "1", "--t1", "nan"),
        ("table", "--c", "1", "--d", "0", "--k", "1", "--c0", "inf"),
        ("table", "--c", "1", "--d", "0", "--k", "1", "--t0", "-inf"),
        ("export-graticule", "--c", "1", "--d", "0", "--k", "1", "--t1", "inf"),
        ("export-graticule", "--c", "nan", "--d", "0", "--k", "1"),
        ("export-graticule", "--c", "1", "--d", "0", "--k", "1", "--u0", "-nan"),
    ])
    def test_nonfinite_float_flag_writes_nothing(self, capsys, tmp_path, argv):
        out_path = tmp_path / "out"
        code, out, err = run(capsys, *argv, "-o", str(out_path))
        assert code == 2
        assert out == ""
        assert "finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--t", "nan"), ("--u", "inf"), ("--k", "-inf"), ("--c0", "nan")])
    def test_nonfinite_project_flag_is_usage_error(self, capsys, flag, value):
        argv = {"--c": "1", "--d": "0", "--k": "1", "--t": "0", "--u": "1", flag: value}
        code, out, err = run(capsys, "project", *(token for item in argv.items() for token in item))
        assert code == 2
        assert out == ""
        assert flag in err and "finite" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0


class TestParserCache:
    SEQUENCE = [
        ("verify", "--c", "1", "--d", "0.5", "--k", "2", "--seed", "7"),
        ("verify", "--c", "1", "--d", "0.5", "--k", "2", "--grid", "1x1"),
        ("verify", "--c", "1", "--d", "0.5", "--k", "2"),
    ]

    def test_parser_is_built_once(self):
        assert cli_mod._build_parser() is cli_mod._build_parser()

    def test_reused_parser_prints_what_a_fresh_one_prints(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            cli_mod._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        reused = [run(capsys, *argv) for argv in self.SEQUENCE]
        assert [code for code, _, _ in fresh] == [0, 2, 0]
        assert reused == fresh
