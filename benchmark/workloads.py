"""The four workloads: seeded inputs, the timed call into revproj, and the
check of every output against ``reference`` (never against stored output).

Each workload is a rotation of ``Case`` objects.  A run repeats whole
rounds of the rotation, so every case is timed equally often and the share
of failed ops is the same in every run.  Every case of one workload does the
same kind and amount of work, so the latency median never sits between two
cost modes.  Two cases are known to fail on fixed, seed-independent inputs
because of faults in revproj; they carry ``known_fault`` and are counted as
failed.  If the fault is fixed they pass with no change here.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref

CERTIFY_GRID = "64x64"
# emit ops last ~0.2 s: long enough that one op averages over the shared
# machine's speed swings, so the run's median moves with its mean
EMIT_MESH = (192, 96)
EMIT_GRATICULE = (13, 7, 96)
EMIT_TABLE = (24, 24)
CLASSIFY_ROWS = 201
ROUNDTRIP_POINTS = 64

# An emitted coordinate must equal the complex form to this share of
# (1 + |Phi|).  Over 2,000 random parameter sets the two forms differ by at
# most ~3e-15 of it.
MAP_TOL = 1e-12
# Mesh heights: revproj integrates with quad at epsabs 1e-12 against the
# reference's Gauss-Legendre rule.
HEIGHT_TOL = 1e-9
# Fitted (c, d, k) from a 201-row table must match the generating
# coefficients to this share of max(1, |c|, |d|, |k|).  The classifier fits
# through a monotone cubic interpolant of the table; over 200 seeds the
# fitted coefficients were within 2.6e-7 of it.
FIT_TOL = 1e-5
# invert stops at |Phi(t, u) - q| <= 1e-10; with |dPhi/du| = 1 and
# |dPhi/dt| = f >= ~0.3 the recovered point is within ~3e-10 of the original.
ROUNDTRIP_TOL = 1e-8

FAULT_FD_TOLERANCE = (
    "verify: fixed 1e-8 fd_isometry tolerance (cli.py VERIFY_TOLERANCES) fails "
    "both finite-difference rows on the admissible profile c=1 d=0 k=1e6"
)
FAULT_CLASSIFIER_SCALE = (
    "classify: max(1, sup f^2) normalization (verifier.py existence_classifier) "
    "lets the lambda=50 pseudosphere pass the residual gate, so it prints exists: true"
)


@dataclass
class Case:
    """One input of a workload's rotation.

    ``run`` is the timed call into revproj; ``check`` returns True when its
    result agrees with the reference.  ``probe`` describes the same call for
    a fresh interpreter (see probe.py)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    probe: dict
    known_fault: Optional[str] = None


def fmt(x) -> str:
    return repr(float(x))


def label(c, case, mirror):
    return "c=%.3g case %s%s" % (c, case, " mirror" if mirror else "")


def cli_call(revproj, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = revproj.cli.cli_dispatch(argv)
    return rc, out.getvalue(), err.getvalue()


def close(a, b, tol) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


# --- seeded admissible profiles --------------------------------------------


def profile_below_one(rng):
    """c < 1: the slope stays feasible on every u, so any window works."""
    c = rng.uniform(0.3, 0.95)
    k = rng.uniform(0.5, 3.0)
    d = rng.uniform(-0.8, 0.8) * 2.0 * math.sqrt(c * k)
    return c, d, k


def profile_above_one(rng):
    """c > 1 with sqrt(-delta) = 4.8 c sqrt(c - 1), so the feasible window
    has half width 2.4 and verify's default chart (0.1 to 0.85 of it) spans
    1.8, the same as for c <= 1: every certify op does the same work."""
    c = rng.uniform(1.5, 3.0)
    neg_delta = (4.8 * c * math.sqrt(c - 1.0)) ** 2
    d = rng.uniform(-2.0, 2.0)
    k = (d * d + neg_delta) / (4.0 * c)
    return c, d, k


def chart(rng, c, d, k):
    """A u-window on the upper side of u*, inside the open feasible window."""
    us = ref.singular_u(c, d)
    half = ref.feasible_half_width(c, d, k)
    if math.isinf(half):
        lo = us + rng.uniform(0.1, 0.4)
        return lo, lo + rng.uniform(1.5, 2.5)
    return us + rng.uniform(0.1, 0.2) * half, us + rng.uniform(0.75, 0.85) * half


# both branches, mirrored and principal theta0, c < 1 and c > 1
BRANCH_SPECS = ((profile_below_one, "a", False), (profile_below_one, "b", True),
                (profile_above_one, "a", True), (profile_above_one, "b", False))


def profile_flags(c, d, k):
    return ["--c", fmt(c), "--d", fmt(d), "--k", fmt(k)]


def param_flags(c0, case, mirror):
    return ["--c0", fmt(c0), "--case", case, "--theta0-branch", "mirror" if mirror else "principal"]


# --- certify ----------------------------------------------------------------

VERIFY_ROWS = 10


def check_verify(result) -> bool:
    """The theorem says every admissible profile passes every row."""
    rc, out, _ = result
    lines = out.strip().splitlines()
    rows = lines[1:-1]
    return (
        rc == 0
        and len(rows) == VERIFY_ROWS
        and all(row.split()[-1] == "pass" for row in rows)
        and lines[-1] == "overall: pass"
    )


def admissible(coeffs):
    """Generated certify profiles are admissible; the theorem then says
    verify must pass, so anything else here is a fault of the generator."""
    if not ref.map_exists("quadratic", coeffs):
        raise ValueError("generated profile %r is not admissible" % (coeffs,))
    return coeffs


def certify_cases(revproj, rng, workdir):
    specs = [
        (profile_below_one(rng), "a", False),
        (profile_below_one(rng), "b", True),
        (profile_above_one(rng), "a", True),
        (profile_above_one(rng), "b", False),
        (profile_below_one(rng), "b", False),
    ]
    cases = []
    for coeffs, case, mirror in specs:
        c, d, k = admissible(coeffs)
        argv = (["verify"] + profile_flags(c, d, k) + param_flags(rng.uniform(-math.pi, math.pi), case, mirror)
                + ["--grid", CERTIFY_GRID, "--seed", str(int(rng.integers(2**31)))])
        cases.append(Case(label(c, case, mirror), run=lambda argv=argv: cli_call(revproj, argv), check=check_verify,
                          probe={"cli": [argv], "expect": [0]}))
    argv = ["verify", "--c", "1", "--d", "0", "--k", "1e6", "--grid", CERTIFY_GRID]
    cases.append(Case("c=1 d=0 k=1e6", run=lambda: cli_call(revproj, argv), check=check_verify,
                      probe={"cli": [argv], "expect": [1]}, known_fault=FAULT_FD_TOLERANCE))
    return cases


# --- classify ---------------------------------------------------------------

FITTED = re.compile(r"^fitted: c=(\S+) d=(\S+) k=(\S+)$", re.M)


def write_table(path, fn, lo, hi):
    u = np.linspace(lo, hi, CLASSIFY_ROWS)
    with open(path, "w") as handle:
        handle.write("u,f\n")
        handle.writelines("%r,%r\n" % (float(a), float(b)) for a, b in zip(u, fn(u)))


def classify_check(expected, coeffs):
    def check(result):
        rc, out, _ = result
        if rc != (0 if expected else 1) or not out.startswith("exists: %s\n" % ("true" if expected else "false")):
            return False
        if coeffs is None:
            return True
        match = FITTED.search(out)
        if match is None:
            return False
        # printed with %.9g, so compare at that precision at best
        scale = max(1.0, *(abs(v) for v in coeffs))
        return all(abs(float(g) - v) <= FIT_TOL * scale for g, v in zip(match.groups(), coeffs))
    return check


def classify_cases(revproj, rng, workdir):
    r = rng.uniform(0.7, 1.5)
    sphere_lo = r * rng.uniform(0.15, 0.3)
    quad_a = profile_below_one(rng)
    quad_b = profile_above_one(rng)
    tables = [
        ("sphere R=%.3g" % r, "sphere", None, ref.sphere(r), (sphere_lo, sphere_lo + r * rng.uniform(0.8, 1.1)), None),
        ("pseudosphere lambda=1", "pseudosphere", None, ref.pseudosphere(1.0), (-1.0, -0.5), None),
        ("pseudosphere lambda=50", "pseudosphere", None, ref.pseudosphere(50.0), (-50.0, -25.0),
         FAULT_CLASSIFIER_SCALE),
        ("quadratic c=%.3g" % quad_a[0], "quadratic", quad_a, ref.quadratic(*quad_a), chart(rng, *quad_a), None),
        ("quadratic c=%.3g" % quad_b[0], "quadratic", quad_b, ref.quadratic(*quad_b), chart(rng, *quad_b), None),
    ]
    cases = []
    for i, (label, kind, coeffs, fn, (lo, hi), fault) in enumerate(tables):
        path = os.path.join(workdir, "profile%d.csv" % i)
        write_table(path, fn, lo, hi)
        expected = ref.map_exists(kind, coeffs, (lo, hi))
        argv = ["classify", "--profile", "csv:" + path]
        cases.append(Case(label, run=lambda argv=argv: cli_call(revproj, argv),
                          check=classify_check(expected, coeffs if expected else None),
                          probe={"cli": [argv], "expect": [0 if expected else 1]}, known_fault=fault))
    return cases


# --- emit -------------------------------------------------------------------

POLYLINE = re.compile(r'<polyline points="([^"]*)"')


def parse_points(text):
    return np.array([[float(v) for v in pair.split(",")] for pair in text.split()])


def emit_check(c, d, k, c0, case, mirror, t_range, u_range, outdir, names):
    mesh_path, svg_path, table_path = (os.path.join(outdir, n) for n in names)
    lo, hi = u_range
    t0, t1 = t_range

    def screen(t, u):
        z = ref.plane_map(c, d, k, t, u, c0, case, mirror)
        return np.stack([z.real, -z.imag], axis=-1)

    def check_mesh():
        nt, nu = EMIT_MESH
        with open(mesh_path) as handle:
            lines = handle.read().splitlines()
        vertices = [line[2:] for line in lines if line.startswith("v ")]
        faces = [line[2:] for line in lines if line.startswith("f ")]
        if len(vertices) != nt * nu or len(faces) != nt * (nu - 1) or len(lines) != len(vertices) + len(faces):
            return False
        v = np.array(" ".join(vertices).split(), dtype=float).reshape(nt, nu, 3)
        f = np.array(" ".join(faces).split(), dtype=np.int64)
        if f.size != 4 * len(faces) or f.min() < 1 or f.max() > nt * nu:
            return False
        t = 2.0 * math.pi * np.arange(nt) / nt
        u = np.linspace(lo, hi, nu)
        rad = ref.radius(c, d, k, u)
        expect_xy = np.stack([rad[None, :] * np.cos(t)[:, None], rad[None, :] * np.sin(t)[:, None]], axis=-1)
        g = ref.height(c, d, k, u, lo)
        return close(v[..., :2], expect_xy, MAP_TOL) and close(v[..., 2], np.broadcast_to(g, (nt, nu)), HEIGHT_TOL)

    def check_graticule():
        n_mer, n_par, samples = EMIT_GRATICULE
        with open(svg_path) as handle:
            lines = [parse_points(m) for m in POLYLINE.findall(handle.read())]
        if len(lines) != n_mer + n_par:
            return False
        t_mer = np.linspace(t0, t1, n_mer)
        meridians = np.array(lines[:n_mer])
        if meridians.shape != (n_mer, 2, 2):
            return False
        expect = np.stack([screen(t_mer, lo), screen(t_mer, hi)], axis=1)
        t_s = np.linspace(t0, t1, samples)
        parallels = np.array(lines[n_mer:]) if all(len(p) == samples for p in lines[n_mer:]) else None
        return (close(meridians, expect, MAP_TOL) and parallels is not None
                and close(parallels, screen(t_s[None, :], np.linspace(lo, hi, n_par)[:, None]), MAP_TOL))

    def check_table():
        nt, nu = EMIT_TABLE
        with open(table_path) as handle:
            header = handle.readline().strip()
            rows = np.array([line.split(",") for line in handle.read().split()], dtype=float)
        if header != "t,u,x,y" or rows.shape != (nt * nu, 4):
            return False
        tt, uu = np.meshgrid(np.linspace(t0, t1, nt), np.linspace(lo, hi, nu), indexing="ij")
        z = ref.plane_map(c, d, k, rows[:, 0], rows[:, 1], c0, case, mirror)
        return (close(rows[:, 0], tt.ravel(), MAP_TOL) and close(rows[:, 1], uu.ravel(), MAP_TOL)
                and close(rows[:, 2], z.real, MAP_TOL) and close(rows[:, 3], z.imag, MAP_TOL))

    def check(result):
        ok = all(rc == 0 for rc, _, _ in result)
        ok = ok and sorted(os.listdir(outdir)) == sorted(names)
        ok = ok and check_mesh() and check_graticule() and check_table()
        for name in os.listdir(outdir):
            os.unlink(os.path.join(outdir, name))
        return ok

    return check


def emit_argvs(c, d, k, c0, case, mirror, t_range, u_range, outdir, names):
    u_flags = ["--u0", fmt(u_range[0]), "--u1", fmt(u_range[1])]
    t_flags = ["--t0", fmt(t_range[0]), "--t1", fmt(t_range[1])]
    params = param_flags(c0, case, mirror)
    return [
        ["export-mesh"] + profile_flags(c, d, k) + u_flags
        + ["--t-div", str(EMIT_MESH[0]), "--u-div", str(EMIT_MESH[1]), "-o", os.path.join(outdir, names[0])],
        ["export-graticule"] + profile_flags(c, d, k) + params + t_flags + u_flags
        + ["--meridians", str(EMIT_GRATICULE[0]), "--parallels", str(EMIT_GRATICULE[1]),
           "--samples", str(EMIT_GRATICULE[2]), "-o", os.path.join(outdir, names[1])],
        ["table"] + profile_flags(c, d, k) + params + t_flags + u_flags
        + ["--grid", "%dx%d" % EMIT_TABLE, "-o", os.path.join(outdir, names[2])],
    ]


def emit_cases(revproj, rng, workdir):
    names = ("surface.obj", "graticule.svg", "samples.csv")
    outdir = os.path.join(workdir, "emit")
    os.makedirs(outdir)
    cases = []
    for make, case, mirror in BRANCH_SPECS:
        c, d, k = make(rng)
        c0 = rng.uniform(-math.pi, math.pi)
        t_lo = rng.uniform(-1.0, 1.0)
        args = (c, d, k, c0, case, mirror, (t_lo, t_lo + rng.uniform(1.0, 3.0)), chart(rng, c, d, k))
        argvs = emit_argvs(*args, outdir, names)
        probe_argvs = emit_argvs(*args, os.path.join(workdir, "probe"), names)
        cases.append(Case(label(c, case, mirror), run=lambda argvs=argvs: [cli_call(revproj, a) for a in argvs],
                          check=emit_check(*args, outdir, names),
                          probe={"cli": probe_argvs, "expect": [0, 0, 0]}))
    os.makedirs(os.path.join(workdir, "probe"))
    return cases


# --- roundtrip --------------------------------------------------------------


def roundtrip_cases(revproj, rng, workdir):
    cases = []
    for make, case, mirror in BRANCH_SPECS:
        c, d, k = make(rng)
        c0 = rng.uniform(-math.pi, math.pi)
        side = rng.choice([-1.0, 1.0], size=ROUNDTRIP_POINTS)
        t = rng.uniform(0.0, ref.period(c), size=ROUNDTRIP_POINTS)
        u = ref.singular_u(c, d) + side * rng.uniform(0.3, 1.5, size=ROUNDTRIP_POINTS)
        t_guess = t + rng.uniform(-1e-2, 1e-2, size=ROUNDTRIP_POINTS)
        u_guess = u + rng.uniform(-1e-2, 1e-2, size=ROUNDTRIP_POINTS)
        p = revproj.make_quadratic_profile(c, d, k)
        params = revproj.make_projection_params(
            p, c0=c0, branch=revproj.Branch.CASE_A if case == "a" else revproj.Branch.CASE_B,
            mirror_theta0=mirror)
        points = [revproj.SurfacePoint(float(a), float(b)) for a, b in zip(t, u)]
        guesses = [revproj.SurfacePoint(float(a), float(b)) for a, b in zip(t_guess, u_guess)]

        def run(p=p, params=params, points=points, guesses=guesses):
            out = []
            for pt, guess in zip(points, guesses):
                q = revproj.project(p, params, pt)
                out.append((q, revproj.invert(p, params, q, guess)))
            return out

        def check(result, c=c, d=d, k=k, c0=c0, case=case, mirror=mirror, t=t, u=u):
            z = ref.plane_map(c, d, k, t, u, c0, case, mirror)
            q = np.array([[r[0].x, r[0].y] for r in result])
            back = np.array([[r[1].t, r[1].u] for r in result])
            per = ref.period(c)
            dt = (back[:, 0] - t + 0.5 * per) % per - 0.5 * per
            return (close(q[:, 0], z.real, MAP_TOL) and close(q[:, 1], z.imag, MAP_TOL)
                    and bool(np.all(np.abs(dt) <= ROUNDTRIP_TOL))
                    and bool(np.all(np.abs(back[:, 1] - u) <= ROUNDTRIP_TOL)))

        cases.append(Case(label(c, case, mirror), run=run, check=check,
                          probe={"roundtrip": {"c": c, "d": d, "k": k, "c0": c0, "case": case, "mirror": mirror,
                                               "points": [[a, b] for a, b in zip(t, u)],
                                               "guesses": [[a, b] for a, b in zip(t_guess, u_guess)]}}))
    return cases


WORKLOADS = {
    "certify": certify_cases,
    "classify": classify_cases,
    "emit": emit_cases,
    "roundtrip": roundtrip_cases,
}
