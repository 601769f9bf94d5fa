"""Re-measure the cases of the ROADMAP Baseline table, untraced and traced.

    python3 benchmark/baseline.py

Run from the root of a checkout.  Each untraced figure is the median of a
few repeats; the traced columns split the same call into revproj's layers
with the benchmark's tracer.  Prints a markdown table and the versions.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import tempfile
import time

import run
from tracing import Tracer

sys.path.insert(0, run.SRC)
import numpy as np  # noqa: E402
import revproj  # noqa: E402
import scipy  # noqa: E402
from workloads import cli_call  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.by_name()


def main():
    p = revproj.make_quadratic_profile(1.0, 0.0, 1.0)
    params = revproj.make_projection_params(p)
    span = revproj.reference_interval(p)
    pt = revproj.SurfacePoint(0.3, 1.0)
    q = revproj.project(p, params, pt)
    guess = revproj.SurfacePoint(0.31, 1.01)
    rows = []

    n = 20000
    rows.append(("`project`, one scalar call", "%.2f us" % (timed(lambda: [revproj.project(p, params, pt)
                                                                          for _ in range(n)], 5) / n * 1e6), ""))
    n = 2000
    per_invert = timed(lambda: [revproj.invert(p, params, q, guess) for _ in range(n)], 5) / n
    stats = traced(lambda: [revproj.invert(p, params, q, guess) for _ in range(n)])
    rows.append(("`invert` (Newton)", "%.1f us" % (per_invert * 1e6),
                 "%.1f project calls per invert" % (stats["projection.project"][0] / n)))
    for label, step in (("finite differences", 1e-5), ("analytic", 0.0)):
        t = timed(lambda: revproj.check_local_isometry(p, params, span, nt=50, nu=50, fd_step=step), 5)
        rows.append(("`check_local_isometry` 50x50, %s" % label, "%.1f ms" % (t * 1e3), ""))
    t = timed(lambda: revproj.check_local_isometry(p, params, span, nt=200, nu=200, fd_step=1e-5), 3)
    rows.append(("`check_local_isometry` 200x200, finite differences", "%.2f s" % t, ""))
    for grid, repeats in (("50x50", 5), ("300x300", 3)):
        argv = ["verify", "--c", "1", "--d", "0", "--k", "1", "--grid", grid]
        t = timed(lambda: cli_call(revproj, argv), repeats)
        stats = traced(lambda: cli_call(revproj, argv))
        split = ", ".join("%s %.0f ms" % (name.split(".")[1], stats[name][1] * 1e3) for name in (
            "verifier.isometry_fd", "verifier.isometry_analytic", "verifier.ode_oracle", "verifier.structural"))
        rows.append(("`revproj verify`, in-process, grid %s" % grid, "%.3f s" % t, "traced: " + split))
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        path = os.path.join(tmp, "mesh.obj")
        spec = revproj.MeshSpec(t_divisions=512, u_divisions=512, u_range=revproj.DomainInterval(0.05, 2.0),
                                u_ref=0.05)
        t = timed(lambda: revproj.export_mesh_obj(p, spec, path), 3)
        size = os.path.getsize(path)
        stats = traced(lambda: revproj.export_mesh_obj(p, spec, path))
        rows.append(("`export_mesh_obj` 512x512 (%.0f MB)" % (size / 1e6), "%.2f s" % t,
                     "traced: format %.2f s, write %.2f s, self %.2f s" % (
                         stats["export.format"][1], stats["export.write"][1], stats["export.mesh"][2])))
    probes = [run.run_probe({"cli": [], "expect": []}, importtime=True) for _ in range(5)]
    imports = [run.import_breakdown(log) for _, log, _ in probes]
    rows.append(("`import revproj`", "%.2f s" % (statistics.median(m["revproj"] for m in imports) / 1e3),
                 "of which scipy %.2f s, numpy %.2f s (`-X importtime`)" % (
                     statistics.median(m["scipy"] for m in imports) / 1e3,
                     statistics.median(m["numpy"] for m in imports) / 1e3)))
    project_cmd = {"cli": [["project", "--c", "1", "--d", "0", "--k", "1", "--t", "0", "--u", "1"]], "expect": [0]}
    wall = statistics.median(run.run_probe(project_cmd)[0] for _ in range(5))
    rows.append(("`revproj project`, whole process", "%.2f s" % wall, ""))

    print("| case | time | layers |\n|---|---|---|")
    for row in rows:
        print("| %s | %s | %s |" % row)
    print("\n%s, %d cores, Python %s, numpy %s, scipy %s" % (
        platform.processor() or platform.machine(), os.cpu_count(), platform.python_version(),
        np.__version__, scipy.__version__))


if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    main()
