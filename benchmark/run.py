"""revproj benchmark: one closed-loop caller in one process, four workloads.

    python3 benchmark/run.py --workload certify --seed 1 --seconds 50 --trace 0
    python3 benchmark/run.py --workload all

Run from the root of a checkout.  The seed makes every input; revproj only
receives the generated inputs.  A run is split into PROBES segments.  Each
segment starts one fresh interpreter that produces the workload's first
result (``setup_s``; with --trace 1 the same under ``-X importtime``), then
repeats whole rounds of the workload's rotation for its share of --seconds.
Only the call into revproj is timed; input generation and the check of each
output against ``reference`` stay outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, reports the per-layer metrics and writes the spans to
benchmark/out/.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("certify", "classify", "emit", "roundtrip")

# Fresh-interpreter samples per run, spread over the run: single cold starts
# on a shared 2-core machine vary by ~10%, so report their median.
PROBES = 5
# op_tail_ms is p90, which needs at least ten ops beyond it.
TAIL_PERCENTILE = 90
MIN_OPS = 100
PROBE_TIMEOUT_S = 60


def percentile(values, pct):
    return statistics.quantiles(values, n=100)[pct - 1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_probe(spec, importtime=False):
    """(wall seconds, importtime stderr or None, exit code) of one fresh
    interpreter producing one result of the workload's kind."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.join(HERE, "probe.py"), json.dumps(spec)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - start, proc.stderr if importtime else None, proc.returncode


def import_breakdown(stderr):
    """Cumulative ms of the outermost numpy, scipy and revproj imports in a
    ``-X importtime`` log.  The log is post-order, so walk it backwards."""
    totals = {"numpy": 0.0, "scipy": 0.0, "revproj": 0.0}
    stack = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        module = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = module.split(".")[0]
        if top in totals and not any(outer == top for _, outer in stack):
            totals[top] += int(cumulative_us) / 1e3
        stack.append((depth, top))
    return totals


class Tally:
    """Ops attempted and failed.  A failed op is correct only if its case
    names a known fault of revproj."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, case, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if case.known_fault is None:
                self.unexpected.append("%s %s" % (case.label, detail))


def run_round(cases, latencies, tally, tracer=None):
    for case in cases:
        if tracer is not None:
            tracer.op_id = tally.attempted
        elapsed = None
        start = time.perf_counter()
        try:
            result = case.run()
            elapsed = time.perf_counter() - start
            ok, detail = case.check(result), ""
        except Exception as exc:  # a raising op or check is a failed op; the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            ok, detail = False, "raised %r" % exc
        latencies.append(elapsed)
        tally.record(case, ok, detail)


def layer_metrics(tracer, ops, overhead_ms, imports):
    stats = tracer.by_name()

    def per_op(name, field):
        return stats[name][field] / ops if name in stats else 0.0

    def ms(name):
        return per_op(name, 1) * 1e3

    def self_ms(name):
        return per_op(name, 2) * 1e3

    invert_calls = stats["projection.invert"][0] if "projection.invert" in stats else 0
    inner = tracer.calls_from("projection.project", "projection.invert")
    values = {
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.scipy_ms": (imports["scipy"], "ms"),
        "import.revproj_ms": (imports["revproj"], "ms"),
        "cli.self_ms": (self_ms("cli.dispatch"), "ms"),
        "profile.profile_jet.calls": (per_op("profile.profile_jet", 0), "count"),
        "profile.profile_jet.self_ms": (self_ms("profile.profile_jet"), "ms"),
        "profile.eval_g.calls": (per_op("profile.eval_g", 0), "count"),
        "profile.eval_g.ms": (ms("profile.eval_g"), "ms"),
        "profile.from_table.ms": (ms("profile.from_table"), "ms"),
        "profile.table_eval.calls": (per_op("profile.table_eval", 0), "count"),
        "profile.table_eval.ms": (ms("profile.table_eval"), "ms"),
        "projection.project.calls": (per_op("projection.project", 0), "count"),
        "projection.project.self_ms": (self_ms("projection.project"), "ms"),
        "projection.jacobian.calls": (per_op("projection.jacobian", 0), "count"),
        "projection.jacobian.self_ms": (self_ms("projection.jacobian"), "ms"),
        "projection.invert.calls": (per_op("projection.invert", 0), "count"),
        "projection.invert.self_ms": (self_ms("projection.invert"), "ms"),
        "projection.invert.project_per_call": (inner / invert_calls if invert_calls else 0.0, "count"),
        "verifier.isometry_fd.ms": (ms("verifier.isometry_fd"), "ms"),
        "verifier.isometry_analytic.ms": (ms("verifier.isometry_analytic"), "ms"),
        "verifier.straightness.ms": (ms("verifier.straightness"), "ms"),
        "verifier.structural.ms": (ms("verifier.structural"), "ms"),
        "verifier.ode_oracle.ms": (ms("verifier.ode_oracle"), "ms"),
        "verifier.classifier.self_ms": (self_ms("verifier.classifier"), "ms"),
        "export.mesh.self_ms": (self_ms("export.mesh"), "ms"),
        "export.graticule.self_ms": (self_ms("export.graticule"), "ms"),
        "export.table.self_ms": (self_ms("export.table"), "ms"),
        "export.format.calls": (per_op("export.format", 0), "count"),
        "export.format.ms": (ms("export.format"), "ms"),
        "export.write.ms": (ms("export.write"), "ms"),
        "export.bytes": (tracer.bytes_written / ops, "B"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_workload(name, seed, seconds, trace):
    import numpy as np
    import revproj
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        cases = WORKLOADS[name](revproj, np.random.default_rng(seed), workdir)
        tally, warmup = Tally(), Tally()
        run_round(cases, [], warmup)  # first-call costs are setup_s's, not the ops'
        plain, traced, probe_times, imports = [], [], [], []
        tracer = Tracer() if trace else None
        for segment in range(PROBES):
            wall, log, code = run_probe(cases[0].probe, importtime=trace)
            if code != 0:
                tally.unexpected.append("fresh-interpreter probe exited %d" % code)
            probe_times.append(wall)
            if trace:
                imports.append(import_breakdown(log))
            end = time.perf_counter() + seconds / PROBES
            last = segment == PROBES - 1
            while time.perf_counter() < end or (last and not trace and len(plain) < MIN_OPS):
                run_round(cases, plain, tally)
                if trace:
                    tracer.install()
                    try:
                        run_round(cases, traced, tally, tracer)
                    finally:
                        tracer.uninstall()
        tally.unexpected += warmup.unexpected
        if trace:
            overhead = (statistics.median(traced) - statistics.median(plain)) * 1e3
            median_imports = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
            metrics = layer_metrics(tracer, len(traced), overhead, median_imports)
            tracer.dump(os.path.join(OUT, "trace-%s-seed%d.json" % (name, seed)))
        else:
            metrics = {
                "setup_s": {"value": statistics.median(probe_times), "unit": "s"},
                "ops_per_s": {"value": len(plain) / sum(plain), "unit": "op/s"},
                "op_p50_ms": {"value": statistics.median(plain) * 1e3, "unit": "ms"},
                "op_tail_ms": {"value": percentile(plain, TAIL_PERCENTILE) * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.unexpected[:10]:
        print("unexpected failure: %s" % problem, file=sys.stderr)
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own process, so peak_rss_mb stays its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, metric)] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "revproj", "__init__.py")):
        print("error: no revproj sources under %s; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import revproj

    if not os.path.abspath(revproj.__file__).startswith(SRC + os.sep):
        print("error: imported revproj from %s, not from %s" % (revproj.__file__, SRC), file=sys.stderr)
        return 2

    result = run_all(args) if args.workload == "all" else run_workload(
        args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        print("error: a workload run failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(result, fh, indent=1)
    print("%s seed %d: %d ops attempted, %d failed, correct %s"
          % (args.workload, args.seed, result["attempted"], result["failed"], result["correct"]))
    for metric, entry in result["metrics"].items():
        print("  %-40s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
