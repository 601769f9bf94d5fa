"""One op of a workload in a fresh interpreter, for ``setup_s`` and the
import breakdown.  It imports only the standard library and revproj, so its
wall time is what a shell user pays for a first result.

    python3 benchmark/probe.py '<json spec>'

The spec is {"cli": [argv, ...], "expect": [exit code, ...]} or
{"roundtrip": {c, d, k, c0, case, mirror, points, guesses}}.  Exits 0 when
every call returned what the spec expects, 1 otherwise.
"""

import contextlib
import io
import json
import sys


def main() -> int:
    spec = json.loads(sys.argv[1])
    import revproj

    if "cli" in spec:
        codes = []
        for argv in spec["cli"]:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(revproj.cli.cli_dispatch(argv))
        return 0 if codes == spec["expect"] else 1
    rt = spec["roundtrip"]
    p = revproj.make_quadratic_profile(rt["c"], rt["d"], rt["k"])
    branch = revproj.Branch.CASE_A if rt["case"] == "a" else revproj.Branch.CASE_B
    params = revproj.make_projection_params(p, c0=rt["c0"], branch=branch, mirror_theta0=rt["mirror"])
    worst = 0.0
    for (t, u), (tg, ug) in zip(rt["points"], rt["guesses"]):
        q = revproj.project(p, params, revproj.SurfacePoint(t, u))
        back = revproj.invert(p, params, q, revproj.SurfacePoint(tg, ug))
        worst = max(worst, abs(back.u - u))
    return 0 if worst <= 1e-8 else 1


if __name__ == "__main__":
    sys.exit(main())
