"""Command line interface.

Subcommands: ``project`` (one point through the map), ``verify`` (residual
table over all identity checks, exit 0 iff every check passes), ``classify``
(existence verdict for a named, quadratic or CSV profile), and the emitters
``export-graticule``, ``export-mesh``, ``table``.

Exit codes: 0 success/pass, 1 check failure or non-existence verdict,
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys

import numpy as np

from . import verifier
from .errors import IoFailure, RevprojError
from .export import GraticuleSpec, MeshSpec, export_graticule_svg, export_mesh_obj, sample_table_csv
from .profile import (
    DomainInterval,
    GeneralProfile,
    SurfacePoint,
    TableRowError,
    admissible_interval,
    make_quadratic_profile,
    reference_interval,
)
from .projection import Branch, _default_t_window, make_projection_params, project


def _finite_float(text):
    """The type of every float flag: a number, but not nan or +-inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return value


def _inputs(args):
    """The profile, map parameters and admissible u-window that a
    subcommand's flags name, in that order; params is None without --case and
    the window without --u0/--u1, where a missing end is reference_interval(p)'s.
    A missing --t1 is set in args to _default_t_window(p)'s: half a period at most."""
    p = make_quadratic_profile(args.c, args.d, args.k)
    params = window = None
    if hasattr(args, "case"):
        branch = Branch.CASE_A if args.case == "a" else Branch.CASE_B
        params = make_projection_params(p, c0=args.c0, branch=branch, mirror_theta0=args.theta0_branch == "mirror")
    if getattr(args, "t1", 0.0) is None:
        args.t1 = _default_t_window(p)[1]
    if hasattr(args, "u0"):
        lo, hi = args.u0, args.u1
        if lo is None or hi is None:  # only then: a given window computes no chart
            chart = reference_interval(p)
            lo, hi = chart.lo if lo is None else lo, chart.hi if hi is None else hi
        window = admissible_interval(p, DomainInterval(lo, hi))
    return p, params, window


def _parse_grid(text):
    try:
        nt_str, nu_str = text.lower().split("x")
        nt, nu = int(nt_str), int(nu_str)
    except ValueError:
        raise argparse.ArgumentTypeError("--grid expects NTxNU, e.g. 50x50")
    if nt < 2 or nu < 2:
        raise argparse.ArgumentTypeError("--grid sizes must be at least 2")
    return nt, nu


def _cmd_project(args):
    p, params, _ = _inputs(args)
    q = project(p, params, SurfacePoint(args.t, args.u))
    # adding +0.0 folds IEEE negative zero into "0"
    print("%.12g %.12g" % (q.x + 0.0, q.y + 0.0))
    return 0


def _cmd_verify(args):
    p, params, _ = _inputs(args)
    reports = verifier.verify_report(p, params, args.grid, args.fd_step, args.seed)
    print("%-42s %12s %12s %9s  %s" % ("check", "max", "mean", "tol", "status"))
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print("%-42s %12.3e %12.3e %9.0e  %s" % (rep.identity_name, rep.max_abs_residual, rep.mean_abs_residual,
                                               rep.bound, status))
    all_pass = all(rep.passed for rep in reports)
    print("overall: %s" % ("pass" if all_pass else "FAIL"))
    return 0 if all_pass else 1


def _load_csv_profile(path):
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["u", "f"]:
                raise ValueError("CSV profile needs header 'u,f' (got %r)" % (header,))
            rows, lines = [], []
            for line_no, r in enumerate(reader, start=2):
                if not r:
                    continue
                if len(r) != 2:
                    raise ValueError("CSV profile line %d needs exactly u,f" % line_no)
                try:
                    rows.append((float(r[0]), float(r[1])))
                except ValueError as exc:
                    raise ValueError("CSV profile line %d: %s" % (line_no, exc)) from exc
                lines.append(line_no)
    except OSError as exc:
        raise IoFailure("cannot read %s: %s" % (path, exc)) from exc
    try:
        return GeneralProfile.from_table([r[0] for r in rows], [r[1] for r in rows])
    except TableRowError as exc:
        raise ValueError("CSV profile line %d %s" % (lines[exc.row], exc.detail)) from exc


def _resolve_profile_arg(text):
    """The GeneralProfile a --profile argument names."""
    if text in verifier.BUILTIN_PROFILES:
        return verifier.BUILTIN_PROFILES[text]
    if text.startswith("quadratic:"):
        try:
            c, d, k = (float(v) for v in text[len("quadratic:"):].split(","))
        except ValueError:
            raise ValueError("--profile quadratic:c,d,k expects three numbers")
        p = make_quadratic_profile(c, d, k)
        return GeneralProfile.sample(p.radius, reference_interval(p))
    if text.startswith("csv:"):
        return _load_csv_profile(text[len("csv:"):])
    raise ValueError("--profile must be sphere, pseudosphere, quadratic:c,d,k or csv:PATH")


def _cmd_classify(args):
    verdict = verifier.existence_classifier(_resolve_profile_arg(args.profile), threshold=args.threshold)
    print("exists: %s" % ("true" if verdict.exists else "false"))
    print("gate: %s" % verdict.gate)
    print("misfit: %.6g" % verdict.misfit)
    if verdict.fitted is not None:
        print("fitted: c=%.9g d=%.9g k=%.9g" % verdict.fitted)
    print("curvature_range: [%.6g, %.6g]" % verdict.curvature_range)
    return 0 if verdict.exists else 1


def _cmd_export_graticule(args):
    p, params, u_range = _inputs(args)
    spec = GraticuleSpec(t_range=(args.t0, args.t1), u_range=u_range, n_meridians=args.meridians,
                         n_parallels=args.parallels, samples_per_curve=args.samples)
    summary = export_graticule_svg(p, params, spec, args.output)
    print("wrote %s: %d meridians, %d parallels" % (summary["path"], summary["meridians"], summary["parallels"]))
    return 0


def _cmd_export_mesh(args):
    p, _, u_range = _inputs(args)
    u_ref = args.u_ref if args.u_ref is not None else u_range.lo
    spec = MeshSpec(t_divisions=args.t_div, u_divisions=args.u_div, u_range=u_range, u_ref=u_ref)
    summary = export_mesh_obj(p, spec, args.output)
    print("wrote %s: %d vertices, %d faces" % (summary["path"], summary["vertices"], summary["faces"]))
    return 0


def _cmd_table(args):
    p, params, u_range = _inputs(args)
    nt, nu = args.grid
    t_values = np.linspace(args.t0, args.t1, nt)
    u_values = np.linspace(u_range.lo, u_range.hi, nu)
    grid = np.stack(np.meshgrid(t_values, u_values, indexing="ij"), axis=-1).reshape(-1, 2)
    summary = sample_table_csv(p, params, grid, args.output)
    print("wrote %s: %d rows" % (summary["path"], summary["rows"]))
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each handler looks up what it calls at call time."""
    parser = argparse.ArgumentParser(
        prog="revproj",
        description="Plane projections of surfaces of revolution with quadratic squared profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    coefficients = argparse.ArgumentParser(add_help=False)
    coefficients.add_argument("--c", type=_finite_float, required=True, help="coefficient c of f^2 = c u^2 + d u + k")
    coefficients.add_argument("--d", type=_finite_float, required=True, help="coefficient d")
    coefficients.add_argument("--k", type=_finite_float, required=True, help="coefficient k")
    map_flags = argparse.ArgumentParser(add_help=False, parents=[coefficients])
    map_flags.add_argument("--c0", type=_finite_float, default=0.0, help="integration constant of b(t)")
    map_flags.add_argument(
        "--theta0-branch",
        choices=("principal", "mirror"),
        default="principal",
        help="principal arcsin branch for theta0, or its supplement",
    )
    map_flags.add_argument("--case", choices=("a", "b"), default="a", help="solution branch")
    u_window = argparse.ArgumentParser(add_help=False)
    end = ("%s end of the u-window; default: that end of the chart verify certifies, "
           "u* + [min(0.2 L, 0.1 h), min(2 L, 0.85 h)], L = sqrt(m/c) and h the feasible half width (inf for c <= 1)")
    u_window.add_argument("--u0", type=_finite_float, help=end % "lower")
    u_window.add_argument("--u1", type=_finite_float, help=end % "upper")
    t_window = argparse.ArgumentParser(add_help=False)
    t_window.add_argument("--t0", type=_finite_float, default=0.0)
    t_window.add_argument("--t1", type=_finite_float, help="upper end of the t-window; default: min(pi, pi/sqrt(c)), half a period at most")

    sp = sub.add_parser("project", parents=[map_flags], help="map one surface point to the plane")
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--u", type=_finite_float, required=True)
    sp.set_defaults(handler=_cmd_project)

    sp = sub.add_parser("verify", parents=[map_flags], help="run all residual checks, exit 0 iff every one passes")
    sp.add_argument("--grid", type=_parse_grid, default=(50, 50), help="NTxNU sample grid")
    sp.add_argument("--fd-step", type=_finite_float, default=1e-5, help="central-difference step: of the phase sqrt(c) t in t, of min(L, h) in u")
    sp.add_argument("--seed", type=int, default=0, help="picks the start frac(seed phi) of the golden-ratio draws")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("classify", help="existence verdict for an arbitrary profile")
    sp.add_argument(
        "--profile",
        required=True,
        help="sphere | pseudosphere | quadratic:c,d,k | csv:PATH (header u,f)",
    )
    sp.add_argument("--threshold", type=_finite_float, default=1e-4, help="bound on the misfit max|f^2 - fit|/|c_x|")
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("export-graticule", parents=[map_flags, u_window, t_window], help="write the projected graticule as SVG")
    sp.add_argument("--meridians", type=int, default=GraticuleSpec.n_meridians)
    sp.add_argument("--parallels", type=int, default=GraticuleSpec.n_parallels)
    sp.add_argument("--samples", type=int, default=GraticuleSpec.samples_per_curve)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(handler=_cmd_export_graticule)

    sp = sub.add_parser("export-mesh", parents=[coefficients, u_window], help="write the embedded surface as Wavefront OBJ")
    sp.add_argument("--t-div", type=int, default=64)
    sp.add_argument("--u-div", type=int, default=32)
    sp.add_argument("--u-ref", type=_finite_float, default=None,
                    help="height anchor; defaults to the lower end of the admissible u-window, u0 after clipping")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(handler=_cmd_export_mesh)

    sp = sub.add_parser("table", parents=[map_flags, u_window, t_window], help="write a t,u,x,y sample table as CSV")
    sp.add_argument("--grid", type=_parse_grid, default=(5, 5), help="NTxNU sample grid")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(handler=_cmd_table)

    return parser


def _is_negative_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _join_negative_values(argv):
    """argv with each ``--flag -1e-3`` spelled ``--flag=-1e-3``.  argparse
    takes a token that starts with '-' for an option unless it is a plain
    decimal, so a negative value in exponent notation would otherwise fail
    with "expected one argument"; every long flag here but --help takes
    one value."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and flag not in ("--", "--help") and _is_negative_number(token):
            out[-1] = flag + "=" + token
        else:
            out.append(token)
    return out


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (RevprojError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3 if isinstance(exc, IoFailure) else 2


main = cli_dispatch  # the console script's and python -m revproj's entry point


if __name__ == "__main__":
    sys.exit(main())
