"""Spans around calls into revproj's public functions, installed from
outside the package by rebinding names; nothing in revproj changes.

Coarse calls (a CLI dispatch, a check, an emitter, a file write) are kept
as spans: name, start, end, parent span and op id.  Per-point calls
(``project``, ``profile_jet``, ``_fmt``, ...) are only aggregated per
(function, caller), so memory stays bounded.  Every wrapped call adds its
duration to its caller's child time, so self time = total - child time.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
from collections import defaultdict


def _isometry_name(args, kwargs):
    fd_step = kwargs.get("fd_step", args[6] if len(args) > 6 else 1e-5)
    return "verifier.isometry_analytic" if fd_step == 0.0 else "verifier.isometry_fd"


# (module, attribute, span name or function of the call's arguments, keep spans)
TARGETS = [
    ("revproj.cli", "cli_dispatch", "cli.dispatch", True),
    ("revproj.profile", "profile_jet", "profile.profile_jet", False),
    ("revproj.profile", "eval_g", "profile.eval_g", False),
    ("revproj.projection", "project", "projection.project", False),
    ("revproj.projection", "jacobian", "projection.jacobian", False),
    ("revproj.projection", "invert", "projection.invert", False),
    ("revproj.verifier", "check_local_isometry", _isometry_name, True),
    ("revproj.verifier", "check_meridian_straightness", "verifier.straightness", True),
    ("revproj.verifier", "check_structural_identities", "verifier.structural", True),
    ("revproj.verifier", "ode_oracle_a", "verifier.ode_oracle", True),
    ("revproj.verifier", "existence_classifier", "verifier.classifier", True),
    ("revproj.export", "export_mesh_obj", "export.mesh", True),
    ("revproj.export", "export_graticule_svg", "export.graticule", True),
    ("revproj.export", "sample_table_csv", "export.table", True),
    ("revproj.export", "_fmt", "export.format", False),
    ("revproj.export", "_atomic_write", "export.write", True),
]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # (name, caller) -> [calls, total s, child s]
        self.bytes_written = 0
        self.op_id = None
        self._stack = []  # frames [name, child s, span id of this or nearest spanned ancestor]
        self._patches = []
        self._ids = itertools.count()

    def wrap(self, name, fn, keep_span):
        stack, totals, spans, ids, clock = self._stack, self.totals, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            span_id = next(ids) if keep_span else None
            frame = [label, 0.0, span_id if keep_span else (parent[2] if parent else None)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                entry = totals[(label, parent[0] if parent else None)]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += frame[1]
                if parent:
                    parent[1] += end - start
                if keep_span:
                    spans.append((span_id, label, start, end, parent[2] if parent else None, self.op_id))

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "revproj" or n.startswith("revproj.")]
        for mod_name, attr, name, keep_span in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, original, keep_span)
            if attr == "_atomic_write":
                wrapped = self._counting_write(wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
        cls = sys.modules["revproj.profile"].GeneralProfile
        descriptor = cls.__dict__["from_table"]
        from_table = self.wrap("profile.from_table", descriptor.__func__, True)

        def traced_from_table(klass, u_values, f_values):
            gp = from_table(klass, u_values, f_values)
            return dataclasses.replace(gp, evaluator=self.wrap("profile.table_eval", gp.evaluator, False))

        self._patches.append((cls, "from_table", descriptor))
        cls.from_table = classmethod(traced_from_table)

    def _counting_write(self, write):
        def counted(path, text):
            write(path, text)
            self.bytes_written += len(text)  # the emitters write ASCII only
        return counted

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def by_name(self):
        """name -> [calls, total s, self s], summed over callers."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _caller), (calls, total, child) in self.totals.items():
            row = out[name]
            row[0] += calls
            row[1] += total
            row[2] += total - child
        return out

    def calls_from(self, name, caller):
        return self.totals[(name, caller)][0] if (name, caller) in self.totals else 0

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "aggregates": [
                    {"name": n, "caller": c, "calls": v[0], "total_s": v[1], "child_s": v[2]}
                    for (n, c), v in sorted(self.totals.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
                ],
            }, handle)
