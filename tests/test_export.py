import csv
import errno
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import revproj.export as export_mod
import revproj.verifier as verifier_mod
from revproj import (
    CollinearityViolation,
    DegenerateLine,
    DomainInterval,
    GraticuleSpec,
    IoFailure,
    MeshSpec,
    PlanePoint,
    SurfacePoint,
    eval_g,
    export_graticule_svg,
    export_mesh_obj,
    invert,
    make_projection_params,
    make_quadratic_profile,
    plane_map,
    profile_jet,
    project,
    sample_table_csv,
)
from revproj.profile import slope_feasible_span
from helpers import subprocess_env

SVG_NS = "{http://www.w3.org/2000/svg}"


def _polylines(path):
    root = ET.parse(path).getroot()
    return root.findall(SVG_NS + "polyline")


def _points(element):
    return [tuple(float(v) for v in pair.split(",")) for pair in element.get("points").split()]


# a NaN with its sign bit set
SIGNED_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]

# values that print alike but differ in bits, or that only a lossless
# formatter keeps apart; drawn often, so arrays repeat them
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 0.1]


class TestFormatter:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
                  elements=st.sampled_from(SPECIAL_FLOATS)
                  | st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)))
    @example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    # each value beside its negation, which shares its magnitude's text:
    # -0.0 and -5e-324 keep their sign
    @example(np.array([[v, -v] for v in SPECIAL_FLOATS]))
    @example(np.empty((0, 4)))
    def test_matches_repr_of_every_element(self, a):
        assert export_mod._fmt(a) == [repr(float(v)) for v in a.ravel()]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, SIGNED_NAN], ids=["inf", "-inf", "nan", "-nan"])
    def test_refuses_non_finite_values(self, bad):
        # no emitted file may hold a nan or an inf; the error names the first
        with pytest.raises(ValueError) as excinfo:
            export_mod._fmt(np.array([[1.0, -2.0], [bad, math.inf]]))
        assert str(excinfo.value).endswith("non-finite value %r" % bad)


def _mpmath_ring(n, bits=128):
    """cos and sin of 2 pi i/n for i < n as integers scaled by 2**bits:
    mpmath's 40-digit cos and sin of 2 pi/n, raised to each power by integer
    complex products (each off by under one unit, so the n-th power is good
    to ~n 2**-bits, far below a double's eps)."""
    import mpmath

    with mpmath.workdps(40):
        root = mpmath.cos(2 * mpmath.pi / n), mpmath.sin(2 * mpmath.pi / n)
        wc, ws = (int(mpmath.nint(v * 2**bits)) for v in root)
    c, s = 1 << bits, 0
    ring = []
    for _ in range(n):
        ring.append((c, s))
        c, s = (c * wc - s * ws) >> bits, (c * ws + s * wc) >> bits
    return ring


class TestUnitCircle:
    def test_within_one_eps_of_mpmath(self):
        # x * 2**128 is exact for |x| <= 1, so the error is measured exactly
        scale, eps = 2.0**128, np.finfo(float).eps
        worst = []
        for n in range(3, 1025):
            cos_t, sin_t = export_mod._unit_circle(n)
            assert len(cos_t) == len(sin_t) == n
            error = max(
                max(abs(int(c * scale) - rc), abs(int(s * scale) - rs))
                for c, s, (rc, rs) in zip(cos_t, sin_t, _mpmath_ring(n))
            )
            worst.append(error / scale)
        assert max(worst) <= eps

    def test_exact_symmetries(self):
        for n in range(3, 1025):
            cos_t, sin_t = export_mod._unit_circle(n)
            assert (cos_t[0], sin_t[0]) == (1.0, 0.0)
            assert cos_t[1:] == cos_t[:0:-1] and sin_t[1:] == [-v for v in sin_t[:0:-1]]
            if n % 2 == 0:
                assert cos_t[n // 2:] == [-v for v in cos_t[:n // 2]]
            if n % 4 == 0:
                assert cos_t[n // 4:] == [-v for v in sin_t[:3 * n // 4]]
            assert all(math.copysign(1.0, v) == 1.0 for v in cos_t + sin_t if v == 0.0)

    def test_quarter_turns_print_zero(self, fig1, tmp_path):
        path = tmp_path / "octants.obj"
        export_mesh_obj(fig1, MeshSpec(8, 5, DomainInterval(0.2, 2.0), 0.2), str(path))
        text = path.read_text()
        assert "-0.0" not in text.split()
        rings = [line.split()[1:3] for line in text.splitlines() if line.startswith("v ")]
        rings = [rings[5 * i:5 * i + 5] for i in range(8)]
        # y at 0 and pi, x at pi/2 and 3 pi/2; x = y at pi/4
        assert all(y == "0.0" for i in (0, 4) for _, y in rings[i])
        assert all(x == "0.0" for i in (2, 6) for x, _ in rings[i])
        assert all(x == y for x, y in rings[1])


class TestSpecs:
    def test_mesh_divisions_validated(self, fig1):
        with pytest.raises(ValueError):
            MeshSpec(2, 2, DomainInterval(0.05, 2.0), 0.05)

    def test_graticule_counts_validated(self):
        with pytest.raises(ValueError):
            GraticuleSpec((0.0, math.pi), DomainInterval(0.2, 2.0), n_meridians=1)
        with pytest.raises(ValueError):
            GraticuleSpec((0.0, math.pi), DomainInterval(0.2, 2.0), samples_per_curve=4)
        with pytest.raises(ValueError):
            GraticuleSpec((math.pi, 0.0), DomainInterval(0.2, 2.0))


class TestGraticuleSvg:
    @pytest.fixture
    def written(self, fig1, fig1_params, tmp_path):
        spec = GraticuleSpec(
            t_range=(0.0, math.pi),
            u_range=DomainInterval(0.2, 2.0),
            n_meridians=9,
            n_parallels=5,
            samples_per_curve=65,
        )
        path = tmp_path / "graticule.svg"
        summary = export_graticule_svg(fig1, fig1_params, spec, str(path))
        return path, summary

    def test_polyline_structure(self, written):
        path, summary = written
        polys = _polylines(path)
        assert len(polys) == 14
        two_point = [e for e in polys if len(_points(e)) == 2]
        assert len(two_point) == 9
        assert summary["meridians"] == 9 and summary["parallels"] == 5

    def test_vertical_meridian_endpoints_in_screen_coords(self, written):
        path, _ = written
        polys = _polylines(path)
        # meridians are emitted first; t = pi/2 is the middle of 9 over [0, pi]
        pts = _points(polys[4])
        assert pts[0] == pytest.approx((1.0, -1.2), abs=1e-9)
        assert pts[1] == pytest.approx((1.0, -3.0), abs=1e-9)

    def test_parallel_passes_through_spot_values(self, written):
        path, _ = written
        polys = _polylines(path)
        # parallels follow the meridians; the u = 0.2 parallel starts at
        # Phi(0, 0.2) and with 65 samples over [0, pi] sample 32 sits
        # exactly at t = pi/2
        pts = _points(polys[9])
        assert pts[0] == pytest.approx((0.2, 0.0), abs=1e-12)
        assert pts[32] == pytest.approx((1.0, -(0.2 + 1.0)), abs=1e-12)

    def test_unit_parallel_spot_values(self, fig1, fig1_params, tmp_path):
        # the u = 1 parallel passes through the plane points (1, 0) and (1, 2)
        spec = GraticuleSpec((0.0, math.pi), DomainInterval(0.5, 1.5), 2, 3, 65)
        path = tmp_path / "unit.svg"
        export_graticule_svg(fig1, fig1_params, spec, str(path))
        pts = _points(_polylines(path)[3])
        assert pts[0] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert pts[32] == pytest.approx((1.0, -2.0), abs=1e-12)

    def test_parallel_chord_length_matches_speed(self, fig1, fig1_params, tmp_path):
        # parallel images have speed f(u), so total chord length approaches
        # f(u) * (t1 - t0)
        spec = GraticuleSpec((0.0, math.pi), DomainInterval(0.2, 2.0), 2, 3, 96)
        path = tmp_path / "chords.svg"
        export_graticule_svg(fig1, fig1_params, spec, str(path))
        polys = _polylines(path)
        u_values = [0.2, 1.1, 2.0]
        for parallel, u in zip(polys[2:], u_values):
            pts = _points(parallel)
            chord = sum(math.dist(a, b) for a, b in zip(pts, pts[1:]))
            f, _, _ = profile_jet(fig1, u)
            assert chord == pytest.approx(f * math.pi, rel=0.02)

    def test_viewbox_has_margin(self, written):
        path, summary = written
        polys = _polylines(path)
        xs = [x for e in polys for x, _ in _points(e)]
        ys = [y for e in polys for _, y in _points(e)]
        vx, vy, vw, vh = summary["viewbox"]
        assert vx < min(xs) and vy < min(ys)
        assert vx + vw > max(xs) and vy + vh > max(ys)

    def test_collinearity_guard_trips_on_corrupted_map(self, fig1, fig1_params, tmp_path, monkeypatch):
        # bend the array kernel the graticule's straightness check maps its
        # meridians with, and the one it draws them from
        real_map = export_mod.plane_map

        def bent(p, params, t, u):
            z, zt, zu = real_map(p, params, t, u)
            return z + 1e-6 * np.sin(3 * u), zt, zu

        monkeypatch.setattr(export_mod, "plane_map", bent)
        monkeypatch.setattr(verifier_mod, "plane_map", bent)
        spec = GraticuleSpec((0.0, math.pi), DomainInterval(0.2, 2.0))
        with pytest.raises(CollinearityViolation):
            export_graticule_svg(fig1, fig1_params, spec, str(tmp_path / "bad.svg"))


    def test_sub_floor_window_raises_before_writing(self, fig1, fig1_params, tmp_path):
        # a u-window one ulp wide: every meridian's chord is below verify's
        # floor of CHORD_FLOOR_ULPS eps times the term scale
        spec = GraticuleSpec((0.0, math.pi), DomainInterval(1.0, 1.0 + 2.0**-52))
        with pytest.raises(DegenerateLine):
            export_graticule_svg(fig1, fig1_params, spec, str(tmp_path / "thin.svg"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t_range", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)])
    def test_non_finite_t_range_is_refused(self, t_range):
        with pytest.raises(ValueError):
            GraticuleSpec(t_range, DomainInterval(0.2, 2.0))

    @pytest.mark.parametrize("coeffs, u_range", [((1.0, 0.0, 1.0), (1.0, 2.0)), ((2.5, -1.0, 0.6), (0.25, 0.55))])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6])
    def test_viewbox_and_stroke_scale_with_the_profile(self, coeffs, u_range, scale, tmp_path):
        # the homothety u -> lu, f -> lf maps (c, d, k) to (c, l d, l^2 k)
        # and scales the plane image by l, so the viewBox and stroke must too
        def drawn(lam):
            c, d, k = coeffs
            p = make_quadratic_profile(c, lam * d, lam * lam * k)
            spec = GraticuleSpec((0.0, math.pi), DomainInterval(lam * u_range[0], lam * u_range[1]), 2, 2, 8)
            path = tmp_path / ("%g.svg" % lam)
            view = export_graticule_svg(p, make_projection_params(p), spec, str(path))["viewbox"]
            return view + (float(_polylines(path)[0].get("stroke-width")),)

        assert drawn(scale) == pytest.approx([scale * v for v in drawn(1.0)], rel=1e-12)

    def test_zero_extent_raises_before_writing(self, fig1, fig1_params, tmp_path, monkeypatch):
        def collapsed(p, params, t, u):
            shape = np.broadcast(t, u).shape
            return np.zeros(shape, dtype=complex), np.ones(shape, dtype=complex), np.ones(shape, dtype=complex)

        monkeypatch.setattr(export_mod, "plane_map", collapsed)
        spec = GraticuleSpec((0.0, math.pi), DomainInterval(0.2, 2.0))
        with pytest.raises(DegenerateLine):
            export_graticule_svg(fig1, fig1_params, spec, str(tmp_path / "flat.svg"))
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("t_range", [(0.0, math.pi), (-0.7, 2.9)])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_bytes_match_per_point_loop(self, fig1, t_range, mirror, tmp_path):
        params = make_projection_params(fig1, mirror_theta0=mirror)
        spec = GraticuleSpec(t_range, DomainInterval(0.2, 2.0), 5, 4, 17)
        path = tmp_path / "g.svg"
        export_graticule_svg(fig1, params, spec, str(path))
        text = path.read_text()
        assert text == _per_point_svg(fig1, params, spec)
        if t_range[0] == 0.0:
            # Phi(0, u) lies on the x axis, so its flipped y is -0.0
            assert ",-0.0 " in text


def _per_point_svg(p, params, spec):
    """SVG text built one point at a time, each coordinate formatted on its
    own, from the same samples of the map as the emitter."""
    t_values = np.linspace(*spec.t_range, spec.n_meridians)
    u_values = np.linspace(spec.u_range.lo, spec.u_range.hi, spec.n_parallels)
    u_samples = np.linspace(spec.u_range.lo, spec.u_range.hi, spec.samples_per_curve)
    t_samples = np.linspace(*spec.t_range, spec.samples_per_curve)
    meridians = plane_map(p, params, t_values[:, None], u_samples[None, :])[0]
    parallels = plane_map(p, params, t_samples[None, :], u_values[:, None])[0]
    curves = [(z, "#202020") for z in meridians[:, [0, -1]]] + [(z, "#777777") for z in parallels]
    xs = [float(x) for z, _ in curves for x in z.real]
    ys = [-float(y) for z, _ in curves for y in z.imag]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    pad = 0.05 * span
    view = (min(xs) - pad, min(ys) - pad, (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%r %r %r %r">' % view,
    ]
    for z, color in curves:
        points = " ".join("%r,%r" % (float(w.real), -float(w.imag)) for w in z)
        width = 0.004 * span
        lines.append('  <polyline points="%s" fill="none" stroke="%s" stroke-width="%r"/>' % (points, color, width))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


class TestMeshObj:
    def test_fig1_mesh(self, fig1, tmp_path):
        spec = MeshSpec(64, 32, DomainInterval(0.05, 2.0), 0.05)
        path = tmp_path / "surface.obj"
        summary = export_mesh_obj(fig1, spec, str(path))
        assert summary["vertices"] == 2048
        assert summary["faces"] == 64 * 31

        vertices, faces = [], []
        for line in open(path):
            kind, *fields = line.split()
            if kind == "v":
                vertices.append(tuple(float(v) for v in fields))
            elif kind == "f":
                faces.append(tuple(int(v) for v in fields))
        assert len(vertices) == 2048 and len(faces) == 64 * 31

        u_values = np.linspace(0.05, 2.0, 32)
        for idx, (x, y, z) in enumerate(vertices):
            u = u_values[idx % 32]
            f, _, _ = profile_jet(fig1, u)
            assert abs(x * x + y * y - f * f) < 1e-9
        # the u = 2 ring has radius sqrt(5)
        x, y, _ = vertices[31]
        assert math.hypot(x, y) == pytest.approx(math.sqrt(5.0), abs=1e-12)
        for face in faces:
            assert all(1 <= v <= 2048 for v in face)

    def test_vertex_height_anchored_at_zero(self, fig1, tmp_path):
        # u = 1 lands on a grid node of linspace(0.25, 2, 8); with the
        # anchor at 0 its height is log(1 + sqrt 2)
        spec = MeshSpec(8, 8, DomainInterval(0.25, 2.0), 0.0)
        path = tmp_path / "anchored.obj"
        export_mesh_obj(fig1, spec, str(path))
        line = open(path).read().splitlines()[3]
        x, y, z = (float(v) for v in line.split()[1:])
        assert (x, y, z) == pytest.approx((1.4142136, 0.0, 0.8813736), abs=1e-7)

    def test_seam_closure_wraps_last_ring(self, fig1, tmp_path):
        spec = MeshSpec(4, 3, DomainInterval(0.2, 1.0), 0.2)
        path = tmp_path / "seam.obj"
        export_mesh_obj(fig1, spec, str(path))
        faces = [line for line in open(path) if line.startswith("f ")]
        last = tuple(int(v) for v in faces[-1].split()[1:])
        assert last == (11, 2, 3, 12)

    @pytest.mark.parametrize("coeffs, u_range", [((1.0, 0.0, 1.0), (0.05, 2.0)), ((2.5, -1.0, 0.6), (0.25, 0.55))])
    @pytest.mark.parametrize("nt, nu", [(7, 9), (64, 9), (192, 96)], ids=["7", "64", "192x96"])
    def test_bytes_match_per_vertex_loop(self, coeffs, u_range, nt, nu, tmp_path):
        p = make_quadratic_profile(*coeffs)
        spec = MeshSpec(nt, nu, DomainInterval(*u_range), u_range[0])
        path = tmp_path / "mesh.obj"
        export_mesh_obj(p, spec, str(path))
        assert path.read_bytes() == _per_vertex_obj(p, spec).encode()

    # windows on either side of u* inside the slope-feasible span, anchored
    # anywhere in them (at hi every height is <= 0, below u* all of them
    # may be), and ring counts that put the circle's sign changes on and
    # between rings: odd, or not a multiple of 4 or 8
    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(0.1, 4.0), k=st.floats(0.1, 4.0), skew=st.floats(-0.999, 0.999), below=st.booleans(),
           ends=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)).filter(lambda e: abs(e[0] - e[1]) >= 0.02),
           from_hi=st.floats(0.0, 1.0), nt=st.integers(3, 300), nu=st.integers(3, 40))
    @example(c=0.3, k=2.0, skew=0.1, below=True, ends=(0.1, 0.9), from_hi=0.0, nt=101, nu=33)
    @example(c=0.3, k=2.0, skew=0.1, below=False, ends=(0.1, 0.9), from_hi=0.0, nt=6, nu=3)
    @example(c=2.5, k=0.6, skew=-0.5, below=True, ends=(0.2, 0.8), from_hi=0.0, nt=12, nu=5)
    @example(c=2.5, k=0.6, skew=-0.5, below=False, ends=(0.2, 0.8), from_hi=0.0, nt=7, nu=40)
    def test_bytes_match_per_vertex_loop_either_side_of_u_star(self, tmp_path_factory, c, k, skew, below, ends,
                                                               from_hi, nt, nu):
        p = make_quadratic_profile(c, skew * 2.0 * math.sqrt(0.9 * c * k), k)
        us = p.singular_u
        half = min(slope_feasible_span(p)[1] - us, 3.0)
        near, far = sorted(ends)
        lo, hi = (us - far * half, us - near * half) if below else (us + near * half, us + far * half)
        spec = MeshSpec(nt, nu, DomainInterval(lo, hi), hi - from_hi * (hi - lo))
        path = tmp_path_factory.mktemp("mesh") / "mesh.obj"
        export_mesh_obj(p, spec, str(path))
        assert path.read_bytes() == _per_vertex_obj(p, spec).encode()

    def test_writer_peak_memory_below_three_file_sizes(self, tmp_path):
        # the second call, so nothing built once per process counts; the
        # bound scales with the file, which the writer holds as bytes once
        p = make_quadratic_profile(0.6, 0.3, 1.5)
        spec = MeshSpec(192, 96, DomainInterval(0.05, 2.0), 0.05)
        path = tmp_path / "mesh.obj"
        export_mesh_obj(p, spec, str(path))
        tracemalloc.start()
        try:
            export_mesh_obj(p, spec, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size

    # vertex counts at or on either side of each power of ten up to 100,000, so
    # the largest id has each width from 1 to 6 digits
    @pytest.mark.parametrize("nt, nu", [(3, 3), (3, 4), (3, 33), (3, 34), (10, 100), (4, 2500), (3, 3334),
                                        (1000, 100)])
    def test_face_block_matches_per_face_template(self, fig1, nt, nu, tmp_path):
        path = tmp_path / "mesh.obj"
        export_mesh_obj(fig1, MeshSpec(nt, nu, DomainInterval(0.05, 2.0), 0.05), str(path))
        text = path.read_text()
        assert text[text.index("\nf ") + 1:] == "".join(line + "\n" for line in _per_face_lines(nt, nu))

    def test_no_nan_tokens_in_any_emitted_file(self, fig1, fig1_params, tmp_path):
        export_mesh_obj(fig1, MeshSpec(8, 8, DomainInterval(0.05, 2.0), 0.05), str(tmp_path / "clean.obj"))
        export_graticule_svg(
            fig1, fig1_params, GraticuleSpec((0.0, math.pi), DomainInterval(0.2, 2.0)), str(tmp_path / "clean.svg")
        )
        sample_table_csv(fig1, fig1_params, [(0.1, 0.5), (1.0, 1.5)], str(tmp_path / "clean.csv"))
        for name in ("clean.obj", "clean.svg", "clean.csv"):
            assert "nan" not in (tmp_path / name).read_text().lower()


# (cos, sin) of m quarter turns
QUARTER_TURNS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


def _ring_cos_sin(i, n):
    """cos and sin of 2 pi i/n for one ring: the nearest quarter turn m and
    the signed remainder 2 pi i/n - m pi/2 = +-(pi/2) r/n, with r an integer
    of at most n/2, taken by math.cos/math.sin and turned through m quarter
    turns; -0.0 reads 0.0."""
    m = (8 * i + n) // (2 * n)  # round(4 i/n), halves rounded up
    r = abs(4 * i - m * n)
    if 2 * r == n:
        c = s = math.sqrt(0.5)
    else:
        c, s = math.cos(math.pi / 2 * r / n), math.sin(math.pi / 2 * r / n)
    if 4 * i < m * n:
        s = -s
    a, b = QUARTER_TURNS[m % 4]
    cos_t, sin_t = a * c - b * s, b * c + a * s
    return (cos_t if cos_t else 0.0), (sin_t if sin_t else 0.0)


def _per_vertex_obj(p, spec):
    """OBJ text built one vertex and one face at a time, the height formatted
    for every vertex."""
    nt, nu = spec.t_divisions, spec.u_divisions
    u_values = np.linspace(spec.u_range.lo, spec.u_range.hi, nu)
    radii = profile_jet(p, u_values)[0].tolist()
    heights = [eval_g(p, u, spec.u_ref) for u in u_values.tolist()]
    rows = []
    for i in range(nt):
        cos_t, sin_t = _ring_cos_sin(i, nt)
        for f, z in zip(radii, heights):
            rows.append("v %r %r %r" % (f * cos_t, f * sin_t, z))
    return "\n".join(rows + _per_face_lines(nt, nu)) + "\n"


def _per_face_lines(nt, nu):
    """The OBJ face lines of an nt x nu mesh, one quad at a time, with the
    last ring of faces wrapped back to the first."""
    def vid(i, j):
        return i * nu + j + 1

    rows = []
    for i in range(nt):
        i_next = (i + 1) % nt
        for j in range(nu - 1):
            rows.append("f %d %d %d %d" % (vid(i, j), vid(i_next, j), vid(i_next, j + 1), vid(i, j + 1)))
    return rows


class TestSampleTableCsv:
    def test_rows_match_projection(self, fig1, fig1_params, tmp_path):
        path = tmp_path / "table.csv"
        summary = sample_table_csv(fig1, fig1_params, [(0.0, 1.0), (math.pi / 2, 1.0)], str(path))
        assert summary["rows"] == 2
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            assert next(reader) == ["t", "u", "x", "y"]
            rows = [[float(v) for v in row] for row in reader]
        assert rows[0] == pytest.approx([0.0, 1.0, 1.0, 0.0], abs=1e-12)
        assert rows[1] == pytest.approx([math.pi / 2, 1.0, 1.0, 2.0], abs=1e-12)

    def test_empty_grid_writes_header_only(self, fig1, fig1_params, tmp_path):
        path = tmp_path / "empty.csv"
        summary = sample_table_csv(fig1, fig1_params, [], str(path))
        assert summary["rows"] == 0
        assert open(path).read() == "t,u,x,y\n"

    def test_round_trip_through_inversion(self, fig1, fig1_params, tmp_path):
        grid = [(t, u) for t in np.linspace(0.1, 2.8, 6) for u in np.linspace(0.3, 1.9, 5)]
        path = tmp_path / "roundtrip.csv"
        sample_table_csv(fig1, fig1_params, grid, str(path))
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            for row in reader:
                t, u, x, y = (float(v) for v in row)
                got = invert(fig1, fig1_params, PlanePoint(x, y), SurfacePoint(t + 0.03, u + 0.03))
                assert (got.t, got.u) == pytest.approx((t, u), abs=1e-8)

    def test_line_endings_are_lf(self, fig1, fig1_params, tmp_path):
        path = tmp_path / "lf.csv"
        sample_table_csv(fig1, fig1_params, [(0.0, 1.0)], str(path))
        data = open(path, "rb").read()
        assert b"\r" not in data


    @pytest.mark.parametrize("t0", [0.0, -0.0, -1.3])
    def test_bytes_match_per_row_loop(self, fig1, fig1_params, t0, tmp_path):
        grid = [(t, u) for t in np.linspace(t0, t0 + 2.0, 4) for u in np.linspace(0.3, 1.9, 5)]
        path = tmp_path / "t.csv"
        sample_table_csv(fig1, fig1_params, grid, str(path))
        assert path.read_text() == _per_row_csv(fig1, fig1_params, grid)

    def test_grid_array_and_pair_list_write_the_same_bytes(self, fig1, fig1_params, tmp_path):
        t_grid, u_grid = np.meshgrid(np.linspace(0.0, 3.0, 4), np.linspace(0.3, 1.9, 5), indexing="ij")
        pairs = [(t, u) for t in np.linspace(0.0, 3.0, 4) for u in np.linspace(0.3, 1.9, 5)]
        sample_table_csv(fig1, fig1_params, np.stack([t_grid, u_grid], axis=-1).reshape(-1, 2), str(tmp_path / "a.csv"))
        sample_table_csv(fig1, fig1_params, pairs, str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _per_row_csv(p, params, grid):
    """CSV text built one row at a time, each field formatted on its own,
    from the same map samples as the emitter."""
    points = np.array(grid, dtype=float)
    z = plane_map(p, params, points[:, 0], points[:, 1])[0]
    rows = ["t,u,x,y"]
    for (t, u), w in zip(points, z):
        rows.append("%r,%r,%r,%r" % (float(t), float(u), float(w.real), float(w.imag)))
    return "\n".join(rows) + "\n"


class TestAtomicWrite:
    def test_failed_rename_leaves_no_stray_file(self, fig1, fig1_params, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(export_mod.os, "replace", refuse)
        with pytest.raises(IoFailure):
            sample_table_csv(fig1, fig1_params, [(0.0, 1.0)], str(tmp_path / "t.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_overlapping_writes_to_one_target_use_distinct_temp_names(self, tmp_path, monkeypatch):
        # a second writer starts while the first one's temp file still exists
        real_replace = os.replace
        temps = []

        def second_writer_first(src, dst):
            temps.append(src)
            if len(temps) == 1:
                export_mod._atomic_write(dst, b"second\n")
            real_replace(src, dst)

        monkeypatch.setattr(export_mod.os, "replace", second_writer_first)
        target = tmp_path / "out.txt"
        export_mod._atomic_write(str(target), b"first\n")
        assert len(temps) == 2 and temps[0] != temps[1]
        assert all(os.path.dirname(name) == str(tmp_path) for name in temps)
        assert os.listdir(tmp_path) == ["out.txt"]
        assert target.read_text() == "first\n"

    def test_import_leaves_the_umask_alone(self):
        # setting the umask is process-wide: another thread creating a file
        # meanwhile would get the temporary mask
        code = "\n".join([
            "import os",
            "def refuse(mask):",
            "    raise AssertionError('os.umask called')",
            "os.umask = refuse",
            "import revproj",
        ])
        out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_written_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        target = tmp_path / "mode.txt"
        export_mod._atomic_write(str(target), b"x\n")
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def record_reservations(self, monkeypatch, error=None):
        """Replace os.posix_fallocate with a recorder of its calls, each as
        (inode of fd, offset, length), that raises OSError(error) if given."""
        calls = []

        def reserve(fd, offset, length):
            calls.append((os.fstat(fd).st_ino, offset, length))
            if error is not None:
                raise OSError(error, os.strerror(error))

        monkeypatch.setattr(export_mod.os, "posix_fallocate", reserve, raising=False)
        return calls

    def test_new_path_is_not_reserved(self, tmp_path, monkeypatch):
        calls = self.record_reservations(monkeypatch)
        target = tmp_path / "new.txt"
        export_mod._atomic_write(str(target), b"new\n")
        assert calls == []
        assert target.read_bytes() == b"new\n"

    def test_existing_path_is_reserved_once_at_the_new_length(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old\n")
        calls = self.record_reservations(monkeypatch)
        export_mod._atomic_write(str(target), b"replacement\n")
        # the reserved file is the one renamed over the target
        assert calls == [(target.stat().st_ino, 0, len(b"replacement\n"))]
        assert target.read_bytes() == b"replacement\n"

    def test_empty_data_is_not_reserved(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old\n")
        calls = self.record_reservations(monkeypatch)
        export_mod._atomic_write(str(target), b"")
        assert calls == []
        assert target.read_bytes() == b""

    @pytest.mark.parametrize("name", ["EOPNOTSUPP", "ENOSYS", "EINVAL"])
    def test_unsupported_reservation_still_writes(self, tmp_path, monkeypatch, name):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old\n")
        calls = self.record_reservations(monkeypatch, getattr(errno, name))
        export_mod._atomic_write(str(target), b"replacement\n")
        assert len(calls) == 1
        assert os.listdir(tmp_path) == ["out.txt"]
        assert target.read_bytes() == b"replacement\n"

    def test_platform_without_posix_fallocate_still_writes(self, tmp_path, monkeypatch):
        monkeypatch.delattr(export_mod.os, "posix_fallocate", raising=False)
        target = tmp_path / "out.txt"
        target.write_bytes(b"old\n")
        export_mod._atomic_write(str(target), b"replacement\n")
        assert os.listdir(tmp_path) == ["out.txt"]
        assert target.read_bytes() == b"replacement\n"

    @pytest.mark.parametrize("name", ["ENOSPC", "EDQUOT", "EIO"])
    def test_failed_reservation_keeps_the_old_target(self, tmp_path, monkeypatch, name):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old\n")
        self.record_reservations(monkeypatch, getattr(errno, name))
        with pytest.raises(IoFailure, match=os.strerror(getattr(errno, name))):
            export_mod._atomic_write(str(target), b"replacement\n")
        assert os.listdir(tmp_path) == ["out.txt"]
        assert target.read_bytes() == b"old\n"

    def test_replaced_target_is_a_new_inode(self, tmp_path):
        # a rename, not an overwrite in place: a reader holding the old file
        # open keeps reading the old bytes
        target = tmp_path / "out.txt"
        export_mod._atomic_write(str(target), b"old\n")
        before = target.stat().st_ino
        with open(target, "rb") as reader:
            export_mod._atomic_write(str(target), b"replacement\n")
            assert reader.read() == b"old\n"
        assert target.stat().st_ino != before
        assert target.read_bytes() == b"replacement\n"
        assert os.listdir(tmp_path) == ["out.txt"]
