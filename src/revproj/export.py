"""File emitters: projected graticules as SVG, the embedded surface as
Wavefront OBJ, and coordinate sample tables as CSV.

All writes are atomic (temp file + rename) and numeric fields use the
shortest round-trip representation so emitted files re-ingest losslessly:
each field is one ``repr``.  The SVG and CSV text is filled in with one
%-format of a repeated row template.  The mesh formats each of its rings'
magnitude rows |cos t| f and |sin t| f and each height once, joins every
ring from those shared pieces with the signs put in front, and assembles
its face block as bytes from a table of digits.  The bytes are those of
formatting every field on its own.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CollinearityViolation, DegenerateLine, IoFailure
from .profile import DomainInterval, QuadraticProfile, eval_g, profile_jet
from .projection import ProjectionParams, plane_map
from .verifier import check_meridian_straightness

SVG_MARGIN_FRACTION = 0.05


@dataclass(frozen=True)
class GraticuleSpec:
    """Curve families to draw: meridian images (straight) and parallel
    images (sampled curves) over a (t, u) window."""

    t_range: tuple
    u_range: DomainInterval
    n_meridians: int = 9
    n_parallels: int = 5
    samples_per_curve: int = 64

    def __post_init__(self):
        if self.n_meridians < 2 or self.n_parallels < 2:
            raise ValueError("need at least 2 meridians and 2 parallels")
        if self.samples_per_curve < 8:
            raise ValueError("samples_per_curve must be at least 8")
        if not self.t_range[0] < self.t_range[1]:
            raise ValueError("t_range must be increasing")
        if not math.isfinite(self.t_range[1] - self.t_range[0]):
            raise ValueError("t_range must be finite, got %r" % (self.t_range,))


@dataclass(frozen=True)
class MeshSpec:
    """Surface mesh resolution: t_divisions around the axis (seam closed),
    u_divisions along the profile, with g anchored at u_ref."""

    t_divisions: int
    u_divisions: int
    u_range: DomainInterval
    u_ref: float

    def __post_init__(self):
        if self.t_divisions < 3 or self.u_divisions < 3:
            raise ValueError("mesh divisions must be at least 3")


def _fmt(values) -> list:
    """``repr(float(v))`` for every element of ``values``, row-major.  Every
    emitted number passes through here before its file is opened, so a NaN
    or an infinity raises ValueError and no file is written."""
    values = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError("cannot write the non-finite value %r" % float(values[np.argmin(finite)]))
    return list(map(repr, values.tolist()))


def _unit_circle(n: int):
    """Lists of cos(2 pi i/n) and sin(2 pi i/n) for i < n.  Each angle is
    reduced in integers to whole quarter turns plus an angle of at most
    pi/4, so no rounded multiple of 2 pi reaches math.cos/math.sin: the
    entries are as accurate as those functions on [0, pi/4], and they keep
    the circle's symmetries exactly (cos and sin coincide up to sign across
    them, and quarter turns read 0.0)."""
    cos_t, sin_t = [], []
    for i in range(n):
        quadrant, r = divmod(4 * i, n)
        if 2 * r == n:
            c = s = math.sqrt(0.5)
        elif 2 * r < n:
            phi = 0.5 * math.pi * r / n
            c, s = math.cos(phi), math.sin(phi)
        else:
            # the remainder is nearer the next quarter turn: measure from it
            phi = 0.5 * math.pi * (n - r) / n
            c, s = math.sin(phi), math.cos(phi)
        for _ in range(quadrant):
            c, s = -s, c
        cos_t.append(c + 0.0)  # + 0.0 folds -0.0 to 0.0
        sin_t.append(s + 0.0)
    return cos_t, sin_t


def _face_block(quads, n_vertices: int) -> bytes:
    """The OBJ lines ``f a b c d`` of the rows of ``quads``, 1-based vertex
    ids of at most ``n_vertices``, assembled as bytes.  A table holds each
    id's decimal digits right-aligned in ``width`` bytes, NUL before the
    leading digit, and a space after them; each line is ``f `` and the four
    rows of its ids, the last space made a newline, and the NULs are dropped
    at the end."""
    width = len(str(n_vertices))
    ids = np.arange(n_vertices + 1)
    digits = np.full((n_vertices + 1, width + 1), ord(" "), dtype=np.uint8)
    for k in range(width):
        place = 10 ** (width - 1 - k)
        digits[:, k] = np.where(ids >= place, ids // place % 10 + ord("0"), 0)
    lines = np.empty((len(quads), 2 + 4 * (width + 1)), dtype=np.uint8)
    lines[:, :2] = np.frombuffer(b"f ", dtype=np.uint8)
    # the ids are in range by construction; mode="raise" would gather into
    # a temporary buffer first, "clip" writes straight into the lines
    np.take(digits, quads, axis=0, out=lines[:, 2:].reshape(len(quads), 4, width + 1), mode="clip")
    lines[:, -1] = ord("\n")
    return lines[lines != 0].tobytes()


def _atomic_write(path: str, data: bytes):
    """Atomic replace, not durable: write ``data`` to a fresh temporary file
    beside ``path``, then rename it over ``path``, so a reader sees the old
    bytes or the new ones; on any failure the temporary file is removed.
    The file is created with mode 0666 less the umask, as open() would.
    Nothing is fsynced.

    When ``path`` already exists, the temporary file's blocks are reserved
    with posix_fallocate before the write.  ext4 (auto_da_alloc, its
    default) otherwise writes back a file that still holds delayed
    allocations before renaming it over an existing one, ~100 ms per 1.6 MB
    on a virtual disk; a rename to a new name has no such flush, and a new
    path gets no reservation, so files soon deleted allocate no blocks.  The
    trade-off: without that flush, a power loss before writeback may leave
    a replaced path reading as zeros at the new length (unwritten extents;
    not crash-tested).  Without posix_fallocate, or on a filesystem that
    does not support it, the file is written without a reservation."""
    tmp = "%s.%s.tmp" % (path, os.urandom(8).hex())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                if data and os.path.lexists(path):
                    _reserve(fd, len(data))
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure("cannot write %s: %s" % (path, exc)) from exc


def _reserve(fd: int, size: int):
    """posix_fallocate(fd, 0, size) where the platform and the filesystem
    support it; any other OSError (ENOSPC, EDQUOT, EIO) propagates."""
    allocate = getattr(os, "posix_fallocate", None)
    if allocate is None:
        return
    try:
        allocate(fd, 0, size)
    except OSError as exc:
        # no reservation here, which is not a failed write
        if exc.errno not in (errno.EOPNOTSUPP, errno.ENOTSUP, errno.ENOSYS, errno.EINVAL):
            raise


def export_graticule_svg(
    p: QuadraticProfile, params: ProjectionParams, spec: GraticuleSpec, path: str
) -> dict:
    """Write an SVG graticule: one polyline per meridian image, drawn from
    its two ends once all of them pass verify's straightness row
    (CollinearityViolation names the most bent), and one sampled polyline
    per parallel image.  Screen y is the flipped plane y; the viewBox is
    fitted with a 5% margin."""
    t0, t1 = spec.t_range
    u_lo, u_hi = spec.u_range.lo, spec.u_range.hi
    t_values = np.linspace(t0, t1, spec.n_meridians)
    u_values = np.linspace(u_lo, u_hi, spec.n_parallels)
    u_samples = np.linspace(u_lo, u_hi, spec.samples_per_curve)
    t_samples = np.linspace(t0, t1, spec.samples_per_curve)

    # the meridian images are straight by construction: a bent one is a bug
    report = check_meridian_straightness(p, params, t_values, u_samples)
    if not report.passed:
        t, deviation = report.worst_point[0], report.max_abs_residual
        raise CollinearityViolation("meridian image at t=%g deviates %g from a straight line" % (t, deviation))
    # the ends of each meridian image and one row of samples per parallel image
    meridians, _, _ = plane_map(p, params, t_values[:, None], u_samples[[0, -1]])
    parallels, _, _ = plane_map(p, params, t_samples[None, :], u_values[:, None])

    polylines = [(z, "#202020") for z in meridians] + [(z, "#777777") for z in parallels]
    all_z = np.concatenate([z for z, _ in polylines])
    min_x, max_x = float(all_z.real.min()), float(all_z.real.max())
    min_y, max_y = float(-all_z.imag.max()), float(-all_z.imag.min())
    # each meridian image has length u_hi - u_lo > 0, so the span is positive
    # and scales with the profile
    span = max(max_x - min_x, max_y - min_y)
    if not span > 0.0:
        raise DegenerateLine("graticule image has zero extent")
    pad = SVG_MARGIN_FRACTION * span
    view = (min_x - pad, min_y - pad, (max_x - min_x) + 2 * pad, (max_y - min_y) + 2 * pad)
    stroke_width = 0.004 * span

    # the rows are a template with one "%s,%s" per point, filled in below
    head = _fmt(view + (stroke_width,))
    rows = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s %s %s %s">' % tuple(head[:4]),
    ]
    rows += [
        '  <polyline points="%s" fill="none" stroke="%s" stroke-width="%s"/>'
        % (" ".join(["%s,%s"] * len(z)), color, head[4])
        for z, color in polylines
    ]
    rows.append("</svg>\n")
    text = "\n".join(rows) % tuple(_fmt(np.stack([all_z.real, -all_z.imag], axis=-1)))
    _atomic_write(path, text.encode("ascii"))
    return {
        "path": path,
        "meridians": spec.n_meridians,
        "parallels": spec.n_parallels,
        "viewbox": view,
    }


def export_mesh_obj(p: QuadraticProfile, spec: MeshSpec, path: str) -> dict:
    """Write the embedded surface as OBJ: vertices (f cos t, f sin t, g)
    row-major in (t, u), quad faces with 1-based indices, seam closed at
    t = 2 pi by wrapping the last ring of faces back to the first."""
    nt, nu = spec.t_divisions, spec.u_divisions
    u_values = np.linspace(spec.u_range.lo, spec.u_range.hi, nu)
    radii = profile_jet(p, u_values)[0]
    heights = eval_g(p, u_values, spec.u_ref)

    # 1-based ids of vertex (i, j) and of its neighbour (i + 1 mod nt, j);
    # the face block is built first and its quads dropped, so they are not
    # held beside the vertex text
    here = np.arange(nt)[:, None] * nu + np.arange(1, nu)[None, :]
    ahead = np.roll(here, -1, axis=0)
    faces = _face_block(np.stack([here, ahead, ahead + 1, here + 1], axis=-1).reshape(-1, 4), nt * nu)

    # x and y of ring i are +-|cos t_i| radii and +-|sin t_i| radii.  The
    # radii are square roots, so >= 0 (a NaN is refused by _fmt), and
    # (-a) * r == -(a * r) bit for bit: a negative field's text is "-" and
    # its magnitude's.  _unit_circle reads no -0.0, so a zero is unsigned.
    cos_t, sin_t = _unit_circle(nt)
    mags = sorted(set(map(abs, cos_t + sin_t)))
    text = _fmt(np.multiply.outer(mags, radii))
    rows = {m: text[k * nu:(k + 1) * nu] for k, m in enumerate(mags)}
    z_text = _fmt(heights)
    # each vertex is four pieces: x, the separator and sign of y, y, and
    # the height with the next line's "v " and sign of x
    y_signs = ([" "] * nu, [" -"] * nu)
    tails = ([" %s\nv " % z for z in z_text], [" %s\nv -" % z for z in z_text])
    chunks = [b"v "]  # ring 0 lies at t = 0, where x = f is not negative
    ring = [""] * (4 * nu)
    for i, (c, s) in enumerate(zip(cos_t, sin_t)):
        ring[0::4] = rows[abs(c)]
        ring[1::4] = y_signs[s < 0]
        ring[2::4] = rows[abs(s)]
        ring[3::4] = tails[c < 0]
        ring[-1] = tails[cos_t[i + 1] < 0][-1] if i + 1 < nt else " %s\n" % z_text[-1]
        chunks.append("".join(ring).encode("ascii"))

    chunks.append(faces)
    _atomic_write(path, b"".join(chunks))
    return {"path": path, "vertices": nt * nu, "faces": nt * (nu - 1)}


def sample_table_csv(
    p: QuadraticProfile, params: ProjectionParams, grid, path: str
) -> dict:
    """Write header ``t,u,x,y`` then one row per (t, u) grid point with the
    projected coordinates, full double precision."""
    points = np.asarray(grid, dtype=float).reshape(-1, 2)
    z, _, _ = plane_map(p, params, points[:, 0], points[:, 1])
    text = ("t,u,x,y\n" + "%s,%s,%s,%s\n" * len(points)) % tuple(_fmt(np.column_stack([points, z.real, z.imag])))
    _atomic_write(path, text.encode("ascii"))
    return {"path": path, "rows": len(points)}
