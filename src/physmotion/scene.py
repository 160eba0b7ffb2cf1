"""Height-map scene representation built from a triangle mesh.

The map stores the top surface only: a vertical downward ray is cast through
every cell center and the highest hit wins. Cells the mesh never covers get
the minimum mesh height so queries off the scanned area degrade gracefully.

The rasteriser is vectorised over triangles: those whose bounding boxes of
cells have one shape are evaluated together as one broadcast, in runs of a
bounded number of cells, so its memory stays flat for dense scanned meshes
and whole-scene quads alike; a triangle larger than a run goes by blocks of
rows, each over the columns its rows can meet. Height and normal queries take scalars or
arrays of points; one call answers a frame's contact points or a whole
sequence (the refinement's foot targets, the penetration metric). A query gathers the four cells of
each point from the flattened grid, which HeightMap keeps row-major.

Contact labels are a plain (T, 4) bool array, one column per contact point
in CONTACT_NAMES order; the contacts file holds one row of them per frame.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import EmptySceneError, InvalidInputError, MotionFormatError
from .rotations import vector_norms

# height-map cells per axis, the default of every caller that builds one
DEFAULT_GRID_RESOLUTION = 1024
# the contact points, in the order of every (T, 4) contact-label array and of
# HumanoidModel.contact_bodies and contact_offsets
CONTACT_NAMES = ("l_toe", "r_toe", "l_heel", "r_heel")


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # (V, 3)
    triangles: np.ndarray  # (F, 3) int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        if not np.isfinite(self.vertices).all():
            raise InvalidInputError("mesh has non-finite vertices")
        if len(self.triangles) and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise InvalidInputError("triangle index out of range")

    @property
    def empty(self) -> bool:
        return len(self.vertices) == 0 or len(self.triangles) == 0


@dataclass
class HeightMap:
    """Regular (x, z) grid of top-surface heights, bilinearly interpolated."""

    origin: Tuple[float, float]  # min-corner (x, z) of the grid
    cell_size: float
    heights: np.ndarray  # (nx, nz)
    default_height: float

    def __post_init__(self):
        # row-major, so that queries gather from its flattened view
        self.heights = np.ascontiguousarray(self.heights, dtype=float)
        nx, nz = self.heights.shape
        if nx < 2 or nz < 2:
            raise InvalidInputError("height map needs at least 2x2 cells")
        if not (np.isfinite(self.cell_size) and self.cell_size > 0.0):
            raise InvalidInputError(f"cell_size must be positive and finite, not {self.cell_size!r}")
        if not np.isfinite(self.origin).all():
            raise InvalidInputError(f"height map origin must be finite, not {tuple(self.origin)!r}")
        if not np.isfinite(self.default_height):
            raise InvalidInputError(f"default_height must be finite, not {self.default_height!r}")
        if not np.isfinite(self.heights).all():
            raise InvalidInputError("height map contains non-finite heights")
        # query_height's per-axis constants: the grid's (x, z) bounds, the
        # last cell a point's lower corner may take, and the offsets of a
        # point's four cells in the flattened grid
        self._lo = np.array([float(self.origin[0]), float(self.origin[1])])
        self._hi = np.array([self.origin[0] + nx * self.cell_size, self.origin[1] + nz * self.cell_size])
        self._last = np.array([nx - 2, nz - 2])
        self._corners = np.array([[0, 1], [nz, nz + 1]])


# OBJ statements of one kind converted per numpy call; bounds the token
# strings held at once for a dense mesh
_OBJ_BLOCK = 8192


def load_obj(path: str | Path) -> TriangleMesh:
    """Wavefront OBJ reader: v and f statements only, faces fan-triangulated.

    Vertex coordinates and face indices are converted a block of statements
    at a time, one numpy conversion per block. A malformed statement raises
    MotionFormatError naming the first bad line.
    """
    vertices, indices = [np.empty(0)], [np.empty(0, dtype=np.int64)]  # converted blocks
    v_tokens, v_lines, f_tokens, f_lines, f_counts = [], [], [], [], []
    errors = []  # (lineno, message) of malformed statements

    def convert_vertices():
        sizes = [3] * len(v_lines)
        errors.extend(_convert_block(v_tokens, v_lines, sizes, float, "bad vertex coordinate", vertices))

    def convert_faces():
        sizes = f_counts[len(f_counts) - len(f_lines) :]
        errors.extend(_convert_block(f_tokens, f_lines, sizes, np.int64, "bad face index", indices))

    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    errors.append((lineno, "vertex needs 3 coordinates"))
                    break
                v_tokens.extend(parts[1:4])
                v_lines.append(lineno)
                if len(v_lines) == _OBJ_BLOCK:
                    convert_vertices()
            elif parts[0] == "f":
                idx = [p.split("/")[0] for p in parts[1:]] if "/" in line else parts[1:]
                if len(idx) < 3:
                    errors.append((lineno, "face needs at least 3 vertices"))
                    break
                f_tokens.extend(idx)
                f_lines.append(lineno)
                f_counts.append(len(idx))
                if len(f_lines) == _OBJ_BLOCK:
                    convert_faces()
            if errors:
                break
    # statements still pending precede any error found above
    convert_vertices()
    convert_faces()
    if errors:
        lineno, message = min(errors)
        raise MotionFormatError(f"{path}:{lineno}: {message}")
    flat = np.concatenate(indices) - 1
    # fan (0, k, k + 1), k = 1 .. count - 2, of every face in file order
    counts = np.array(f_counts, dtype=int)
    fans = counts - 2
    first = np.repeat(np.cumsum(counts) - counts, fans)
    k = np.arange(len(first)) - np.repeat(np.cumsum(fans) - fans, fans) + 1
    triangles = np.stack([flat[first], flat[first + k], flat[first + k + 1]], axis=1)
    return TriangleMesh(np.concatenate(vertices).reshape(-1, 3), triangles)


def _convert_block(tokens: list, lines: list, sizes: list, dtype, what: str, out: list) -> list:
    """Append the block's tokens as one array to out and empty the block.

    Returns [] or, when a token does not convert, [(lineno, message)] for
    the first statement (sizes[i] tokens from line lines[i]) that fails."""
    try:
        out.append(np.array(tokens, dtype=dtype))
        return []
    except ValueError:
        start = 0
        for lineno, size in zip(lines, sizes):
            try:
                np.array(tokens[start : start + size], dtype=dtype)
            except ValueError as exc:
                return [(lineno, f"{what}: {exc}")]
            start += size
        raise
    finally:
        tokens.clear()
        lines.clear()


def save_obj(mesh: TriangleMesh, path: str | Path) -> None:
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for t in mesh.triangles:
            fh.write(f"f {int(t[0]) + 1} {int(t[1]) + 1} {int(t[2]) + 1}\n")


# Bounding-box cells one vectorised rasteriser step evaluates; keeps each
# per-cell temporary to a few hundred kB whatever the mesh.
_CHUNK_CELLS = 1 << 14
_EPS = 1e-12


def _plane_heights(px, pz, ay, by, cy, v0x, v0z, v1x, v1z, den):
    """Height of a triangle's plane at plan-view offsets (px, pz) from vertex
    a, and whether each point falls inside the triangle.

    Barycentric weights of b and c from the edge vectors v0 = b - a and
    v1 = c - a with den = v0 x v1; a point is inside when no weight is below
    -1e-12. The arguments broadcast, so one call serves one triangle over a
    block of cells or many triangles over their own cells.
    """
    w1 = (px * v1z - v1x * pz) / den
    w2 = (v0x * pz - px * v0z) / den
    w0 = 1.0 - w1 - w2
    inside = np.minimum(np.minimum(w0, w1), w2) >= -1e-12
    return w0 * ay + w1 * by + w2 * cy, inside


def _planes(verts: np.ndarray, tris: np.ndarray):
    """Per triangle: vertex a's plan position (x, z), then the arguments of
    _plane_heights after (px, pz)."""
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    v0x, v0z = b[:, 0] - a[:, 0], b[:, 2] - a[:, 2]
    v1x, v1z = c[:, 0] - a[:, 0], c[:, 2] - a[:, 2]
    return a[:, 0], a[:, 2], a[:, 1], b[:, 1], c[:, 1], v0x, v0z, v1x, v1z, v0x * v1z - v1x * v0z


def _row_spans(px: np.ndarray, v0x, v0z, v1x, v1z, den) -> Tuple[np.ndarray, np.ndarray]:
    """Per plan-view row offset px, the offsets [lo, hi] along the row
    between which _plane_heights can find the point inside the triangle:
    each barycentric weight is affine along a row, w = alpha + beta pz, and
    its bound -1e-12 gives one end of the span. A weight constant along the
    row (beta 0) bounds nothing. The ends carry rounding, so a caller widens
    the span by a cell; a row that misses the triangle has lo > hi."""
    alpha1, beta1 = px * (v1z / den), -v1x / den
    alpha2, beta2 = px * (-v0z / den), v0x / den
    alpha = np.stack([1.0 - alpha1 - alpha2, alpha1, alpha2])
    beta = np.array([-(beta1 + beta2), beta1, beta2])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (-1e-12 - alpha) / beta
    lo = np.where(beta > 0.0, bound, -np.inf).max(axis=0)
    hi = np.where(beta < 0.0, bound, np.inf).min(axis=0)
    return lo, hi


def _cell_range(centers: np.ndarray, coords: np.ndarray, tris: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First and one-past-last cell whose center lies in [min, max] of each
    triangle's vertex coords (V,), widened by _EPS. A search is monotone in
    its key, so each vertex is searched once and a triangle takes the least
    and greatest of its three vertices' cells, gathered a vertex at a time."""
    lo = np.searchsorted(centers, coords - _EPS, side="left")
    hi = np.searchsorted(centers, coords + _EPS, side="right")
    first, last = lo[tris[:, 0]], hi[tris[:, 0]]
    for k in (1, 2):
        np.minimum(first, lo[tris[:, k]], out=first)
        np.maximum(last, hi[tris[:, k]], out=last)
    return first, last


def build_height_map(
    mesh: TriangleMesh,
    resolution: Tuple[int, int] = (DEFAULT_GRID_RESOLUTION, DEFAULT_GRID_RESOLUTION),
    bounds: Optional[Tuple[float, float, float, float]] = None,
) -> HeightMap:
    """Rasterize the highest surface of a mesh onto a regular grid.

    bounds is (xmin, xmax, zmin, zmax); mesh (x, z) bounding rectangle when
    omitted. heights[i, j] is the y of the highest triangle intersected by the
    downward ray through the center of cell (i, j); uncovered cells get the
    minimum mesh y.

    Triangles are evaluated over their bounding boxes of cells. Those whose
    box holds at most _CHUNK_CELLS cells are grouped by box shape (rows x
    cols), and a run of m triangles of one shape, at most _CHUNK_CELLS cells
    in all, is one (m, rows, cols) broadcast whose plane data (_planes) is
    gathered for that run alone; a triangle with a larger box goes by
    itself, in blocks of rows. Beyond the grid, memory holds a few index
    arrays per triangle and one run's temporaries. Every cell gets the
    arithmetic of a one-triangle scan, and heights fold in with a maximum,
    which does not depend on order, so the result equals a
    triangle-by-triangle scan bit for bit.
    """
    if mesh.empty:
        raise EmptySceneError("cannot build a height map from an empty mesh")
    nx, nz = resolution
    if nx < 2 or nz < 2:
        raise InvalidInputError("grid resolution must be at least 2x2")

    verts = mesh.vertices
    if bounds is None:
        xmin, xmax = verts[:, 0].min(), verts[:, 0].max()
        zmin, zmax = verts[:, 2].min(), verts[:, 2].max()
    else:
        xmin, xmax, zmin, zmax = bounds
    if xmax <= xmin or zmax <= zmin:
        raise InvalidInputError("degenerate (x, z) bounds")

    # Square cells; the grid covers at least the requested rectangle.
    cell = max((xmax - xmin) / nx, (zmax - zmin) / nz)
    default = float(verts[:, 1].min())
    heights = np.full((nx, nz), -np.inf)

    xs = xmin + (np.arange(nx) + 0.5) * cell
    zs = zmin + (np.arange(nz) + 0.5) * cell

    # Project to the (x, z) plane: each triangle's bounding box of cells.
    tris = mesh.triangles
    i0, i1 = _cell_range(xs, verts[:, 0], tris)
    j0, j1 = _cell_range(zs, verts[:, 2], tris)
    cells = (i1 - i0) * (j1 - j0)

    # A triangle larger than a chunk: blocks of whole rows, each evaluated by
    # broadcasting and folded in place, over the columns where one of its
    # rows can meet the triangle (_row_spans).
    for t in np.flatnonzero(cells > _CHUNK_CELLS):
        ax, az, *args = (v[0] for v in _planes(verts, tris[t : t + 1]))
        if abs(args[-1]) < _EPS:
            continue  # degenerate in plan view: vertical wall, no top surface
        step = max(1, _CHUNK_CELLS // int(j1[t] - j0[t]))
        px = xs[i0[t] : i1[t]] - ax
        pz = zs[j0[t] : j1[t]] - az
        starts = np.arange(0, len(px), step)
        lo, hi = _row_spans(px, *args[3:])
        first = np.maximum(np.searchsorted(pz, np.minimum.reduceat(lo, starts), side="left") - 1, 0)
        last = np.minimum(np.searchsorted(pz, np.maximum.reduceat(hi, starts), side="right") + 1, len(pz))
        for r0, c0, c1 in zip(starts.tolist(), first.tolist(), last.tolist()):
            if c0 >= c1:
                continue
            r1 = min(r0 + step, len(px))
            block = heights[i0[t] + r0 : i0[t] + r1, j0[t] + c0 : j0[t] + c1]
            y, inside = _plane_heights(px[r0:r1, None], pz[None, c0:c1], *args)
            np.maximum(block, y, out=block, where=inside)

    # The other triangles, grouped by box shape (rows x cols) and taken in
    # runs of at most _CHUNK_CELLS cells: a run's plane data is gathered for
    # it alone, and its m triangles with area are one (m, rows, cols)
    # broadcast, folded with an unbuffered maximum since neighbouring
    # triangles share cells.
    small = np.flatnonzero((cells > 0) & (cells <= _CHUNK_CELLS))
    shape = ((i1 - i0) * (nz + 1) + (j1 - j0))[small]  # one integer per box shape
    order = np.argsort(shape, kind="stable")  # file order within a shape
    small, shape = small[order], shape[order]
    starts = np.flatnonzero(np.diff(shape, prepend=-1)).tolist()
    flat = heights.reshape(-1)
    for p, q in zip(starts, [*starts[1:], len(small)]):
        r, c = divmod(int(shape[p]), nz + 1)
        step = _CHUNK_CELLS // (r * c)
        for s in range(p, q, step):
            run = small[s : min(s + step, q)]
            planes = _planes(verts, tris[run])
            has_area = np.abs(planes[-1]) >= _EPS  # a vertical wall has no top surface
            ax, az, *args = (v[has_area][:, None, None] for v in planes)
            run = run[has_area]
            i = i0[run, None] + np.arange(r)  # (m, rows)
            j = j0[run, None] + np.arange(c)  # (m, cols)
            y, inside = _plane_heights(xs[i][:, :, None] - ax, zs[j][:, None, :] - az, *args)
            np.maximum.at(flat, (i[:, :, None] * nz + j[:, None, :])[inside], y[inside])

    # one mask marks the cells no triangle covered
    uncovered = np.isfinite(heights)
    np.logical_not(uncovered, out=uncovered)
    np.copyto(heights, default, where=uncovered)
    return HeightMap(origin=(float(xmin), float(zmin)), cell_size=float(cell), heights=heights, default_height=default)


def query_height(hm: HeightMap, x: float | np.ndarray, z: float | np.ndarray) -> float | np.ndarray:
    """Bilinear interpolation of the four surrounding cell-center heights.

    x and z are scalars or arrays that broadcast together. Scalar input
    returns a float, array input an array of the broadcast shape, and each
    element equals the scalar query of its point bit for bit. Points off the
    grid, infinite coordinates included, get the default height; points in
    the half-cell margin inside the grid clamp to the edge cells. A NaN
    coordinate raises InvalidInputError.

    The two coordinates go through each step as one (2, ...) array.
    """
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    if x.shape != z.shape:
        x, z = np.broadcast_arrays(x, z)
    xz = np.empty((2,) + x.shape)
    xz[0], xz[1] = x, z
    if np.isnan(xz).any():
        for name, v in (("x", x), ("z", z)):
            bad = np.isnan(v)
            if bad.any():
                where = f" at index {tuple(int(i) for i in np.argwhere(bad)[0])}" if v.ndim else ""
                raise InvalidInputError(f"height query with non-finite {name} coordinate (NaN){where}")
    nx, nz = hm.heights.shape
    lead = (slice(None),) + (None,) * x.ndim
    lo, hi, last = hm._lo[lead], hm._hi[lead], hm._last[lead]
    off = (xz < lo) | (xz > hi)
    off = off[0] | off[1]
    # off-grid points are evaluated at the origin and replaced below
    g = (np.where(off, lo, xz) - lo) / hm.cell_size - 0.5
    # clamped by minimum and maximum (np.clip's values, at a fraction of its
    # call cost): no coordinate is NaN or -0.0 here
    ij = np.minimum(np.maximum(np.floor(g), 0), last).astype(np.intp)
    # the weights (1 - f, f) of each axis, then their products:
    # weights[a, b] multiplies cell (i0 + a, j0 + b)
    ef = np.empty((2,) + g.shape)
    np.minimum(np.maximum(g - ij, 0.0), 1.0, out=ef[1])
    np.subtract(1, ef[1], out=ef[0])
    weights = ef[:, None, 0] * ef[None, :, 1]
    # cells (i0, j0), (i0, j0 + 1), (i0 + 1, j0), (i0 + 1, j0 + 1) of the flattened grid
    corners = hm.heights.reshape(-1).take((ij[0] * nz + ij[1]) + hm._corners[lead[:1] + lead])
    terms = weights * corners  # summed in the one-point formula's order
    out = terms[0, 0] + terms[1, 0]
    out += terms[0, 1]
    out += terms[1, 1]
    out = np.where(off, hm.default_height, out)
    return float(out) if out.ndim == 0 else out


# the five points of query_surface's stencil, as multiples of the cell size
# along x and z; -0.0 adds exactly nothing
_STENCIL = np.array([[-0.0, 1.0, -1.0, -0.0, -0.0], [-0.0, -0.0, -0.0, 1.0, -1.0]])


def query_surface(
    hm: HeightMap, x: float | np.ndarray, z: float | np.ndarray
) -> Tuple[float | np.ndarray, np.ndarray]:
    """The height (query_height) and the upward unit normal at each point.

    The normal comes from central differences of the interpolated height one
    cell to either side. The point and its four neighbours are one
    query_height call, and each value equals its scalar query bit for bit.
    Scalar x, z give a float and a (3,) array; arrays that broadcast together
    give heights of the broadcast shape and normals of that shape plus (3,).
    """
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    if x.shape != z.shape:
        x, z = np.broadcast_arrays(x, z)
    d = hm.cell_size
    xz = np.empty((2, 1) + x.shape)
    xz[0, 0], xz[1, 0] = x, z
    five = xz + (d * _STENCIL).reshape((2, 5) + (1,) * x.ndim)
    h = query_height(hm, five[0], five[1])
    n = np.empty(x.shape + (3,))
    # (dh/dx, dh/dz) by central differences, negated into the normal's x and z
    np.negative(((h[1::2] - h[2::2]) / (2.0 * d)).transpose(*range(1, h.ndim), 0), out=n[..., ::2])
    n[..., 1] = 1.0
    return (float(h[0]) if x.ndim == 0 else h[0]), n / vector_norms(n)


def save_contacts_csv(labels: np.ndarray, path: str | Path) -> None:
    """Write (T, 4) contact labels, one row per frame."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame",) + CONTACT_NAMES)
        for t, row in enumerate(labels):
            writer.writerow([t] + [int(v) for v in row])


def load_contacts_csv(path: str | Path) -> np.ndarray:
    """(T, 4) bool labels written by save_contacts_csv: every row holds a frame
    index and one 0/1 field per contact point, and row t labels motion frame
    t, so its frame field must read t.

    Fields are taken as written: the frame is ASCII decimal digits and each
    label exactly 0 or 1; int() would also take "1_0", " +1" or "1 "."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[1:5]) != CONTACT_NAMES:
            raise MotionFormatError(f"{path}: expected header frame,{','.join(CONTACT_NAMES)}")
        for rec in reader:
            frame, *labels = rec or [""]
            if not (len(labels) == 4 and frame.isascii() and frame.isdigit() and set(labels) <= {"0", "1"}):
                raise MotionFormatError(
                    f"{path}:{reader.line_num}: expected an integer frame and four 0/1 labels, "
                    f"got {','.join(rec)!r}"
                )
            frame = frame.lstrip("0") or "0"  # the integer's digits, with no length limit
            if frame != str(len(rows)):
                raise MotionFormatError(
                    f"{path}:{reader.line_num}: frame {frame} in row {len(rows)}; row t must label frame t"
                )
            rows.append([v == "1" for v in labels])
    return np.array(rows, dtype=bool).reshape(-1, 4)


_HEIGHT_MAP_MAGIC = "physmotion-heightmap 1"
_HEIGHT_MAP_DATA = b"data float64 row-major\n"  # the header's last line
# load_height_map reads at most this many header lines of at most this many
# bytes before the grid, so a file with no data line is not read whole
_HEADER_LINES, _HEADER_LINE_BYTES = 64, 4096


def save_height_map(hm: HeightMap, path: str | Path) -> None:
    """Text header (origin, cell size, resolution, default) + raw float64 grid."""
    nx, nz = hm.heights.shape
    header = (
        f"{_HEIGHT_MAP_MAGIC}\n"
        f"origin {hm.origin[0]!r} {hm.origin[1]!r}\n"
        f"cell_size {hm.cell_size!r}\n"
        f"resolution {nx} {nz}\n"
        f"default_height {hm.default_height!r}\n"
        f"{_HEIGHT_MAP_DATA.decode('ascii')}"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(hm.heights, dtype="<f8").data)


def load_height_map(path: str | Path) -> HeightMap:
    """Read a save_height_map file. A first line other than the format's,
    a missing or malformed header field, a resolution other than two
    integers >= 2, a grid of any length but the resolution's nx * nz
    float64 values, or a map HeightMap rejects (a non-finite origin, cell
    size, default height or height) raises MotionFormatError naming the
    file.

    The header is read line by line and the grid's length checked against
    the file's size before the grid is allocated; the grid is then read
    once, straight into the map's (nx, nz) array."""
    with open(path, "rb") as fh:
        try:
            magic = fh.readline(_HEADER_LINE_BYTES).rstrip(b"\n")
            if magic != _HEIGHT_MAP_MAGIC.encode("ascii"):
                raise ValueError(f"first line {magic[:40]!r} is not {_HEIGHT_MAP_MAGIC!r}")
            lines = []
            while (line := fh.readline(_HEADER_LINE_BYTES)) != _HEIGHT_MAP_DATA:
                if not line.endswith(b"\n") or len(lines) == _HEADER_LINES:
                    raise ValueError(f"header does not end in {_HEIGHT_MAP_DATA.decode('ascii')!r}")
                lines.append(line[:-1])
            fields = dict(line.split(b" ", 1) for line in lines)
            ox, oz = (float(v) for v in fields[b"origin"].split())
            cell = float(fields[b"cell_size"])
            nx, nz = _resolution(fields[b"resolution"])
            default = float(fields[b"default_height"])
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size == 8 * nx * nz:
                heights = np.empty((nx, nz), dtype="<f8")
                size = fh.readinto(heights.data.cast("B"))  # less only if the file shrank since
            if size != 8 * nx * nz:
                raise ValueError(f"grid holds {size} bytes, not the {nx} x {nz} float64 values of its resolution")
            return HeightMap(origin=(ox, oz), cell_size=cell, heights=heights, default_height=default)
        except (KeyError, ValueError, InvalidInputError) as exc:
            raise MotionFormatError(f"{path}: malformed height map file: {exc}") from exc


def _resolution(value: bytes) -> Tuple[int, int]:
    """The header's resolution field: two integers, each at least 2."""
    try:
        nx, nz = (int(v) for v in value.split())
    except ValueError:
        nx = nz = 0
    if nx < 2 or nz < 2:
        raise ValueError(f"resolution must be two integers >= 2, not {value.decode('ascii', 'replace')!r}")
    return nx, nz


def make_box_mesh(
    xmin: float, xmax: float, zmin: float, zmax: float, y: float
) -> TriangleMesh:
    """Horizontal quad at constant height, two triangles."""
    verts = np.array(
        [
            [xmin, y, zmin],
            [xmax, y, zmin],
            [xmax, y, zmax],
            [xmin, y, zmax],
        ]
    )
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(verts, tris)


def merge_meshes(meshes: Sequence[TriangleMesh]) -> TriangleMesh:
    verts = []
    tris = []
    offset = 0
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        offset += len(m.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(tris))
