"""Height-map scene representation built from a triangle mesh.

The map stores the top surface only: a vertical downward ray is cast through
every cell center and the highest hit wins. Cells the mesh never covers get
the minimum mesh height so queries off the scanned area degrade gracefully.

The rasteriser is vectorised over triangles, in chunks of bounding-box cells
so its memory stays flat for dense scanned meshes and whole-scene quads
alike. Height and normal queries take scalars or arrays of points; one call
answers a frame's contact points or a whole sequence (the refinement's
foot targets, the penetration metric). A query gathers the four cells of
each point from the flattened grid, which HeightMap keeps row-major.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import EmptySceneError, InvalidInputError, MotionFormatError
from .rotations import vector_norms

DEFAULT_GRID_RESOLUTION = (1024, 1024)
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
    a, or -inf where the point falls outside the triangle.

    Barycentric weights of b and c from the edge vectors v0 = b - a and
    v1 = c - a with den = v0 x v1; the arguments broadcast, so one call
    serves one triangle over a block of cells or many triangles over their
    own cells.
    """
    w1 = (px * v1z - v1x * pz) / den
    w2 = (v0x * pz - px * v0z) / den
    w0 = 1.0 - w1 - w2
    inside = (w0 >= -1e-12) & (w1 >= -1e-12) & (w2 >= -1e-12)
    y = w0 * ay + w1 * by + w2 * cy
    return np.where(inside, y, -np.inf)


def _planes(verts: np.ndarray, tris: np.ndarray):
    """Per triangle: vertex a's plan position (x, z), then the arguments of
    _plane_heights after (px, pz)."""
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    v0x, v0z = b[:, 0] - a[:, 0], b[:, 2] - a[:, 2]
    v1x, v1z = c[:, 0] - a[:, 0], c[:, 2] - a[:, 2]
    return a[:, 0], a[:, 2], a[:, 1], b[:, 1], c[:, 1], v0x, v0z, v1x, v1z, v0x * v1z - v1x * v0z


def _cell_range(centers: np.ndarray, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First and one-past-last cell whose center lies in [min, max] of each
    row of coords, widened by _EPS."""
    lo = np.searchsorted(centers, coords.min(axis=1) - _EPS, side="left")
    hi = np.searchsorted(centers, coords.max(axis=1) + _EPS, side="right")
    return lo, hi


def build_height_map(
    mesh: TriangleMesh,
    resolution: Tuple[int, int] = DEFAULT_GRID_RESOLUTION,
    bounds: Optional[Tuple[float, float, float, float]] = None,
) -> HeightMap:
    """Rasterize the highest surface of a mesh onto a regular grid.

    bounds is (xmin, xmax, zmin, zmax); mesh (x, z) bounding rectangle when
    omitted. heights[i, j] is the y of the highest triangle intersected by the
    downward ray through the center of cell (i, j); uncovered cells get the
    minimum mesh y.

    Triangles are evaluated over their bounding boxes of cells in chunks of
    about _CHUNK_CELLS cells; a triangle whose box is larger than that goes
    by itself, in blocks of rows. Heights fold in with a maximum, which does
    not depend on order, so the result equals a triangle-by-triangle scan
    bit for bit.
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
    i0, i1 = _cell_range(xs, verts[tris, 0])
    j0, j1 = _cell_range(zs, verts[tris, 2])
    cells = (i1 - i0) * (j1 - j0)

    # A triangle larger than a chunk: blocks of whole rows, each evaluated by
    # broadcasting and folded in place.
    for t in np.flatnonzero(cells > _CHUNK_CELLS):
        ax, az, *args = (v[0] for v in _planes(verts, tris[t : t + 1]))
        if abs(args[-1]) < _EPS:
            continue  # degenerate in plan view: vertical wall, no top surface
        step = max(1, _CHUNK_CELLS // int(j1[t] - j0[t]))
        pz = (zs[j0[t] : j1[t]] - az)[None, :]
        for r0 in range(i0[t], i1[t], step):
            r1 = min(r0 + step, i1[t])
            block = heights[r0:r1, j0[t] : j1[t]]
            np.maximum(block, _plane_heights((xs[r0:r1] - ax)[:, None], pz, *args), out=block)

    # The other triangles, in consecutive runs of about _CHUNK_CELLS cells:
    # a new chunk starts at the triangle holding each multiple of it, so a
    # chunk holds fewer than 2 * _CHUNK_CELLS cells. Every cell of every box
    # is one entry, folded with an unbuffered maximum since neighbouring
    # triangles share cells.
    small = np.flatnonzero((cells > 0) & (cells <= _CHUNK_CELLS))
    end = np.cumsum(cells[small])
    total = end[-1] if len(end) else 0
    cuts = np.searchsorted(end, np.arange(_CHUNK_CELLS, total, _CHUNK_CELLS), side="right")
    edges = np.unique(np.concatenate([[0], cuts, [len(small)]]))
    flat = heights.reshape(-1)
    for p, q in zip(edges[:-1], edges[1:]):
        t = small[p:q]
        planes = _planes(verts, tris[t])
        has_area = np.abs(planes[-1]) >= _EPS  # a vertical wall has no top surface
        t, planes = t[has_area], [v[has_area] for v in planes]
        cols = j1[t] - j0[t]
        n = cells[t]
        owner = np.repeat(np.arange(len(t)), n)
        local = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        r = local // cols[owner]
        i = i0[t][owner] + r
        j = j0[t][owner] + (local - r * cols[owner])
        ax, az, *args = (v[owner] for v in planes)
        y = _plane_heights(xs[i] - ax, zs[j] - az, *args)
        hit = y > -np.inf
        np.maximum.at(flat, (i * nz + j)[hit], y[hit])

    heights[~np.isfinite(heights)] = default
    return HeightMap(origin=(float(xmin), float(zmin)), cell_size=float(cell), heights=heights, default_height=default)


def query_height(hm: HeightMap, x: float | np.ndarray, z: float | np.ndarray) -> float | np.ndarray:
    """Bilinear interpolation of the four surrounding cell-center heights.

    x and z are scalars or arrays that broadcast together. Scalar input
    returns a float, array input an array of the broadcast shape, and each
    element equals the scalar query of its point bit for bit. Points off the
    grid, infinite coordinates included, get the default height; points in
    the half-cell margin inside the grid clamp to the edge cells. A NaN
    coordinate raises InvalidInputError.
    """
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    if x.shape != z.shape:
        x, z = np.broadcast_arrays(x, z)
    for name, v in (("x", x), ("z", z)):
        bad = np.isnan(v)
        if bad.any():
            where = f" at index {tuple(int(i) for i in np.argwhere(bad)[0])}" if v.ndim else ""
            raise InvalidInputError(f"height query with non-finite {name} coordinate (NaN){where}")
    nx, nz = hm.heights.shape
    ox, oz = hm.origin
    off = (x < ox) | (x > ox + nx * hm.cell_size) | (z < oz) | (z > oz + nz * hm.cell_size)
    # off-grid points are evaluated at the origin and replaced below
    gx = (np.where(off, ox, x) - ox) / hm.cell_size - 0.5
    gz = (np.where(off, oz, z) - oz) / hm.cell_size - 0.5
    # clamped by minimum and maximum (np.clip's values, at a fraction of its
    # call cost): no coordinate is NaN or -0.0 here
    i0 = np.minimum(np.maximum(np.floor(gx), 0), nx - 2).astype(np.intp)
    j0 = np.minimum(np.maximum(np.floor(gz), 0), nz - 2).astype(np.intp)
    fx = np.minimum(np.maximum(gx - i0, 0.0), 1.0)
    fz = np.minimum(np.maximum(gz - j0, 0.0), 1.0)
    ex, ez = 1 - fx, 1 - fz
    # cells (i0, j0), (i0 + 1, j0), (i0, j0 + 1), (i0 + 1, j0 + 1) of the flattened grid
    h = hm.heights.reshape(-1)
    cell = i0 * nz + j0
    out = np.where(
        off,
        hm.default_height,
        ex * ez * h[cell] + fx * ez * h[cell + nz] + ex * fz * h[cell + 1] + fx * fz * h[cell + nz + 1],
    )
    return float(out) if out.ndim == 0 else out


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
    x, z = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
    d = hm.cell_size
    five = (5,) + x.shape
    h = query_height(
        hm, np.concatenate([x, x + d, x - d, x, x], axis=None).reshape(five),
        np.concatenate([z, z, z, z + d, z - d], axis=None).reshape(five),
    )
    dhdx = (h[1] - h[2]) / (2.0 * d)
    dhdz = (h[3] - h[4]) / (2.0 * d)
    n = np.empty(x.shape + (3,))
    n[..., 0], n[..., 1], n[..., 2] = -dhdx, 1.0, -dhdz
    return (float(h[0]) if x.ndim == 0 else h[0]), n / vector_norms(n)


@dataclass
class ContactLabels:
    """Per-frame booleans for (l_toe, r_toe, l_heel, r_heel)."""

    data: np.ndarray  # (T, 4) bool

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=bool).reshape(-1, 4)

    def __len__(self) -> int:
        return len(self.data)


def save_contacts_csv(labels: ContactLabels, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame",) + CONTACT_NAMES)
        for t, row in enumerate(labels.data):
            writer.writerow([t] + [int(v) for v in row])


def load_contacts_csv(path: str | Path) -> ContactLabels:
    """Per-frame labels written by save_contacts_csv: every row holds a frame
    index and one 0/1 field per contact point, and row t labels motion frame
    t, so its frame field must read t."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[1:5]) != CONTACT_NAMES:
            raise MotionFormatError(f"{path}: expected header frame,{','.join(CONTACT_NAMES)}")
        for rec in reader:
            try:
                values = [int(v) for v in rec]
            except ValueError:
                values = []  # reported below like a short row
            labels = values[1:]
            if len(values) != 5 or any(v not in (0, 1) for v in labels):
                raise MotionFormatError(
                    f"{path}:{reader.line_num}: expected an integer frame and four 0/1 labels, "
                    f"got {','.join(rec)!r}"
                )
            if values[0] != len(rows):
                raise MotionFormatError(
                    f"{path}:{reader.line_num}: frame {values[0]} in row {len(rows)}; row t must label frame t"
                )
            rows.append([v == 1 for v in labels])
    return ContactLabels(np.array(rows, dtype=bool).reshape(-1, 4))


_HEIGHT_MAP_MAGIC = "physmotion-heightmap 1"


def save_height_map(hm: HeightMap, path: str | Path) -> None:
    """Text header (origin, cell size, resolution, default) + raw float64 grid."""
    nx, nz = hm.heights.shape
    header = (
        f"{_HEIGHT_MAP_MAGIC}\n"
        f"origin {hm.origin[0]!r} {hm.origin[1]!r}\n"
        f"cell_size {hm.cell_size!r}\n"
        f"resolution {nx} {nz}\n"
        f"default_height {hm.default_height!r}\n"
        "data float64 row-major\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(hm.heights, dtype="<f8").data)


def load_height_map(path: str | Path) -> HeightMap:
    """Read a save_height_map file. A first line other than the format's,
    a missing or malformed header field, a grid of any length but the
    resolution's nx * nz float64 values, or a map HeightMap rejects (a
    non-finite origin, cell size, default height or height, fewer than 2x2
    cells) raises MotionFormatError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        head, body = blob.split(b"data float64 row-major\n", 1)
        magic, *lines = head.strip().split(b"\n")
        if magic != _HEIGHT_MAP_MAGIC.encode("ascii"):
            raise ValueError(f"first line {magic[:40]!r} is not {_HEIGHT_MAP_MAGIC!r}")
        fields = dict(line.split(b" ", 1) for line in lines)
        ox, oz = (float(v) for v in fields[b"origin"].split())
        cell = float(fields[b"cell_size"])
        nx, nz = (int(v) for v in fields[b"resolution"].split())
        default = float(fields[b"default_height"])
        if len(body) != 8 * nx * nz:
            raise ValueError(f"grid holds {len(body)} bytes, not the {nx} x {nz} float64 values of its resolution")
        heights = np.frombuffer(body, dtype="<f8").reshape(nx, nz)
        return HeightMap(origin=(ox, oz), cell_size=cell, heights=heights.copy(), default_height=default)
    except (KeyError, ValueError, InvalidInputError) as exc:
        raise MotionFormatError(f"{path}: malformed height map file: {exc}") from exc


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
