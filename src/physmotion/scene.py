"""Height-map scene representation built from a triangle mesh.

The map stores the top surface only: a vertical downward ray is cast through
every cell center and the highest hit wins. Cells the mesh never covers get
the minimum mesh height so queries off the scanned area degrade gracefully.

The rasteriser is vectorised over triangles, in chunks of bounding-box cells
so its memory stays flat for dense scanned meshes and whole-scene quads
alike. Height and normal queries take scalars or arrays of points; one call
answers a frame's contact points or a whole sequence.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptySceneError, InvalidInputError, MotionFormatError

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
        self.heights = np.asarray(self.heights, dtype=float)
        nx, nz = self.heights.shape
        if nx < 2 or nz < 2:
            raise InvalidInputError("height map needs at least 2x2 cells")
        if self.cell_size <= 0.0:
            raise InvalidInputError("cell_size must be positive")
        if not np.isfinite(self.heights).all():
            raise InvalidInputError("height map contains non-finite heights")

    @property
    def resolution(self) -> Tuple[int, int]:
        return self.heights.shape

    def cell_center(self, i: int, j: int) -> Tuple[float, float]:
        return (
            self.origin[0] + (i + 0.5) * self.cell_size,
            self.origin[1] + (j + 0.5) * self.cell_size,
        )


def load_obj(path: str | Path) -> TriangleMesh:
    """Wavefront OBJ reader: v and f statements only, faces fan-triangulated."""
    vertices = []
    faces = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MotionFormatError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as exc:
                    raise MotionFormatError(f"{path}:{lineno}: bad vertex coordinate: {exc}") from exc
            elif parts[0] == "f":
                try:
                    idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                except ValueError as exc:
                    raise MotionFormatError(f"{path}:{lineno}: bad face index: {exc}") from exc
                if len(idx) < 3:
                    raise MotionFormatError(f"{path}:{lineno}: face needs at least 3 vertices")
                for k in range(1, len(idx) - 1):
                    faces.append([idx[0], idx[k], idx[k + 1]])
    return TriangleMesh(np.array(vertices).reshape(-1, 3), np.array(faces, dtype=int).reshape(-1, 3))


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
    x, z = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
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
    i0 = np.clip(np.floor(gx), 0, nx - 2).astype(np.intp)
    j0 = np.clip(np.floor(gz), 0, nz - 2).astype(np.intp)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fz = np.clip(gz - j0, 0.0, 1.0)
    h = hm.heights
    out = np.where(
        off,
        hm.default_height,
        (1 - fx) * (1 - fz) * h[i0, j0]
        + fx * (1 - fz) * h[i0 + 1, j0]
        + (1 - fx) * fz * h[i0, j0 + 1]
        + fx * fz * h[i0 + 1, j0 + 1],
    )
    return float(out) if out.ndim == 0 else out


def surface_normal(hm: HeightMap, x: float | np.ndarray, z: float | np.ndarray) -> np.ndarray:
    """Upward unit normal from central differences of the interpolated height.

    Scalar x, z give a (3,) array; arrays that broadcast together give
    (..., 3). The four neighbour heights of every point come from one query.
    """
    x, z = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
    d = hm.cell_size
    h = query_height(hm, np.stack([x + d, x - d, x, x]), np.stack([z, z, z + d, z - d]))
    dhdx = (h[0] - h[1]) / (2.0 * d)
    dhdz = (h[2] - h[3]) / (2.0 * d)
    n = np.stack([-dhdx, np.ones_like(dhdx), -dhdz], axis=-1)
    # length from the same dot product np.linalg.norm takes of one vector
    return n / np.sqrt(n[..., None, :] @ n[..., :, None])[..., 0]


def penetration_check(foot_pos: np.ndarray, hm: HeightMap) -> bool:
    """True iff the point is strictly below the interpolated surface."""
    p = np.asarray(foot_pos, dtype=float)
    return bool(p[1] < query_height(hm, p[0], p[2]))


@dataclass
class ContactLabels:
    """Per-frame booleans for (l_toe, r_toe, l_heel, r_heel)."""

    data: np.ndarray  # (T, 4) bool

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=bool).reshape(-1, 4)

    def __len__(self) -> int:
        return len(self.data)

    def frame(self, t: int) -> np.ndarray:
        return self.data[t]


def label_contacts(
    joint_positions: np.ndarray, mesh: TriangleMesh, threshold: float = 0.05
) -> ContactLabels:
    """Mark an end effector in contact when its distance to the nearest scene
    vertex is below the threshold (5 cm by default).

    joint_positions is (T, 4, 3) in the (l_toe, r_toe, l_heel, r_heel) order.
    Vertex distance, not point-to-triangle distance; a coarse mesh therefore
    under-reports contact between vertices.
    """
    if mesh.empty:
        raise EmptySceneError("cannot label contacts against an empty mesh")
    pts = np.asarray(joint_positions, dtype=float)
    if pts.size == 0:
        return ContactLabels(np.zeros((0, 4), dtype=bool))
    pts = pts.reshape(-1, 4, 3)
    tree = cKDTree(mesh.vertices)
    dist, _ = tree.query(pts.reshape(-1, 3))
    return ContactLabels(dist.reshape(-1, 4) < threshold)


def save_contacts_csv(labels: ContactLabels, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame",) + CONTACT_NAMES)
        for t, row in enumerate(labels.data):
            writer.writerow([t] + [int(v) for v in row])


def load_contacts_csv(path: str | Path) -> ContactLabels:
    """Per-frame labels written by save_contacts_csv: every row holds a frame
    index and one 0/1 field per contact point."""
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
            rows.append([v == 1 for v in labels])
    return ContactLabels(np.array(rows, dtype=bool).reshape(-1, 4))


def save_height_map(hm: HeightMap, path: str | Path) -> None:
    """Text header (origin, cell size, resolution, default) + raw float64 grid."""
    nx, nz = hm.heights.shape
    header = (
        "physmotion-heightmap 1\n"
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
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        head, body = blob.split(b"data float64 row-major\n", 1)
        fields = dict(
            line.split(b" ", 1) for line in head.strip().split(b"\n")[1:]
        )
        ox, oz = (float(v) for v in fields[b"origin"].split())
        cell = float(fields[b"cell_size"])
        nx, nz = (int(v) for v in fields[b"resolution"].split())
        default = float(fields[b"default_height"])
        heights = np.frombuffer(body, dtype="<f8", count=nx * nz).reshape(nx, nz)
    except (KeyError, ValueError) as exc:
        raise MotionFormatError(f"{path}: malformed height map file: {exc}") from exc
    return HeightMap(origin=(ox, oz), cell_size=cell, heights=heights.copy(), default_height=default)


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
