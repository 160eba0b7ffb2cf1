import tracemalloc

import numpy as np
import pytest
from oracles import query_height_scalar, query_surface_scalar

from physmotion import scene
from physmotion.errors import EmptySceneError, InvalidInputError, MotionFormatError
from physmotion.metrics import penetration_stats
from physmotion.motion import MotionSequence
from physmotion.rotations import vector_norms
from physmotion.scene import (
    HeightMap,
    TriangleMesh,
    build_height_map,
    load_contacts_csv,
    load_height_map,
    load_obj,
    make_box_mesh,
    merge_meshes,
    query_height,
    query_surface,
    save_contacts_csv,
    save_height_map,
    save_obj,
)
from physmotion.synth import scene_mesh


def plane_mesh(slope_x: float, extent: float = 1.0) -> TriangleMesh:
    xs = np.array([0.0, extent])
    verts = np.array(
        [
            [xs[0], slope_x * xs[0], 0.0],
            [xs[1], slope_x * xs[1], 0.0],
            [xs[1], slope_x * xs[1], extent],
            [xs[0], slope_x * xs[0], extent],
        ]
    )
    return TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def loop_height_map(mesh: TriangleMesh, resolution, bounds=None) -> np.ndarray:
    """Reference rasteriser: one triangle at a time over its whole bounding box.

    The grid set-up and the per-cell arithmetic are those build_height_map
    documents, so its heights must equal these bit for bit.
    """
    nx, nz = resolution
    verts = mesh.vertices
    if bounds is None:
        xmin, xmax = verts[:, 0].min(), verts[:, 0].max()
        zmin, zmax = verts[:, 2].min(), verts[:, 2].max()
    else:
        xmin, xmax, zmin, zmax = bounds
    cell = max((xmax - xmin) / nx, (zmax - zmin) / nz)
    heights = np.full((nx, nz), -np.inf)
    xs = xmin + (np.arange(nx) + 0.5) * cell
    zs = zmin + (np.arange(nz) + 0.5) * cell
    eps = 1e-12
    for a, b, c in verts[mesh.triangles]:
        lo_x, hi_x = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
        lo_z, hi_z = min(a[2], b[2], c[2]), max(a[2], b[2], c[2])
        i0 = int(np.searchsorted(xs, lo_x - eps, side="left"))
        i1 = int(np.searchsorted(xs, hi_x + eps, side="right"))
        j0 = int(np.searchsorted(zs, lo_z - eps, side="left"))
        j1 = int(np.searchsorted(zs, hi_z + eps, side="right"))
        if i0 >= i1 or j0 >= j1:
            continue
        v0 = np.array([b[0] - a[0], b[2] - a[2]])
        v1 = np.array([c[0] - a[0], c[2] - a[2]])
        den = v0[0] * v1[1] - v1[0] * v0[1]
        if abs(den) < eps:
            continue
        px, pz = np.meshgrid(xs[i0:i1] - a[0], zs[j0:j1] - a[2], indexing="ij")
        w1 = (px * v1[1] - v1[0] * pz) / den
        w2 = (v0[0] * pz - px * v0[1]) / den
        w0 = 1.0 - w1 - w2
        inside = (w0 >= -1e-12) & (w1 >= -1e-12) & (w2 >= -1e-12)
        y = w0 * a[1] + w1 * b[1] + w2 * c[1]
        block = heights[i0:i1, j0:j1]
        np.maximum(block, np.where(inside, y, -np.inf), out=block)
    heights[~np.isfinite(heights)] = verts[:, 1].min()
    return heights


def wave_terrain(rng, n: int = 40) -> TriangleMesh:
    """Seeded sum-of-waves surface on an n x n vertex grid over 3 m x 5 m."""
    gx, gz = np.meshgrid(np.linspace(-1.0, 2.0, n), np.linspace(0.5, 5.5, n), indexing="ij")
    k, phase = rng.uniform(2.0, 9.0, size=(4, 2)), rng.uniform(0.0, 2 * np.pi, size=4)
    gy = 0.03 * np.sin(gx[..., None] * k[:, 0] + gz[..., None] * k[:, 1] + phase).sum(axis=-1)
    idx = np.arange(n * n).reshape(n, n)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    tris = np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, d], 1)])
    return TriangleMesh(np.stack([gx, gy, gz], axis=-1).reshape(-1, 3), tris)


def vertical_wall() -> TriangleMesh:
    """Two triangles standing over the diagonal x = z of the unit square: no
    area in plan view, though the line passes through cell centers."""
    verts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    return TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


class TestBuildHeightMap:
    def test_flat_quad(self):
        hm = build_height_map(make_box_mesh(0, 1, 0, 1, 0.0), (8, 8))
        assert np.abs(hm.heights).max() == 0.0

    def test_analytic_inclined_plane(self):
        hm = build_height_map(plane_mesh(0.1), (16, 16))
        for i in range(16):
            x_center = hm.origin[0] + (i + 0.5) * hm.cell_size
            assert np.abs(hm.heights[i, :] - 0.1 * x_center).max() < 1e-9

    def test_stacked_quads_highest_hit(self):
        lower = make_box_mesh(0, 1, 0, 1, 0.0)
        upper = make_box_mesh(0.5, 1, 0, 1, 0.2)
        hm = build_height_map(merge_meshes([lower, upper]), (10, 10))
        for i in range(10):
            x_center = hm.origin[0] + (i + 0.5) * hm.cell_size
            expected = 0.2 if x_center > 0.5 else 0.0
            assert np.abs(hm.heights[i, :] - expected).max() < 1e-12

    def test_uncovered_cells_get_min_mesh_y(self):
        mesh = make_box_mesh(0, 0.4, 0, 0.4, 0.3)
        hm = build_height_map(mesh, (8, 8), bounds=(0, 1, 0, 1))
        assert hm.default_height == 0.3
        assert hm.heights[-1, -1] == 0.3  # no geometry there

    def test_monotonic_under_added_geometry(self):
        base = make_box_mesh(0, 1, 0, 1, 0.0)
        hm0 = build_height_map(base, (12, 12))
        added = merge_meshes([base, make_box_mesh(0.2, 0.6, 0.2, 0.6, 0.5)])
        hm1 = build_height_map(added, (12, 12))
        assert np.all(hm1.heights >= hm0.heights - 1e-12)

    def test_empty_mesh_rejected(self):
        with pytest.raises(EmptySceneError):
            build_height_map(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)), (4, 4))


def traced_peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_mesh(rng, n: int) -> TriangleMesh:
    """n x n seeded vertices over the unit square, jittered in plan and
    height, two triangles per grid square."""
    x, z = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n), indexing="ij")
    x = x + rng.uniform(-0.3, 0.3, x.shape) / n
    z = z + rng.uniform(-0.3, 0.3, z.shape) / n
    verts = np.stack([x.ravel(), rng.normal(scale=0.05, size=n * n), z.ravel()], axis=1)
    k = np.arange(n * n).reshape(n, n)[:-1, :-1].ravel()
    return TriangleMesh(verts, np.concatenate([np.stack([k, k + 1, k + n + 1], 1), np.stack([k, k + n + 1, k + n], 1)]))


def test_small_triangles_take_plane_data_one_run_at_a_time(rng):
    # 180,000 triangles of about 4 x 4 cells each: the plane tables of every
    # triangle at once would hold about 200 B per triangle beyond the grid
    mesh = grid_mesh(rng, 301)
    assert len(mesh.triangles) == 180_000
    hm, peak = traced_peak(lambda: build_height_map(mesh, (1024, 1024)))
    assert (peak - hm.heights.nbytes) / len(mesh.triangles) <= 120


class TestRasteriserMatchesLoop:
    """build_height_map against the triangle-by-triangle reference, bit for bit."""

    def check(self, mesh, resolution, bounds=None):
        hm = build_height_map(mesh, resolution, bounds)
        expected = loop_height_map(mesh, resolution, bounds)
        assert hm.heights.tobytes() == expected.tobytes()
        return hm

    def test_wave_terrain(self, rng):
        self.check(wave_terrain(rng), (96, 160))

    def test_stacked_overlapping_meshes(self, rng):
        mesh = merge_meshes(
            [
                wave_terrain(rng, n=12),
                make_box_mesh(-0.5, 1.0, 1.0, 3.0, 0.02),
                make_box_mesh(0.0, 1.5, 2.0, 4.0, -0.01),
                plane_mesh(0.2, extent=2.0),
            ]
        )
        self.check(mesh, (64, 64))

    def test_vertical_wall_adds_no_surface(self):
        mesh = merge_meshes([make_box_mesh(0, 1, 0, 1, 0.0), vertical_wall()])
        hm = self.check(mesh, (16, 16))
        assert np.abs(hm.heights).max() == 0.0

    def test_only_vertical_walls(self):
        hm = self.check(vertical_wall(), (8, 8), bounds=(0, 1, 0, 1))
        assert np.all(hm.heights == 0.0)
        # each wall triangle's box now spans more cells than one chunk
        hm = self.check(vertical_wall(), (200, 200), bounds=(0, 1, 0, 1))
        assert hm.heights.size > scene._CHUNK_CELLS and np.all(hm.heights == 0.0)

    def test_bounds_clip_triangles(self, rng):
        self.check(wave_terrain(rng, n=20), (50, 50), bounds=(0.0, 1.5, 1.0, 3.0))
        self.check(wave_terrain(rng, n=20), (50, 50), bounds=(-3.0, 0.0, -1.0, 1.0))

    def test_non_square_resolution(self, rng):
        self.check(merge_meshes([wave_terrain(rng, n=15), make_box_mesh(0, 1, 1, 2, 0.05)]), (37, 64))

    def test_triangle_larger_than_one_chunk(self, rng):
        # each box triangle covers about half of 200 x 300 cells, several
        # chunks' worth, next to many small terrain triangles
        mesh = merge_meshes([make_box_mesh(-1.0, 2.0, 0.5, 5.5, -0.02), wave_terrain(rng, n=10)])
        hm = self.check(mesh, (200, 300))
        assert hm.heights.size // 2 > scene._CHUNK_CELLS

    def test_mixed_size_overlapping_soup(self):
        # boxes from one cell to past a chunk, so many box shapes, each run
        # of one shape folding over cells its neighbours also cover
        mesh = triangle_soup(np.random.default_rng(11), 600, (0.002, 0.3))
        bounds = (0.0, 1.0, 0.0, 1.0)
        shapes = box_shapes(mesh, (240, 320), bounds)
        assert len(set(shapes)) > 300 and max(r * c for r, c in shapes) > scene._CHUNK_CELLS
        self.check(mesh, (240, 320), bounds)

    def test_every_triangle_one_box_shape(self):
        # one triangle copied at whole-cell offsets with seeded heights: a
        # single shape group of several runs whose triangles overlap
        rng = np.random.default_rng(12)
        base = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.125], [0.1875, 0.0, 0.4375]])
        shifts = rng.integers(0, 96, size=(700, 2)) / 64.0
        verts = base[None] + np.stack([shifts[:, 0], np.zeros(700), shifts[:, 1]], axis=1)[:, None]
        verts[:, :, 1] = rng.normal(size=(700, 3))
        mesh = TriangleMesh(verts.reshape(-1, 3), np.arange(2100).reshape(700, 3))
        bounds = (0.0, 2.0, 0.0, 2.0)
        shapes = box_shapes(mesh, (128, 128), bounds)
        (rows, cols), = set(shapes)
        assert len(shapes) * rows * cols > 2 * scene._CHUNK_CELLS
        self.check(mesh, (128, 128), bounds)

    def test_no_triangle_within_one_chunk(self):
        quad = make_box_mesh(0.0, 1.0, 0.0, 1.0, 0.25)
        assert min(r * c for r, c in box_shapes(quad, (200, 200))) > scene._CHUNK_CELLS
        hm = self.check(quad, (200, 200))
        assert np.abs(hm.heights - 0.25).max() < 1e-12

    def test_large_triangles_of_every_orientation(self):
        # each box spans more than a chunk: right triangles with legs along
        # the axes (a weight constant along rows), the same turned about the
        # centre, slivers a cell or less wide, and triangles past the bounds
        rng = np.random.default_rng(14)
        legs = rng.uniform(0.6, 1.3, size=(12, 2))
        plan = np.zeros((12, 3, 2))
        plan[:, 1, 0], plan[:, 2, 1] = legs[:, 0], legs[:, 1]
        plan[8:, 2] = 0.6 * plan[8:, 1] + rng.uniform(-2e-3, 2e-3, size=(4, 2))  # slivers
        turn = rng.uniform(0.0, 2.0 * np.pi, 12)
        turn[:4] = 0.0
        rot = np.stack([np.cos(turn), -np.sin(turn), np.sin(turn), np.cos(turn)], axis=1).reshape(12, 2, 2)
        plan = (plan - plan.mean(axis=1, keepdims=True)) @ rot.transpose(0, 2, 1) + rng.uniform(0.3, 0.7, (12, 1, 2))
        verts = np.stack([plan[..., 0], rng.normal(size=(12, 3)), plan[..., 1]], axis=-1)
        mesh = TriangleMesh(verts.reshape(-1, 3), np.arange(36).reshape(12, 3))
        for bounds, resolution in (((0.0, 1.0, 0.0, 1.0), (400, 400)), (None, (1000, 640))):
            assert min(r * c for r, c in box_shapes(mesh, resolution, bounds)) > scene._CHUNK_CELLS
            self.check(mesh, resolution, bounds)

    def test_blocks_stay_within_two_chunks(self, monkeypatch):
        mesh = merge_meshes(
            [triangle_soup(np.random.default_rng(13), 300, (0.002, 0.3)), make_box_mesh(-1.0, 2.0, -1.0, 2.0, -0.5)]
        )
        sizes = []
        plane_heights = scene._plane_heights

        def spy(*args):
            y, inside = plane_heights(*args)
            sizes.append(y.size)
            return y, inside

        monkeypatch.setattr(scene, "_plane_heights", spy)
        self.check(mesh, (256, 256))
        assert max(sizes) <= 2 * scene._CHUNK_CELLS


def triangle_soup(rng, n: int, size_range) -> TriangleMesh:
    """n seeded triangles over about the unit square, each with its own
    vertices, of sizes log-uniform in size_range (m)."""
    center = rng.uniform(0.0, 1.0, size=(n, 1, 3))
    size = np.exp(rng.uniform(*np.log(size_range), size=(n, 1, 1)))
    verts = center + rng.normal(size=(n, 3, 3)) * size
    return TriangleMesh(verts.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))


def box_shapes(mesh: TriangleMesh, resolution, bounds=None) -> list:
    """(rows, cols) of each triangle's bounding box of cell centers, on the
    grid loop_height_map lays out."""
    verts = mesh.vertices
    if bounds is None:
        bounds = (verts[:, 0].min(), verts[:, 0].max(), verts[:, 2].min(), verts[:, 2].max())
    xmin, xmax, zmin, zmax = bounds
    cell = max((xmax - xmin) / resolution[0], (zmax - zmin) / resolution[1])
    shapes = []
    for axis, lo, n in ((0, xmin, resolution[0]), (2, zmin, resolution[1])):
        centers = lo + (np.arange(n) + 0.5) * cell
        coords = verts[mesh.triangles, axis]
        first = np.searchsorted(centers, coords.min(axis=1) - 1e-12, side="left")
        shapes.append(np.searchsorted(centers, coords.max(axis=1) + 1e-12, side="right") - first)
    return list(zip(shapes[0].tolist(), shapes[1].tolist()))


class TestQueryHeight:
    def test_flat_everywhere(self):
        hm = build_height_map(make_box_mesh(0, 1, 0, 1, 0.0), (8, 8))
        for x, z in [(0.1, 0.1), (0.5, 0.99), (0.73, 0.11)]:
            assert query_height(hm, x, z) == 0.0

    def test_cell_center_returns_stored_value(self):
        heights = np.arange(16, dtype=float).reshape(4, 4)
        hm = HeightMap(origin=(0.0, 0.0), cell_size=1.0, heights=heights, default_height=-1.0)
        for i in range(4):
            for j in range(4):
                x, z = hm.origin[0] + (i + 0.5) * hm.cell_size, hm.origin[1] + (j + 0.5) * hm.cell_size
                assert query_height(hm, x, z) == heights[i, j]

    def test_midpoint_linear_interpolation(self):
        heights = np.array([[0.0, 0.0], [1.0, 1.0]])
        hm = HeightMap(origin=(0.0, 0.0), cell_size=1.0, heights=heights, default_height=0.0)
        # halfway between the two cell centers along x
        assert abs(query_height(hm, 1.0, 0.5) - 0.5) < 1e-12

    def test_continuity_across_cell_boundaries(self, rng):
        heights = rng.normal(size=(6, 6))
        hm = HeightMap(origin=(0.0, 0.0), cell_size=0.5, heights=heights, default_height=0.0)
        for i in range(1, 5):
            boundary_x = hm.origin[0] + (i + 0.5) * hm.cell_size
            for z in rng.uniform(0.5, 2.5, size=5):
                left = query_height(hm, boundary_x - 1e-13, z)
                right = query_height(hm, boundary_x + 1e-13, z)
                assert abs(left - right) < 1e-10

    def test_out_of_bounds_returns_default(self):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=1.0, heights=np.ones((3, 3)), default_height=-7.0)
        assert query_height(hm, -0.5, 1.0) == -7.0
        assert query_height(hm, 1.0, 99.0) == -7.0

    def test_nan_coordinate_rejected(self):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=1.0, heights=np.ones((3, 3)), default_height=-7.0)
        with pytest.raises(InvalidInputError, match="x coordinate"):
            query_height(hm, np.nan, 1.0)
        with pytest.raises(InvalidInputError, match="z coordinate"):
            query_height(hm, 1.0, float("nan"))
        with pytest.raises(InvalidInputError, match=r"z coordinate .*index \(1, 0\)"):
            query_height(hm, np.ones((2, 2)), np.array([[1.0, 1.0], [np.nan, 1.0]]))
        with pytest.raises(InvalidInputError, match="x coordinate"):
            query_surface(hm, np.nan, 1.0)

    def test_grid_edge_clamps_to_edge_cells(self):
        heights = np.arange(9, dtype=float).reshape(3, 3)
        hm = HeightMap(origin=(0.0, 0.0), cell_size=1.0, heights=heights, default_height=-7.0)
        assert query_height(hm, 3.0, 1.5) == heights[2, 1]
        assert query_height(hm, 0.0, 3.0) == heights[0, 2]
        assert np.array_equal(query_height(hm, [3.0, 0.0], [1.5, 3.0]), [heights[2, 1], heights[0, 2]])

    def test_infinite_coordinates_get_default(self):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=1.0, heights=np.ones((3, 3)), default_height=-7.0)
        assert query_height(hm, np.inf, 1.0) == -7.0
        assert query_height(hm, 1.0, -np.inf) == -7.0
        assert np.array_equal(query_height(hm, [np.inf, 1.0], [1.0, 1.0]), [-7.0, 1.0])

    def test_array_query_equals_scalar_queries(self, rng):
        hm = HeightMap(origin=(-0.3, 0.2), cell_size=0.1, heights=rng.normal(size=(7, 9)), default_height=-2.0)
        ox, oz = hm.origin
        d = hm.cell_size
        edges_x = ox + d * np.arange(8)  # cell boundaries, grid edges included
        edges_z = oz + d * np.arange(10)
        x = np.concatenate(
            [
                rng.uniform(ox - 0.5, ox + 1.2, 40),  # on and off the grid
                ox + d * rng.uniform(0.0, 0.5, 10),  # half-cell margin at the low edge
                ox + 7 * d - d * rng.uniform(0.0, 0.5, 10),  # and at the high edge
                rng.choice(edges_x, 20),
                edges_x[[0, -1]],
            ]
        )
        z = np.concatenate([rng.uniform(oz - 0.5, oz + 1.4, 60), rng.choice(edges_z, 20), edges_z[[-1, 0]]])
        got = query_height(hm, x, z)
        assert got.shape == x.shape
        assert np.array_equal(got, [query_height(hm, xi, zi) for xi, zi in zip(x, z)])
        heights, normals = query_surface(hm, x, z)
        assert np.array_equal(heights, got)
        assert normals.shape == x.shape + (3,)
        assert np.array_equal(normals, [query_surface(hm, xi, zi)[1] for xi, zi in zip(x, z)])
        # central differences of the scalar queries, one point at a time
        for xi, zi, n in zip(x, z, normals):
            dhdx = (query_height(hm, xi + d, zi) - query_height(hm, xi - d, zi)) / (2.0 * d)
            dhdz = (query_height(hm, xi, zi + d) - query_height(hm, xi, zi - d)) / (2.0 * d)
            expected = np.array([-dhdx, 1.0, -dhdz])
            np.testing.assert_allclose(n, expected / np.linalg.norm(expected), rtol=1e-15, atol=1e-16)

    def test_array_shape_is_preserved(self, rng):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=0.5, heights=rng.normal(size=(6, 6)), default_height=0.0)
        x, z = rng.uniform(-0.5, 3.5, size=(2, 5, 4, 3))
        assert query_height(hm, x, z).shape == (5, 4, 3)
        assert query_height(hm, x, 1.0).shape == (5, 4, 3)  # z broadcasts
        heights, normals = query_surface(hm, x, z)
        assert heights.shape == (5, 4, 3)
        assert normals.shape == (5, 4, 3, 3)
        assert query_height(hm, np.zeros(0), np.zeros(0)).shape == (0,)

    def test_scalar_query_returns_float(self, rng):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=0.5, heights=rng.normal(size=(4, 4)), default_height=0.0)
        assert type(query_height(hm, 0.7, 1.1)) is float
        assert type(query_height(hm, np.float64(0.7), np.array(1.1))) is float
        assert type(query_height(hm, -9.0, 1.1)) is float  # off the grid
        height, normal = query_surface(hm, 0.7, 1.1)
        assert type(height) is float
        assert normal.shape == (3,)


def test_queries_equal_the_one_point_formulas_bit_for_bit(rng):
    """query_height and query_surface against the one-point formulas, on
    and off the grid: cell edges, the half-cell margins, grid bounds,
    infinities, and a NaN among the points."""
    hm = HeightMap(origin=(-0.3, 0.2), cell_size=0.1, heights=rng.normal(size=(7, 9)), default_height=-2.0)
    ox, oz = hm.origin
    d = hm.cell_size
    x = np.concatenate([rng.uniform(ox - 0.3, ox + 1.0, 300), ox + d * np.arange(8), [ox - 1e-12, ox + 0.7, np.inf, -np.inf]])
    z = np.concatenate([rng.uniform(oz - 0.3, oz + 1.2, 300), oz + d * rng.integers(0, 10, 8), [oz, oz + 0.9, 0.5, 0.5]])
    for xs, zs in ((x, z), (x.reshape(12, 26), z.reshape(12, 26)), (x[:1], z[:1])):
        heights, normals = query_surface(hm, xs, zs)
        assert np.array_equal(query_height(hm, xs, zs), heights)
        for xi, zi, h, n in zip(xs.ravel(), zs.ravel(), heights.ravel(), normals.reshape(-1, 3)):
            want_h, want_n = query_surface_scalar(hm, xi, zi)
            assert h == want_h == query_height_scalar(hm, xi, zi)
            assert np.array_equal(n, want_n)
    bad_x, bad_z = x.copy(), z.copy()
    bad_x[77] = bad_z[3] = np.nan
    with pytest.raises(InvalidInputError, match=r"x coordinate \(NaN\) at index \(77,\)"):
        query_height(hm, bad_x, z)
    with pytest.raises(InvalidInputError, match=r"z coordinate \(NaN\) at index \(3,\)"):
        query_height(hm, x, bad_z)
    with pytest.raises(InvalidInputError, match=r"x coordinate \(NaN\) at index \(0, 77\)"):
        query_surface(hm, bad_x, bad_z)  # the index in its five-point stencil


@pytest.mark.parametrize("terrain", ["ramp", "step"])
def test_query_surface_equals_separate_height_and_normal_queries(terrain, rng):
    """One query_surface call gives the bits of a query_height call for the
    heights plus a second query_height call over the four neighbours for the
    normals, which is how the ground was queried before."""
    hm = build_height_map(scene_mesh(terrain, -1.0, 5.0), (96, 96))
    x = rng.uniform(-1.2, 1.2, 64)
    z = np.concatenate([rng.uniform(-1.5, 5.5, 48), np.full(16, 0.9) + rng.normal(0.0, 0.02, 16)])
    heights, normals = query_surface(hm, x, z)
    d = hm.cell_size
    around = query_height(hm, np.stack([x + d, x - d, x, x]), np.stack([z, z, z + d, z - d]))
    dhdx = (around[0] - around[1]) / (2.0 * d)
    dhdz = (around[2] - around[3]) / (2.0 * d)
    slope = np.stack([-dhdx, np.ones_like(dhdx), -dhdz], axis=-1)
    assert np.array_equal(heights, query_height(hm, x, z))
    assert np.array_equal(normals, slope / vector_norms(slope))
    assert (normals[:, 1] < 1.0).any()  # the points see a slope or an edge


def penetrating_pct(points, hm):
    """penetration_stats' percent of penetrating frames for one frame per
    point, every joint of frame t at points[t]."""
    joints = np.repeat(np.asarray(points, dtype=float).reshape(-1, 1, 3), 24, axis=1)
    n = len(joints)
    seq = MotionSequence(60.0, joints[:, 0], np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 23, 3)), joints)
    return penetration_stats(seq, hm)[0]


class TestPenetrationCheck:
    """The strict below-the-surface predicate of penetration_stats."""

    def test_below_flat(self):
        hm = build_height_map(make_box_mesh(-1, 1, -1, 1, 0.0), (8, 8))
        assert penetrating_pct([[0.0, -0.01, 0.0]], hm) == 100.0

    def test_boundary_is_strict(self):
        hm = build_height_map(make_box_mesh(-1, 1, -1, 1, 0.0), (8, 8))
        assert penetrating_pct([[0.0, 0.0, 0.0]], hm) == 0.0

    def test_platform_region(self):
        lower = make_box_mesh(0, 1, 0, 1, 0.0)
        upper = make_box_mesh(0.5, 1, 0, 1, 0.2)
        hm = build_height_map(merge_meshes([lower, upper]), (16, 16))
        assert penetrating_pct([[0.8, 0.15, 0.5]], hm) == 100.0
        assert penetrating_pct([[0.2, 0.15, 0.5]], hm) == 0.0

    def test_never_penetrates_above_max_height(self, rng):
        heights = rng.normal(size=(5, 5))
        hm = HeightMap(origin=(0.0, 0.0), cell_size=1.0, heights=heights, default_height=heights.min())
        top = heights.max()
        points = [[rng.uniform(-1, 6), top, rng.uniform(-1, 6)] for _ in range(50)]
        assert penetrating_pct(points, hm) == 0.0


class TestSurfaceNormal:
    def test_flat_is_up(self):
        hm = build_height_map(make_box_mesh(-1, 1, -1, 1, 0.0), (8, 8))
        assert np.allclose(query_surface(hm, 0.0, 0.0)[1], [0.0, 1.0, 0.0])

    def test_inclined_plane_normal(self):
        hm = build_height_map(plane_mesh(0.1, extent=2.0), (64, 64))
        n = query_surface(hm, 1.0, 1.0)[1]
        expected = np.array([-0.1, 1.0, 0.0])
        expected /= np.linalg.norm(expected)
        assert np.abs(n - expected).max() < 1e-6


class TestFileFormats:
    def test_obj_round_trip(self, rng, tmp_path):
        mesh = merge_meshes([make_box_mesh(0, 1, 0, 1, 0.0), make_box_mesh(0, 1, 0, 1, 0.3)])
        path = tmp_path / "scene.obj"
        save_obj(mesh, path)
        loaded = load_obj(path)
        assert np.abs(loaded.vertices - mesh.vertices).max() < 1e-15
        assert np.array_equal(loaded.triangles, mesh.triangles)

    def test_obj_fan_triangulation(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 0 1\nv 0 0 1\nf 1 2 3 4\n")
        mesh = load_obj(path)
        assert len(mesh.triangles) == 2

    def test_obj_ignores_other_statements(self, tmp_path):
        path = tmp_path / "extra.obj"
        path.write_text("# comment\nvn 0 1 0\nv 0 0 0\nv 1 0 0\nv 0 0 1\nusemtl m\nf 1 2 3\n")
        mesh = load_obj(path)
        assert len(mesh.vertices) == 3 and len(mesh.triangles) == 1

    def test_height_map_round_trip(self, rng, tmp_path):
        hm = HeightMap(origin=(-1.5, 2.0), cell_size=0.25, heights=rng.normal(size=(9, 7)), default_height=-0.4)
        path = tmp_path / "map.hmap"
        save_height_map(hm, path)
        loaded = load_height_map(path)
        assert loaded.origin == hm.origin
        assert loaded.cell_size == hm.cell_size
        assert loaded.default_height == hm.default_height
        assert np.array_equal(loaded.heights, hm.heights)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda blob: blob.replace(b"physmotion-heightmap 1", b"physmotion-heightmap 2"), "first line"),
            (lambda blob: blob + b"\0" * 8, "grid holds"),
            (lambda blob: blob[:-8], "grid holds"),
            (lambda blob: blob.replace(b"cell_size 0.5", b"cell_size nan"), "cell_size must be positive and finite"),
            (lambda blob: blob.replace(b"default_height 0.0", b"default_height inf"), "default_height must be finite"),
        ],
    )
    def test_height_map_file_rejects_a_foreign_header_or_grid_length(self, tmp_path, damage, message):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=0.5, heights=np.zeros((3, 4)), default_height=0.0)
        path = tmp_path / "map.hmap"
        save_height_map(hm, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(MotionFormatError, match=f"{path.name}: malformed height map file: {message}"):
            load_height_map(path)

    def test_height_map_is_read_into_one_grid(self, rng, tmp_path):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=0.01, heights=rng.normal(size=(512, 512)), default_height=0.0)
        path = tmp_path / "map.hmap"
        save_height_map(hm, path)
        loaded, peak = traced_peak(lambda: load_height_map(path))
        assert np.array_equal(loaded.heights, hm.heights)
        assert peak <= 1.25 * hm.heights.nbytes

    @pytest.mark.parametrize("value", [b"-3 -3", b"1 4", b"3", b"3 4 5", b"3 x", b"3.0 4"])
    def test_height_map_resolution_must_be_two_integers_of_at_least_two(self, tmp_path, value):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=0.5, heights=np.zeros((3, 4)), default_height=0.0)
        path = tmp_path / "map.hmap"
        save_height_map(hm, path)
        path.write_bytes(path.read_bytes().replace(b"resolution 3 4", b"resolution " + value))
        with pytest.raises(MotionFormatError, match=f"{path.name}: malformed height map file: resolution must be"):
            load_height_map(path)

    def test_height_map_longer_than_its_file_is_rejected_before_the_grid_is_allocated(self, tmp_path):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=0.5, heights=np.zeros((3, 3)), default_height=0.0)
        path = tmp_path / "map.hmap"
        save_height_map(hm, path)
        path.write_bytes(path.read_bytes().replace(b"resolution 3 3", b"resolution 100000 100000"))
        tracemalloc.start()
        try:
            with pytest.raises(MotionFormatError, match="grid holds 72 bytes, not the 100000 x 100000"):
                load_height_map(path)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_height_map_header_without_its_data_line_is_rejected(self, tmp_path):
        path = tmp_path / "map.hmap"
        path.write_bytes(b"physmotion-heightmap 1\norigin 0.0 0.0\n" + b"\0" * 100_000)
        with pytest.raises(MotionFormatError, match="header does not end in 'data float64 row-major"):
            load_height_map(path)

    def test_contacts_csv_round_trip(self, rng, tmp_path):
        labels = rng.uniform(size=(12, 4)) > 0.5
        path = tmp_path / "contacts.csv"
        save_contacts_csv(labels, path)
        loaded = load_contacts_csv(path)
        assert loaded.dtype == bool and np.array_equal(loaded, labels)
        header = path.read_text().splitlines()[0]
        assert header == "frame,l_toe,r_toe,l_heel,r_heel"

    def test_contacts_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,a,b,c,d\n0,1,1,1,1\n")
        with pytest.raises(MotionFormatError):
            load_contacts_csv(path)

    @pytest.mark.parametrize(
        "body, line",
        [
            # two short rows would reshape into one frame [T, F, F, T]
            ("0,1,0\n1,0,1\n", 2),
            ("0,1,0,0,1\n1,yes,0,0,1\n", 3),
            ("0,1,0,0,1,1\n", 2),
            ("0.5,1,0,0,1\n", 2),
            ("0,1,0,2,1\n", 2),
            ("0,1,0,0,1\n\n1,0,1,1,0\n", 3),
            # row t labels motion frame t
            ("5,1,0,0,1\n", 2),
            ("0,1,0,0,1\n2,0,1,1,0\n", 3),
        ],
    )
    def test_contacts_csv_malformed_row_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "contacts.csv"
        path.write_text("frame,l_toe,r_toe,l_heel,r_heel\n" + body)
        with pytest.raises(MotionFormatError, match=f"{path.name}:{line}:"):
            load_contacts_csv(path)

    @pytest.mark.parametrize(
        "row",
        [
            "10,0_1,0,0,1",  # int() reads the label 1
            "10, +1,0,0,1",
            "10,1 ,0,0,1",
            "1_0,1,0,0,1",  # int() reads frame 10, which is this row's
        ],
    )
    def test_contacts_csv_takes_fields_as_written(self, tmp_path, row):
        path = tmp_path / "contacts.csv"
        head = "frame,l_toe,r_toe,l_heel,r_heel\n" + "".join(f"{t},0,1,1,0\n" for t in range(10))
        path.write_text(head + row + "\n")
        with pytest.raises(MotionFormatError, match=f"{path.name}:12: expected an integer frame and four 0/1 labels"):
            load_contacts_csv(path)
        # the row written plainly loads
        path.write_text(head + "10,1,0,0,1\n")
        assert load_contacts_csv(path)[10].tolist() == [True, False, False, True]

    def test_contacts_csv_frame_keeps_its_digits(self, tmp_path):
        # leading zeros read as the integer; past the int-string limit the
        # frame is a row mismatch, not int()'s ValueError
        path = tmp_path / "contacts.csv"
        path.write_text("frame,l_toe,r_toe,l_heel,r_heel\n000,1,0,0,1\n01,0,1,1,0\n")
        assert load_contacts_csv(path).tolist() == [[True, False, False, True], [False, True, True, False]]
        path.write_text("frame,l_toe,r_toe,l_heel,r_heel\n" + "1" * 5000 + ",1,0,0,1\n")
        with pytest.raises(MotionFormatError, match=f"{path.name}:2: frame 1111.* in row 0"):
            load_contacts_csv(path)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("v 0 0 0\nv 1 zero 0\nv 0 0 1\nf 1 2 3\n", 2),
            ("v 0 0 0\nv 1 0 0\nv 0 0 1\nf 1 two 3\n", 4),
        ],
    )
    def test_obj_non_numeric_token_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "bad.obj"
        path.write_text(body)
        with pytest.raises(MotionFormatError, match=f"{path.name}:{line}:"):
            load_obj(path)


def load_obj_per_line(path):
    """OBJ reader converting one line at a time: the oracle for load_obj."""
    vertices, faces = [], []
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


class TestObjLoaderMatchesPerLineOracle:
    @pytest.mark.parametrize("block", [2, 7, 8192])
    def test_mixed_file(self, rng, tmp_path, monkeypatch, block):
        monkeypatch.setattr(scene, "_OBJ_BLOCK", block)
        lines = ["# scanned patch", "o patch", ""]
        verts = (rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-8, 4, size=(60, 1))).tolist()
        for k, v in enumerate(verts):
            extra = " 1.0" if k % 7 == 0 else ""  # optional w coordinate
            lines.append(f"v {v[0]!r} {v[1]:.6e}\t{v[2]!r}{extra}")
            if k % 11 == 0:
                lines += ["vn 0 1 0", "vt 0.5 0.5", "   "]
        for k in range(80):
            n = 3 + k % 4  # triangles, quads, pentagons, hexagons
            idx = rng.choice(60, size=n, replace=False) + 1
            forms = ["{}", "{}/{}", "{}//{}", "{}/{}/{}"]
            toks = [forms[(k + j) % 4].format(*([i] * forms[(k + j) % 4].count("{}"))) for j, i in enumerate(idx)]
            lines.append("f " + " ".join(toks))
            if k % 13 == 0:
                lines.append("usemtl stone")
        path = tmp_path / "mixed.obj"
        path.write_text("\n".join(lines) + "\n")
        got, expected = load_obj(path), load_obj_per_line(path)
        assert np.array_equal(got.vertices, expected.vertices)
        assert np.array_equal(got.triangles, expected.triangles)
        assert len(got.triangles) > 80

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing\n")
        mesh = load_obj(path)
        assert mesh.vertices.shape == (0, 3) and mesh.triangles.shape == (0, 3)

    @pytest.mark.parametrize(
        "body",
        [
            "v 0 0 0\nv 1 0\nv 0 0 1\n",
            "v 0 0 0\nv 1 0 0\nv 0 0 1\nf 1 2\n",
            "f 1 x 3\nv 0 0 0\nv 1 y 0\n",  # the earlier of two bad lines
            "v 0 0 0\nv 1 y 0\nf 1 x 3\n",
            "v 0 0 0\nf 1 x 3\nv 1 0\n",
            "v 0 0 0\nv 1 0\nf 1 x 3\n",
            "v 0 0 0\nv 0 1 0\nv 1 1 1\nf 1 2 3 4.0\n",
            "v 0 0 0\nv 0 1 0\nv 1 1 1\nf a/1 2 3\n",
            "v 0 0 0\nv 0 1 0\nv 1 1 1\nf 1 2 3\nf 3 2 1\nf 1 2 3\nv 1 x 1\nf 1 2 y\n",
            "v 0 0 0\nv 0 1 0\nv 1 1 1\nv 2 2 2\nf 1 2 3\nf 3 2 1\nv 1 x 1\nv 1 1 1\nf 1 2\n",
            "v 0 0 0\nv 0 1 0\nv 1 1 1\nv 2 2 2\nv 3 3 3\nf 1 2 3\nf 1 2 3 4 5\nf 1 2 3 x 5\nf 1 2 3\n",
        ],
    )
    @pytest.mark.parametrize("block", [1, 2, 8192])
    def test_malformed_file_reports_the_oracles_line(self, tmp_path, monkeypatch, body, block):
        monkeypatch.setattr(scene, "_OBJ_BLOCK", block)
        path = tmp_path / "bad.obj"
        path.write_text(body)
        with pytest.raises(MotionFormatError) as expected:
            load_obj_per_line(path)
        with pytest.raises(MotionFormatError) as got:
            load_obj(path)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "field, message",
    [
        ({"cell_size": np.nan}, "cell_size must be positive and finite"),
        ({"cell_size": np.inf}, "cell_size must be positive and finite"),
        ({"origin": (0.0, np.nan)}, "origin must be finite"),
        ({"default_height": -np.inf}, "default_height must be finite"),
    ],
)
def test_height_map_rejects_non_finite_geometry(field, message):
    args = dict(origin=(0.0, 0.0), cell_size=1.0, heights=np.zeros((3, 3)), default_height=0.0)
    with pytest.raises(InvalidInputError, match=message):
        HeightMap(**{**args, **field})


def test_mesh_validation():
    with pytest.raises(InvalidInputError):
        TriangleMesh(np.array([[0.0, np.nan, 0.0]]), np.array([[0, 0, 0]]))
    with pytest.raises(InvalidInputError):
        TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))
