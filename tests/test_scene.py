import numpy as np
import pytest

from physmotion import scene
from physmotion.errors import EmptySceneError, InvalidInputError, MotionFormatError
from physmotion.scene import (
    ContactLabels,
    HeightMap,
    TriangleMesh,
    build_height_map,
    label_contacts,
    load_contacts_csv,
    load_height_map,
    load_obj,
    make_box_mesh,
    merge_meshes,
    penetration_check,
    query_height,
    save_contacts_csv,
    save_height_map,
    save_obj,
    surface_normal,
)


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


class TestRasteriserMatchesLoop:
    """build_height_map against the triangle-by-triangle reference, bit for bit."""

    def check(self, mesh, resolution, bounds=None):
        hm = build_height_map(mesh, resolution, bounds)
        expected = loop_height_map(mesh, resolution, bounds)
        assert np.array_equal(hm.heights, expected)
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
                x, z = hm.cell_center(i, j)
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
            surface_normal(hm, np.nan, 1.0)

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
        normals = surface_normal(hm, x, z)
        assert normals.shape == x.shape + (3,)
        assert np.array_equal(normals, [surface_normal(hm, xi, zi) for xi, zi in zip(x, z)])
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
        assert surface_normal(hm, x, z).shape == (5, 4, 3, 3)
        assert query_height(hm, np.zeros(0), np.zeros(0)).shape == (0,)

    def test_scalar_query_returns_float(self, rng):
        hm = HeightMap(origin=(0.0, 0.0), cell_size=0.5, heights=rng.normal(size=(4, 4)), default_height=0.0)
        assert type(query_height(hm, 0.7, 1.1)) is float
        assert type(query_height(hm, np.float64(0.7), np.array(1.1))) is float
        assert type(query_height(hm, -9.0, 1.1)) is float  # off the grid
        assert surface_normal(hm, 0.7, 1.1).shape == (3,)


class TestPenetrationCheck:
    def test_below_flat(self):
        hm = build_height_map(make_box_mesh(-1, 1, -1, 1, 0.0), (8, 8))
        assert penetration_check(np.array([0.0, -0.01, 0.0]), hm)

    def test_boundary_is_strict(self):
        hm = build_height_map(make_box_mesh(-1, 1, -1, 1, 0.0), (8, 8))
        assert not penetration_check(np.array([0.0, 0.0, 0.0]), hm)

    def test_platform_region(self):
        lower = make_box_mesh(0, 1, 0, 1, 0.0)
        upper = make_box_mesh(0.5, 1, 0, 1, 0.2)
        hm = build_height_map(merge_meshes([lower, upper]), (16, 16))
        assert penetration_check(np.array([0.8, 0.15, 0.5]), hm)
        assert not penetration_check(np.array([0.2, 0.15, 0.5]), hm)

    def test_never_penetrates_above_max_height(self, rng):
        heights = rng.normal(size=(5, 5))
        hm = HeightMap(origin=(0.0, 0.0), cell_size=1.0, heights=heights, default_height=heights.min())
        top = heights.max()
        for _ in range(50):
            p = np.array([rng.uniform(-1, 6), top, rng.uniform(-1, 6)])
            assert not penetration_check(p, hm)


class TestSurfaceNormal:
    def test_flat_is_up(self):
        hm = build_height_map(make_box_mesh(-1, 1, -1, 1, 0.0), (8, 8))
        assert np.allclose(surface_normal(hm, 0.0, 0.0), [0.0, 1.0, 0.0])

    def test_inclined_plane_normal(self):
        hm = build_height_map(plane_mesh(0.1, extent=2.0), (64, 64))
        n = surface_normal(hm, 1.0, 1.0)
        expected = np.array([-0.1, 1.0, 0.0])
        expected /= np.linalg.norm(expected)
        assert np.abs(n - expected).max() < 1e-6


class TestLabelContacts:
    def test_coincident_vertex_in_contact(self):
        mesh = make_box_mesh(0, 1, 0, 1, 0.0)
        pts = np.zeros((1, 4, 3))
        pts[0, :, :] = mesh.vertices[0]
        labels = label_contacts(pts, mesh)
        assert labels.data.all()

    def test_far_joint_not_in_contact(self):
        mesh = make_box_mesh(0, 1, 0, 1, 0.0)
        pts = np.zeros((1, 4, 3))
        pts[0, :, 1] = 1.0
        labels = label_contacts(pts, mesh)
        assert not labels.data.any()

    def test_threshold_edges_against_brute_force(self, rng):
        verts = rng.normal(size=(40, 3))
        tris = np.arange(39)[:, None] * 0 + np.array([[0, 1, 2]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        base = verts[7]
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        # place points at 4.9 cm and 5.1 cm of the nearest vertex; verify the
        # nearest distance with an exhaustive scan first
        for dist, expected in [(0.049, True), (0.051, False)]:
            p = base + direction * dist
            brute = min(np.linalg.norm(verts - p, axis=1))
            if abs(brute - dist) > 1e-9:
                continue  # another vertex got closer; skip this draw
            pts = np.tile(p, (1, 4, 1))
            labels = label_contacts(pts, mesh, threshold=0.05)
            assert labels.data.all() == expected

    def test_threshold_zero_no_contacts(self, rng):
        mesh = make_box_mesh(0, 1, 0, 1, 0.0)
        pts = rng.normal(size=(3, 4, 3)) + np.array([0.5, 0.2, 0.5])
        labels = label_contacts(pts, mesh, threshold=0.0)
        assert not labels.data.any()

    def test_matches_brute_force_scan(self, rng):
        verts = rng.normal(size=(60, 3))
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        pts = rng.normal(size=(5, 4, 3)) * 0.8
        labels = label_contacts(pts, mesh, threshold=0.5)
        for t in range(5):
            for j in range(4):
                brute = min(np.linalg.norm(verts - pts[t, j], axis=1))
                assert labels.data[t, j] == (brute < 0.5)

    def test_empty_motion(self):
        mesh = make_box_mesh(0, 1, 0, 1, 0.0)
        labels = label_contacts(np.zeros((0, 4, 3)), mesh)
        assert len(labels) == 0

    def test_empty_mesh_rejected(self):
        with pytest.raises(EmptySceneError):
            label_contacts(np.zeros((1, 4, 3)), TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), int)))


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

    def test_contacts_csv_round_trip(self, rng, tmp_path):
        labels = ContactLabels(rng.uniform(size=(12, 4)) > 0.5)
        path = tmp_path / "contacts.csv"
        save_contacts_csv(labels, path)
        loaded = load_contacts_csv(path)
        assert np.array_equal(loaded.data, labels.data)
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
        ],
    )
    def test_contacts_csv_malformed_row_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "contacts.csv"
        path.write_text("frame,l_toe,r_toe,l_heel,r_heel\n" + body)
        with pytest.raises(MotionFormatError, match=f"{path.name}:{line}:"):
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


def test_mesh_validation():
    with pytest.raises(InvalidInputError):
        TriangleMesh(np.array([[0.0, np.nan, 0.0]]), np.array([[0, 0, 0]]))
    with pytest.raises(InvalidInputError):
        TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))
