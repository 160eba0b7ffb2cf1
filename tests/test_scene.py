import numpy as np
import pytest

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
