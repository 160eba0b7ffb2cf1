"""Seeded analytic terrain for the `terrain-eval` workload.

The surface is a sum of plane waves, so its height, slope and curvature are
known in closed form. It is sampled on a regular vertex grid, split into
triangles and written as an OBJ file, which is all the program receives. The
same object then checks the height map the program built against the
analytic surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

# covers the synthetic 20 s flat walk: x in [-3, 3], z from -2 m to 2 m past
# the 6 m walked, the same rectangle the synthetic flat scene spans
EXTENT = (-3.0, 3.0, -2.0, 8.0)
GRID_VERTICES = 150  # 150 x 150 vertices -> 2 * 149^2 = 44,402 triangles
WAVES = 6
AMPLITUDE = 0.02  # m per wave
WAVELENGTH = (0.6, 2.0)  # m


@dataclass
class Terrain:
    amplitude: np.ndarray  # (W,)
    wavevector: np.ndarray  # (W, 2) rad/m in (x, z)
    phase: np.ndarray  # (W,)

    @classmethod
    def from_seed(cls, seed: int) -> "Terrain":
        rng = np.random.default_rng([seed, 0x7E44])
        lengths = rng.uniform(*WAVELENGTH, size=WAVES)
        heading = rng.uniform(0.0, math.pi, size=WAVES)
        k = 2.0 * math.pi / lengths
        wavevector = np.stack([k * np.cos(heading), k * np.sin(heading)], axis=1)
        return cls(
            amplitude=np.full(WAVES, AMPLITUDE),
            wavevector=wavevector,
            phase=rng.uniform(0.0, 2.0 * math.pi, size=WAVES),
        )

    def height(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        z = np.asarray(z, dtype=float)[..., None]
        arg = self.wavevector[:, 0] * x + self.wavevector[:, 1] * z + self.phase
        return (self.amplitude * np.sin(arg)).sum(axis=-1)

    def max_slope(self) -> float:
        return float((self.amplitude * np.linalg.norm(self.wavevector, axis=1)).sum())

    def max_curvature(self) -> float:
        return float((self.amplitude * (self.wavevector**2).sum(axis=1)).sum())

    def mesh(self) -> Tuple[np.ndarray, np.ndarray]:
        """(vertices (V, 3) as x, y, z; triangles (F, 3) 0-based) on the vertex grid."""
        n = GRID_VERTICES
        xmin, xmax, zmin, zmax = EXTENT
        gx, gz = np.meshgrid(np.linspace(xmin, xmax, n), np.linspace(zmin, zmax, n), indexing="ij")
        vertices = np.stack([gx, self.height(gx, gz), gz], axis=-1).reshape(-1, 3)
        idx = np.arange(n * n).reshape(n, n)
        a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
        c, d = idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
        triangles = np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, d], 1)])
        return vertices, triangles

    def write_obj(self, path: Path) -> int:
        """Write the mesh as Wavefront OBJ; returns the triangle count."""
        vertices, triangles = self.mesh()
        lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
        lines += [f"f {a} {b} {c}" for a, b, c in (triangles + 1).tolist()]
        Path(path).write_text("\n".join(lines) + "\n")
        return len(triangles)

    def tolerance(self, cell_size: float) -> float:
        """Bound on |height map - analytic surface| inside the mesh.

        The plane test of the acceptance suite allows one cell times the
        slope for sampling at cell centres; the mesh adds its own
        piecewise-linear interpolation error, curvature times the squared
        vertex spacing over 8.
        """
        xmin, xmax, zmin, zmax = EXTENT
        dx = (xmax - xmin) / (GRID_VERTICES - 1)
        dz = (zmax - zmin) / (GRID_VERTICES - 1)
        return self.max_slope() * cell_size + self.max_curvature() * (dx**2 + dz**2) / 8.0

    def check_height_map(self, query, hmap, seed: int, points: int = 200) -> float:
        """Largest error of `query(hmap, x, z)` at seeded interior points, in units of the tolerance.

        A value above 1 means the built map disagrees with the surface.
        """
        rng = np.random.default_rng([seed, 0x9E1])
        xmin, xmax, zmin, zmax = EXTENT
        margin = 2.0 * hmap.cell_size
        xs = rng.uniform(xmin + margin, xmax - margin, points)
        zs = rng.uniform(zmin + margin, zmax - margin, points)
        got = np.array([query(hmap, x, z) for x, z in zip(xs, zs)])
        return float(np.abs(got - self.height(xs, zs)).max() / self.tolerance(hmap.cell_size))
