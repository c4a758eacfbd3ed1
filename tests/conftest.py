"""Shared fixtures: engineered point clouds whose tessellation is non-trivial.

Uniform points at bench scale never fill every cell past the dense
threshold, so end-to-end pipeline tests use clustered layouts: a grid of
crowded cells with a deliberately sparse hole in the middle.  The hole
produces ugly/bad cells and exercises every stage of the builder.
"""

import csv

import numpy as np
import pytest

from rainbow_rgg import PointSet


def engineered_points(seed=0, m=11, per_cell=6, hole=(4, 7), centre=(5, 5),
                      centre_pts=2, ring_pts=0):
    """Clustered cloud on an m x m grid of cells.

    Every cell gets `per_cell` points jittered inside its central 80%,
    except a square hole where the centre cell holds `centre_pts` points
    and the surrounding ring cells hold `ring_pts` each.
    """
    rng = np.random.default_rng(seed)
    s = 1.0 / m
    pts = []
    for i in range(m):
        for j in range(m):
            in_hole = hole[0] <= i < hole[1] and hole[0] <= j < hole[1]
            if in_hole and (i, j) != centre:
                k = ring_pts
            elif (i, j) == centre:
                k = centre_pts
            else:
                k = per_cell
            base = np.array([i * s, j * s])
            for _ in range(k):
                pts.append(base + s * (0.1 + 0.8 * rng.random(2)))
    return PointSet(np.array(pts), seed=seed)


def read_events_csv(path):
    """Rows of an event CSV as (i, j, length, colour) arrays, 0-based ids."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "length", "colour"]
    body = rows[1:]
    return (np.array([int(r[0]) - 1 for r in body], np.int64),
            np.array([int(r[1]) - 1 for r in body], np.int64),
            np.array([float(r[2]) for r in body], np.float64),
            np.array([int(r[3]) for r in body], np.int64))


# Tessellation parameters that pair with engineered_points(m=11):
# grid radius 0.45 gives cell side 1/11 and an 8-neighbour stencil,
# build radius 0.30 comfortably covers all bridge edges.
ENGINEERED = dict(grid_radius=0.45, radius=0.30, epsilon=0.0148, K=20.0)


@pytest.fixture(scope="session")
def hole_cloud():
    """Empty hole ring: one ugly component, no bad chains."""
    return engineered_points(seed=0)


@pytest.fixture(scope="session")
def ring_cloud():
    """Two points per ring cell: ugly centre plus eight bad chains."""
    return engineered_points(seed=3, ring_pts=2)
