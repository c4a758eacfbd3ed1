"""Geometry layer: norms, ball volumes, point sampling, serialization.

The closed-form ball volume is cross-checked against Monte Carlo
integration and against the handful of textbook values that have short
exact expressions.
"""

import math

import numpy as np
import pytest
from pytest import approx

from rainbow_rgg import (
    PointSet,
    cube_diameter,
    json_safe,
    load_points,
    lp_lengths,
    mc_unit_ball_volume,
    pairwise_distances,
    sample_points,
    save_points,
    unit_ball_volume,
)


# -- closed-form volumes -------------------------------------------------

EXACT_VOLUMES = [
    (2, 2.0, math.pi),
    (3, 2.0, 4.0 * math.pi / 3.0),
    (2, 1.0, 2.0),
    (3, 1.0, 4.0 / 3.0),
    (2, math.inf, 4.0),
    (3, math.inf, 8.0),
    (5, math.inf, 32.0),
    (4, 1.0, 2.0 ** 4 / math.factorial(4)),
]


@pytest.mark.parametrize("d,p,expect", EXACT_VOLUMES)
def test_unit_ball_volume_exact_values(d, p, expect):
    assert unit_ball_volume(d, p) == approx(expect, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_unit_ball_volume_bounds(d, p):
    """Volume of the unit p-ball sits between the cross-polytope and cube."""
    theta = unit_ball_volume(d, p)
    assert 2.0 ** d / math.factorial(d) <= theta + 1e-12
    assert theta <= 2.0 ** d + 1e-12


@pytest.mark.parametrize("d,p", [(2, 1.5), (2, 3.0), (3, 1.5), (3, math.inf)])
def test_unit_ball_volume_vs_monte_carlo(d, p):
    mc = mc_unit_ball_volume(d, p, samples=200_000, seed=42)
    assert unit_ball_volume(d, p) == approx(mc, rel=0.02)


def test_unit_ball_volume_monotone_in_p():
    vals = [unit_ball_volume(3, p) for p in (1.0, 1.5, 2.0, 4.0, math.inf)]
    assert vals == sorted(vals)


def test_unit_ball_volume_one_dimensional():
    assert unit_ball_volume(1, 2.0) == approx(2.0)
    assert unit_ball_volume(1, math.inf) == approx(2.0)


# -- distances ------------------------------------------------------------

def test_distance_known_values():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    assert lp_lengths(np.abs(a - b), 2.0) == approx(5.0)
    assert lp_lengths(np.abs(a - b), 1.0) == approx(7.0)
    assert lp_lengths(np.abs(a - b), math.inf) == approx(4.0)


def test_norm_sandwich():
    """l_inf <= l_p <= d^(1/p) * l_inf for all p >= 1."""
    rng = np.random.default_rng(7)
    pts = rng.random((40, 3))
    for p in (1.0, 1.5, 2.0, 4.0):
        dp = pairwise_distances(pts, p)
        dinf = pairwise_distances(pts, math.inf)
        assert np.all(dinf <= dp + 1e-12)
        assert np.all(dp <= 3 ** (1.0 / p) * dinf + 1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_pairwise_matches_scalar_distance(p):
    rng = np.random.default_rng(3)
    pts = rng.random((12, 2))
    mat = pairwise_distances(pts, p)
    assert mat.shape == (12, 12)
    assert np.allclose(np.diag(mat), 0.0)
    assert np.allclose(mat, mat.T)
    for i in range(12):
        for j in range(i + 1, 12):
            assert mat[i, j] == approx(lp_lengths(np.abs(pts[i] - pts[j]), p))


def test_cube_diameter_values():
    assert cube_diameter(2, 2.0) == approx(math.sqrt(2.0))
    assert cube_diameter(2, 1.0) == approx(2.0)
    assert cube_diameter(3, math.inf) == approx(1.0)


def test_invalid_norm_rejected():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((2, 2)), 0.5)


# -- sampling and serialization --------------------------------------------

def test_sample_points_deterministic():
    a = sample_points(50, 3, seed=11)
    b = sample_points(50, 3, seed=11)
    c = sample_points(50, 3, seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.points.shape == (50, 3)
    assert np.all(a.points >= 0.0) and np.all(a.points < 1.0)


def test_point_set_fields():
    ps = sample_points(10, 2, seed=5, p=math.inf)
    assert ps.n == 10
    assert ps.dim == 2
    assert ps.p == math.inf
    assert ps.seed == 5


def test_point_set_shape_validated():
    with pytest.raises(ValueError):
        PointSet(np.zeros(7), seed=0)


def test_save_load_round_trip(tmp_path):
    ps = sample_points(25, 2, seed=9, p=1.5)
    path = tmp_path / "pts.csv"
    save_points(path, ps)
    back = load_points(path)
    assert back.n == ps.n
    assert back.dim == ps.dim
    assert back.p == ps.p
    assert back.seed == ps.seed
    assert np.array_equal(back.points, ps.points)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1.5", "-0.25"])
def test_load_points_rejects_coordinates_outside_cube(tmp_path, bad):
    """NaN compares False with every bound, so a min/max test would let it
    through to the kd-tree; every coordinate is checked instead."""
    path = tmp_path / "bad.txt"
    path.write_text(f"2 2 2.0 none\n0.5 0.5\n0.25 {bad}\n")
    with pytest.raises(ValueError, match=r"coordinates must lie in \[0, 1\]"):
        load_points(path)


def test_save_load_inf_norm(tmp_path):
    ps = sample_points(8, 3, seed=1, p=math.inf)
    path = tmp_path / "pts_inf.csv"
    save_points(path, ps)
    assert load_points(path).p == math.inf


def test_json_safe():
    raw = {"a": math.inf, "b": [1.5, -math.inf, (np.int64(3), np.float64(0.25))],
           "c": {"d": None, "e": np.float64(math.inf)}, "f": "x", "g": True}
    assert json_safe(raw) == {"a": "inf", "b": [1.5, "inf", [3, 0.25]],
                              "c": {"d": None, "e": "inf"}, "f": "x", "g": True}
    assert type(json_safe(np.int64(3))) is int
    assert type(json_safe(np.float64(0.25))) is float
