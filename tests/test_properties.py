"""Randomized property tests for the core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_rgg import (
    build_process,
    compute_hitting_radii,
    cube_diameter,
    distance,
    hitting_radii,
    hitting_radius_kconn,
    hitting_radius_min_degree,
    pairwise_distances,
    sample_points,
    unit_ball_volume,
)

norms = st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf])


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), p=norms)
def test_volume_within_cube_and_cross_polytope(d, p):
    vol = unit_ball_volume(d, p)
    assert 2.0 ** d / math.factorial(d) <= vol * (1 + 1e-12)
    assert vol <= 2.0 ** d * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 12),
       d=st.integers(2, 3), p=norms)
def test_distance_metric_axioms(seed, n, d, p):
    pts = sample_points(n, d, seed=seed, p=p).points
    dm = pairwise_distances(pts, p)
    assert np.allclose(dm, dm.T)
    assert np.all(np.diag(dm) == 0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert dm[i, j] <= dm[i, k] + dm[k, j] + 1e-9
    assert dm.max() <= cube_diameter(d, p) * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), colour_seed=st.integers(0, 10 ** 6),
       n=st.integers(4, 25), p=norms,
       cut=st.floats(0.05, 0.8))
def test_colours_independent_of_cutoff(seed, colour_seed, n, p, cut):
    pts = sample_points(n, 2, seed=seed, p=p)
    full = build_process(pts, cutoff=math.inf, K=3.0, colour_seed=colour_seed)
    part = build_process(pts, cutoff=cut, K=3.0, colour_seed=colour_seed)
    lookup = {(i, j): c for i, j, c in zip(full.ei, full.ej, full.ecol)}
    for i, j, c in zip(part.ei, part.ej, part.ecol):
        assert lookup[(i, j)] == c


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 40), p=norms)
def test_hitting_radius_ordering(seed, n, p):
    pts = sample_points(n, 2, seed=seed, p=p)
    proc = build_process(pts, cutoff=math.inf, K=2.0, colour_seed=seed + 1)
    r1 = hitting_radius_min_degree(proc, 1)
    r2 = hitting_radius_min_degree(proc, 2)
    c1 = hitting_radius_kconn(proc, 1)
    c2 = hitting_radius_kconn(proc, 2)
    assert r1 <= r2
    assert r1 <= c1 <= c2
    assert r2 <= c2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 40), d=st.integers(2, 3), p=norms)
def test_grown_prefix_radii_equal_diameter_build(seed, n, d, p):
    pts = sample_points(n, d, seed=seed, p=p)
    full = build_process(pts, cutoff=cube_diameter(d, p), K=20.0, colour_seed=seed)
    assert hitting_radii(pts, K=20.0, colour_seed=seed) == compute_hitting_radii(full)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 4), p=norms,
       coords=st.lists(st.floats(0, 1), min_size=8, max_size=8))
def test_scalar_distance_matches_pairwise(d, p, coords):
    a = np.array(coords[:4])[:d]
    b = np.array(coords[4:])[:d]
    dm = pairwise_distances(np.vstack([a, b]), p)
    assert math.isclose(distance(a, b, p), dm[0, 1], rel_tol=1e-12, abs_tol=1e-15)
