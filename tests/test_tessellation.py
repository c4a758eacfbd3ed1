"""Tessellation layer: grid, cell graph, classification, diagnostics.

The adjacency rule promises that residents of adjacent cells are within
the build radius; verify_cross_pairs re-checks that promise exhaustively
at the vertex level, which keeps the stencil computation honest.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from pytest import approx

from rainbow_rgg import (
    PointSet,
    TessellationRegimeError,
    build_cell_graph,
    build_grid,
    classify_cells,
    diagnostics,
    pairwise_distances,
    reference_radii,
    sample_points,
    unit_ball_volume,
    verify_cross_pairs,
)
from rainbow_rgg.tessellation import _components, _offset_set_distance, _stencil_rows

from conftest import ENGINEERED, engineered_points


# -- grid construction ------------------------------------------------------

def test_grid_side_and_count():
    ps = sample_points(200, 2, seed=0)
    r0, eps = 0.3, 0.015
    grid = build_grid(ps, r0, eps)
    theta = unit_ball_volume(2, 2.0)
    s_target = (2 * eps * 2 * theta) ** 0.5 * r0 / 2
    assert grid.s_target == approx(s_target)
    assert grid.m == math.ceil(1.0 / s_target)
    assert grid.side == approx(1.0 / grid.m)
    assert grid.side <= grid.s_target
    assert grid.n_cells == grid.m ** 2
    assert grid.counts.sum() == 200


def test_grid_binning_hand_points():
    pts = PointSet(np.array([[0.05, 0.05], [0.95, 0.95], [0.5, 0.05], [1.0, 1.0]]),
                   seed=0)
    grid = build_grid(pts, 0.5, 0.018)
    m = grid.m
    assert grid.cell_of_vertex[0] == grid.flat((0, 0))
    assert grid.cell_of_vertex[1] == grid.flat((m - 1, m - 1))
    # coordinates exactly 1.0 clamp into the last cell
    assert grid.cell_of_vertex[3] == grid.flat((m - 1, m - 1))
    for v in range(4):
        c = grid.cell_of_vertex[v]
        assert v in grid.vertices_in(c).tolist()


def test_grid_multi_flat_round_trip():
    ps = sample_points(50, 3, seed=1)
    grid = build_grid(ps, 0.6, 0.005)
    for cell in range(0, grid.n_cells, max(1, grid.n_cells // 17)):
        assert grid.flat(grid.multi(cell)) == cell


def test_grid_regime_error_when_cells_too_big():
    ps = sample_points(10, 2, seed=2)
    with pytest.raises(TessellationRegimeError):
        build_grid(ps, 5.0, 0.5)


def test_grid_rejects_bad_parameters():
    ps = sample_points(10, 2, seed=2)
    with pytest.raises(ValueError):
        build_grid(ps, -1.0, 0.01)
    with pytest.raises(ValueError):
        build_grid(ps, 0.3, 0.0)


def test_cell_diameter():
    ps = sample_points(30, 2, seed=3)
    grid = build_grid(ps, 0.3, 0.015)
    assert grid.cell_diameter == approx(grid.side * math.sqrt(2))


# -- offset distances and the stencil ---------------------------------------

def test_offset_set_distance_hand_values():
    # adjacent offsets touch: distance 0
    assert _offset_set_distance((1, 0), 0.1, 2.0) == approx(0.0)
    assert _offset_set_distance((1, 1), 0.1, 2.0) == approx(0.0)
    # one empty cell between: gap of one side in that axis
    assert _offset_set_distance((2, 0), 0.1, 2.0) == approx(0.1)
    assert _offset_set_distance((2, 2), 0.1, 2.0) == approx(0.1 * math.sqrt(2))
    assert _offset_set_distance((2, 2), 0.1, 1.0) == approx(0.2)
    assert _offset_set_distance((3, 2), 0.1, math.inf) == approx(0.2)


def test_stencil_symmetric_and_no_self():
    ps = sample_points(300, 2, seed=4)
    graph = build_cell_graph(build_grid(ps, 0.45, 0.0148))
    stencil = set(graph.stencil)
    assert stencil, "expected a non-degenerate stencil"
    assert (0, 0) not in stencil
    for delta in stencil:
        assert tuple(-t for t in delta) in stencil


def test_adjacency_symmetric_and_sorted():
    ps = sample_points(300, 2, seed=5)
    graph = build_cell_graph(build_grid(ps, 0.45, 0.0148))
    grid = graph.grid
    for cell in range(0, grid.n_cells, 7):
        nbs = graph.neighbors(cell)
        assert nbs == sorted(nbs)
        assert cell not in nbs
        for nb in nbs:
            assert graph.are_adjacent(cell, nb)
            assert graph.are_adjacent(nb, cell)
            assert cell in graph.neighbors(nb)


def test_degenerate_threshold_at_default_epsilon():
    """At epsilon = 0.1, d = 2 the adjacency threshold is negative for any
    radius, so the cell graph is edgeless and flagged."""
    ps = sample_points(500, 2, seed=6)
    ref = reference_radii(500, 2, 2.0)
    graph = build_cell_graph(build_grid(ps, ref.r0, 0.1))
    assert graph.degenerate_threshold
    assert graph.threshold <= 0
    assert graph.stencil == []
    assert graph.max_degree() == 0


def test_max_degree_within_bound():
    ps = sample_points(400, 2, seed=7)
    graph = build_cell_graph(build_grid(ps, 0.45, 0.0148))
    assert not graph.degenerate_threshold
    assert graph.max_degree() <= graph.degree_bound
    assert graph.max_degree() == 8  # full ring at this radius/epsilon pair


def _stencil_walk(grid, stencil, cell):
    mi = grid.multi(cell)
    return sorted(grid.flat(nb) for nb in
                  (tuple(c + t for c, t in zip(mi, delta)) for delta in stencil)
                  if all(0 <= x < grid.m for x in nb))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d, eps", [(2, 0.3), (2, 0.05), (2, 0.01), (3, 0.3), (3, 0.05)])
def test_neighbour_rows_match_stencil_walk(p, d, eps):
    """The compressed rows equal, cell by cell, the stencil offsets added to
    the cell's multi-index, kept inside the grid and sorted; grids of 3 to
    24 cells per axis, stencils from empty to several hundred offsets."""
    grid = build_grid(sample_points(60, d, seed=3, p=p), 0.3, eps)
    for reach in (-1.0, 0.5, 2.5):
        graph = build_cell_graph(grid, 2 * d * grid.side + reach * grid.side)
        assert graph.degenerate_threshold == (reach < 0)
        longest = 0
        for cell in range(grid.n_cells):
            walk = _stencil_walk(grid, graph.stencil, cell)
            assert graph.neighbors(cell) == walk
            longest = max(longest, len(walk))
        assert graph.max_degree() == longest


def test_neighbour_rows_with_stencil_longer_than_grid():
    """A stencil reaching 15 cells on a 12-cell axis: offsets longer than
    the grid join no cells instead of wrapping around it."""
    grid = build_grid(sample_points(500, 2, 1, 2.0), 1.5, 0.001)
    graph = build_cell_graph(grid)
    assert grid.m == 12
    assert max(abs(t) for delta in graph.stencil for t in delta) == 15
    for cell in range(grid.n_cells):
        assert graph.neighbors(cell) == _stencil_walk(grid, graph.stencil, cell)


@pytest.mark.parametrize("seed", [1, 2])
def test_diagnostics_returns_when_separation_reach_exceeds_grid(seed):
    """r0 = 0.45 with A = 3 reaches past the 11-cell axis."""
    ps = sample_points(300, 2, seed=seed)
    grid = build_grid(ps, 0.45, 0.0148)
    graph = build_cell_graph(grid)
    report = diagnostics(grid, graph, classify_cells(grid, graph))
    assert report.checks["ugly_component_separation"]["passed"] in (True, False)


@pytest.mark.parametrize("d", [2, 3])
def test_resident_index_matches_scan(d):
    grid = build_grid(sample_points(500, d, seed=9), 0.3, 0.01)
    assert (grid.counts == 0).any()
    for cell in range(grid.n_cells):
        assert np.array_equal(grid.vertices_in(cell),
                              np.nonzero(grid.cell_of_vertex == cell)[0])


def test_cross_pair_guarantee_uniform_clouds():
    """Residents of adjacent cells are within r0: exhaustive, several seeds."""
    for seed in range(4):
        ps = sample_points(250, 2, seed=seed)
        grid = build_grid(ps, 0.45, 0.012)
        graph = build_cell_graph(grid)
        pairs, violations = verify_cross_pairs(grid, graph, ps)
        assert pairs > 0
        assert violations == 0


def test_cross_pair_guarantee_engineered(hole_cloud):
    grid = build_grid(hole_cloud, ENGINEERED["grid_radius"], ENGINEERED["epsilon"])
    graph = build_cell_graph(grid)
    pairs, violations = verify_cross_pairs(grid, graph, hole_cloud)
    assert pairs > 0
    assert violations == 0


# -- classification ---------------------------------------------------------

def _engineered_setup(cloud):
    grid = build_grid(cloud, ENGINEERED["grid_radius"], ENGINEERED["epsilon"])
    graph = build_cell_graph(grid)
    return grid, graph, classify_cells(grid, graph)


def test_classification_partitions_cells(hole_cloud):
    grid, graph, cls = _engineered_setup(hole_cloud)
    good, bad, ugly = set(cls.good), set(cls.bad), set(cls.ugly)
    assert good and ugly
    assert not good & bad and not good & ugly and not bad & ugly
    assert good | bad | ugly == set(range(grid.n_cells))


def test_classification_good_cells_dense_and_connected(hole_cloud):
    grid, graph, cls = _engineered_setup(hole_cloud)
    for c in cls.good:
        assert grid.counts[c] >= cls.dense_threshold
    comps = _components(cls.good, graph.indptr, graph.indices)
    assert len(comps) == 1


def test_classification_bad_cells_sparse_adjacent_to_good(ring_cloud):
    grid, graph, cls = _engineered_setup(ring_cloud)
    good = set(cls.good)
    assert cls.bad, "ring cloud should produce bad cells"
    for c in cls.bad:
        assert grid.counts[c] < cls.dense_threshold
        assert any(nb in good for nb in graph.neighbors(c))


def test_classification_ugly_cells_not_adjacent_to_good(hole_cloud):
    grid, graph, cls = _engineered_setup(hole_cloud)
    good = set(cls.good)
    for c in cls.ugly:
        if grid.counts[c] < cls.dense_threshold:
            assert not any(nb in good for nb in graph.neighbors(c))


def test_classification_hole_is_ugly(hole_cloud):
    """The engineered hole: centre cell keeps its 2 points and lands ugly."""
    grid, graph, cls = _engineered_setup(hole_cloud)
    centre = grid.flat((5, 5))
    assert centre in cls.ugly
    assert any(centre in comp for comp in cls.ugly_components)
    # the crowded cells are good
    corner = grid.flat((0, 0))
    assert corner in cls.good


def test_classification_ring_cells_are_bad(ring_cloud):
    grid, graph, cls = _engineered_setup(ring_cloud)
    ring = [(4, 4), (4, 5), (4, 6), (5, 4), (5, 6), (6, 4), (6, 5), (6, 6)]
    assert {grid.flat(ij) for ij in ring} <= set(cls.bad)
    assert grid.flat((5, 5)) in cls.ugly


def test_classification_dense_threshold():
    ps = sample_points(1000, 2, seed=8)
    grid = build_grid(ps, 0.45, 0.0148)
    graph = build_cell_graph(grid)
    cls = classify_cells(grid, graph)
    assert cls.dense_threshold == max(3, math.ceil(0.0148 ** 3 * math.log(1000)))


def test_classification_uniform_bench_scale_degenerates():
    """Uniform points at bench scale: the adjacency threshold is negative,
    so dense cells (which exist only by fluctuation) form singleton
    components and nothing can be bad."""
    ps = sample_points(800, 2, seed=9)
    ref = reference_radii(800, 2, 2.0)
    grid = build_grid(ps, ref.r0, 0.1)
    graph = build_cell_graph(grid)
    cls = classify_cells(grid, graph)
    assert graph.degenerate_threshold
    assert len(cls.good) <= 1
    assert cls.bad == []


def test_components_deterministic():
    ps = sample_points(300, 2, seed=10)
    graph = build_cell_graph(build_grid(ps, 0.45, 0.0148))
    cells = set(range(0, graph.grid.n_cells, 3))
    a = _components(cells, graph.indptr, graph.indices)
    b = _components(cells, graph.indptr, graph.indices)
    assert a == b
    assert sorted(c for comp in a for c in comp) == sorted(cells)


def _bfs_components(cells, indptr, indices):
    """Reference: breadth-first search from each unseen cell in ascending order."""
    cells = set(cells)
    seen, comps = set(), []
    for start in sorted(cells):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [], [start]
        while queue:
            c = queue.pop(0)
            comp.append(c)
            for nb in indices[indptr[c]:indptr[c + 1]].tolist():
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        comps.append(sorted(comp))
    return comps


@pytest.mark.parametrize("d, r0, eps", [(2, 0.45, 0.0148), (2, 0.3, 0.005), (3, 0.8, 0.005)])
def test_components_match_bfs(d, r0, eps):
    """Random cell sets of every density, on the stencil graph and on its
    second and third powers."""
    grid = build_grid(sample_points(400, d, seed=d, p=1.0), r0, eps)
    graph = build_cell_graph(grid)
    assert graph.stencil
    steps = [(0,) * d] + graph.stencil
    power = set(steps)
    rng = np.random.default_rng(d)
    most = 0
    for ell in (1, 2, 3):
        rows = _stencil_rows(grid.m, d, [t for t in power if any(t)])
        for frac in (0.0, 0.01, 0.05, 0.2, 0.6, 1.0):
            cells = np.nonzero(rng.random(grid.n_cells) < frac)[0].tolist()
            got = _components(cells, *rows)
            assert got == _bfs_components(cells, *rows)
            most = max(most, len(got))
        power = {tuple(a + b for a, b in zip(u, v)) for u in power for v in steps}
    assert most > 1


# -- diagnostics -----------------------------------------------------------

EXPECTED_CHECKS = {
    "max_cell_occupancy",
    "sparse_cell_count",
    "ugly_component_diameter",
    "bad_cell_count",
    "ugly_component_separation",
    "good_cells_near_ugly_connected",
    "cell_graph_max_degree",
    "sparse_boundary_sets",
}


def test_diagnostics_check_names(hole_cloud):
    grid, graph, cls = _engineered_setup(hole_cloud)
    report = diagnostics(grid, graph, cls)
    assert EXPECTED_CHECKS <= set(report.checks)
    for name, chk in report.checks.items():
        assert chk["passed"] in (True, False, None)
        assert isinstance(chk["measured"], dict)


def test_diagnostics_hard_checks_on_engineered(hole_cloud):
    grid, graph, cls = _engineered_setup(hole_cloud)
    report = diagnostics(grid, graph, cls)
    assert report.checks["cell_graph_max_degree"]["passed"] is True
    assert report.checks["ugly_component_diameter"]["passed"] is True
    occ = report.checks["max_cell_occupancy"]["measured"]["max_count"]
    assert occ == int(grid.counts.max())


def test_diagnostics_report_only_checks(hole_cloud):
    grid, graph, cls = _engineered_setup(hole_cloud)
    report = diagnostics(grid, graph, cls, points=hole_cloud, r1=0.2, ell=2)
    assert report.checks["sparse_boundary_sets"]["passed"] is None
    assert report.checks["power_graph_degree"]["passed"] is None
    deg = report.checks["power_graph_degree"]["measured"]
    assert deg["max_degree_ell"] >= deg["max_degree_1"] > 0


def _walk_sparse_sizes(cls, A, ell):
    """Reference: sparse-cell components grown by adding every sum of up to
    ell stencil offsets to each member's multi-index, inside the grid."""
    grid, d = cls.grid, cls.grid.d
    steps = [(0,) * d] + cls.graph.stencil
    power = {(0,) * d}
    for _ in range(ell):
        power = {tuple(a + b for a, b in zip(u, v)) for u in power for v in steps}
    sparse = {c for c in range(grid.n_cells) if grid.counts[c] < cls.dense_threshold}
    sizes, seen = [0] * (d + 1), set()
    for start in sorted(sparse):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for c in comp:
            for nb in (tuple(x + t for x, t in zip(grid.multi(c), delta)) for delta in power):
                if all(0 <= x < grid.m for x in nb):
                    nb = grid.flat(nb)
                    if nb in sparse and nb not in seen:
                        seen.add(nb)
                        comp.append(nb)
        facets = max(int((grid.boundary_distances(c) <= A * grid.r0).sum()) for c in comp)
        for i in range(min(facets, d) + 1):
            sizes[i] = max(sizes[i], len(comp))
    return sizes


def _bfs_good_near_ugly(cls, bound):
    """Reference: hop distances from the first good cell within l_inf 3 r0
    of each ugly cell, over the good cells within that distance."""
    grid = cls.grid
    failures, worst = 0, 0
    for u in cls.ugly:
        um = np.array(grid.multi(u))
        sel = [c for c in cls.good
               if (np.maximum(np.abs(np.array(grid.multi(c)) - um) - 1, 0) * grid.side).max()
               <= 3 * grid.r0]
        if len(sel) <= 1:
            continue
        dist = {sel[0]: 0}
        queue = [sel[0]]
        for c in queue:
            for nb in cls.graph.neighbors(c):
                if nb in sel and nb not in dist:
                    dist[nb] = dist[c] + 1
                    queue.append(nb)
        if len(dist) < len(sel):
            failures += 1
            continue
        worst = max(worst, max(dist.values()))
        failures += max(dist.values()) > bound
    return {"failing_ugly_cells": failures, "worst_graph_diameter": float(worst),
            "bound": bound}


@pytest.mark.parametrize("p, seed, eps", [(2.0, 0, 0.02), (2.0, 2, 0.01), (1.0, 0, 0.01)])
def test_diagnostics_traversals_match_references(p, seed, eps):
    """Sparse-cell components in the cell graph's powers, and connectivity
    and eccentricity of good cells near ugly cells, against plain walks."""
    pts = sample_points(600, 2, seed=seed, p=p)
    grid = build_grid(pts, 0.3, eps)
    graph = build_cell_graph(grid)
    cls = classify_cells(grid, graph)
    assert cls.ugly and cls.good
    for ell in (1, 2, 3):
        got = diagnostics(grid, graph, cls, ell=ell).checks
        assert (got["sparse_boundary_sets"]["measured"]["max_component_size_by_min_facets"]
                == _walk_sparse_sizes(cls, 3.0, ell))
    near = got["good_cells_near_ugly_connected"]["measured"]
    assert near == _bfs_good_near_ugly(cls, near["bound"])


@pytest.mark.parametrize("d, p", [(2, 2.0), (2, 1.5), (3, math.inf)])
def test_power_graph_degree_matches_hop_sets(d, p):
    """Degrees of the r1 point graph and of its ell-th power against
    neighbour sets grown hop by hop."""
    pts = sample_points(150, d, seed=4, p=p)
    grid = build_grid(pts, 0.6, 0.005)
    graph = build_cell_graph(grid)
    cls = classify_cells(grid, graph)
    r1 = 0.15 if d == 2 else 0.3
    within = pairwise_distances(pts.points, p) <= r1
    np.fill_diagonal(within, False)
    adj = [set(np.nonzero(row)[0].tolist()) for row in within]
    for ell in (1, 2, 3):
        got = diagnostics(grid, graph, cls, points=pts, r1=r1, ell=ell)
        measured = got.checks["power_graph_degree"]["measured"]
        best = 0
        for v in range(pts.n):
            reach = set(adj[v])
            for _ in range(ell - 1):
                reach |= set().union(*(adj[w] for w in reach))
            reach.discard(v)
            best = max(best, len(reach))
        assert measured["max_degree_1"] == max(len(s) for s in adj)
        assert measured["max_degree_ell"] == best


def test_diagnostics_json_round_trip(hole_cloud):
    grid, graph, cls = _engineered_setup(hole_cloud)
    report = diagnostics(grid, graph, cls)
    raw = json.loads(report.to_json())
    assert set(raw) == set(report.checks)
    assert all(raw[k]["passed"] in (True, False, None) for k in report.checks)


# Diagnostics JSON of the three clouds below at ell = 1 and 2, joined by
# newlines.  A refactor of the cell-graph traversals or the power-degree
# count must leave this digest as it is.
PINNED_DIAGNOSTICS_SHA256 = "fe7f1aa62ccddd5d9ffa824027e91f0b57d6d3a8e696df3127119efc6b863bdb"


def _engineered_reports():
    texts = []
    for seed, ring_pts in ((0, 0), (1, 1), (3, 2)):
        cloud = engineered_points(seed=seed, ring_pts=ring_pts)
        grid, graph, cls = _engineered_setup(cloud)
        for ell in (1, 2):
            texts.append(diagnostics(grid, graph, cls, points=cloud, r1=0.2,
                                     ell=ell).to_json())
    return "\n".join(texts)


def test_engineered_diagnostics_pinned():
    """Reports on the ring 0/1/2 engineered clouds, power degree and sparse
    power-graph components included, pinned by digest."""
    digest = hashlib.sha256(_engineered_reports().encode()).hexdigest()
    assert digest == PINNED_DIAGNOSTICS_SHA256


def test_diagnostics_on_degenerate_grid():
    """Diagnostics still run (and report) when the cell graph is edgeless."""
    ps = sample_points(400, 2, seed=11)
    ref = reference_radii(400, 2, 2.0)
    grid = build_grid(ps, ref.r0, 0.1)
    graph = build_cell_graph(grid)
    cls = classify_cells(grid, graph)
    report = diagnostics(grid, graph, cls)
    chk = report.checks["cell_graph_max_degree"]
    assert chk["measured"]["degenerate_threshold"] is True
    assert chk["passed"] is True
