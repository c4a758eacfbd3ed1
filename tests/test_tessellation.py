"""Tessellation layer: grid, cell graph, classification, diagnostics.

The adjacency rule promises that residents of adjacent cells are within
the build radius; verify_cross_pairs re-checks that promise exhaustively
at the vertex level, which keeps the stencil computation honest.
"""

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
    reference_radii,
    sample_points,
    unit_ball_volume,
    verify_cross_pairs,
)
from rainbow_rgg.tessellation import _components, _offset_set_distance

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
            mi = grid.multi(cell)
            walk = sorted(grid.flat(nb) for nb in
                          (tuple(c + t for c, t in zip(mi, delta)) for delta in graph.stencil)
                          if all(0 <= x < grid.m for x in nb))
            assert graph.neighbors(cell) == walk
            longest = max(longest, len(walk))
        assert graph.max_degree() == longest


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
    comps = _components(set(cls.good), graph)
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
    assert cls.label_of(centre) == "ugly"
    assert any(centre in comp for comp in cls.ugly_components)
    # the crowded cells are good
    corner = grid.flat((0, 0))
    assert cls.label_of(corner) == "good"


def test_classification_ring_cells_are_bad(ring_cloud):
    grid, graph, cls = _engineered_setup(ring_cloud)
    ring = [(4, 4), (4, 5), (4, 6), (5, 4), (5, 6), (6, 4), (6, 5), (6, 6)]
    labels = {cls.label_of(grid.flat(ij)) for ij in ring}
    assert labels == {"bad"}
    assert cls.label_of(grid.flat((5, 5))) == "ugly"


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
    a = _components(cells, graph)
    b = _components(cells, graph)
    assert a == b
    assert sorted(c for comp in a for c in comp) == sorted(cells)


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


def test_diagnostics_json_round_trip(hole_cloud):
    grid, graph, cls = _engineered_setup(hole_cloud)
    report = diagnostics(grid, graph, cls)
    raw = json.loads(report.to_json())
    assert set(raw) == set(report.checks)
    rates = report.pass_rates()
    assert all(v in (True, False, None) for v in rates.values())


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
