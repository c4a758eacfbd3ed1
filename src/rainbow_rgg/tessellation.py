"""Tessellation of the unit cube into cells, and the graph of cells.

The cube is cut into m^d axis-aligned cells whose side is calibrated to a
reference radius r0 so that a cell holds on the order of eps * log n points.
Two cells are adjacent in the cell graph when their l_p set-distance is at
most r0 - 2ds, which guarantees every cross pair of resident vertices is
within r0 of each other.  Cells are then classified:

  dense  -- at least max(3, ceil(eps^3 log n)) resident vertices
  good   -- the largest connected component of dense cells
  bad    -- sparse cells adjacent to a good cell
  ugly   -- everything else

All asymptotic structure claims about this classification are evaluated as
observables by ``diagnostics``; they report pass/fail per instance and never
abort a run.  The adjacency threshold r0 - 2ds is positive only for eps
below about d^{-d} / (2 d theta), 0.0199 for l_2 at d = 2, at every n (the
rounding of s to 1/m moves the bound a little).  Above it the cell graph is
edgeless and flagged degenerate rather than an error, so the diagnostics can
quantify exactly how far the instance is from the asymptotic regime.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity

from .geometry import PointSet, json_safe, lp_lengths, unit_ball_volume

__all__ = [
    "CellGrid",
    "CellGraph",
    "CellClassification",
    "TessellationRegimeError",
    "build_grid",
    "build_cell_graph",
    "classify_cells",
    "diagnostics",
    "DiagnosticsReport",
    "verify_cross_pairs",
]


class TessellationRegimeError(ValueError):
    """The requested tessellation cannot be built at this scale; the caller
    should fall back to oracle verification or report a structured failure."""


@dataclass
class CellGrid:
    """Uniform grid of m^d cells over [0,1]^d with resident counts.

    side == 1/m, so the grid tiles the cube with no remainder.  Flat cell
    ids are C-order ravellings of the d multi-indices.  The residents of
    cell c are ``residents[starts[c]:starts[c + 1]]``, in vertex order.
    """

    d: int
    m: int
    side: float
    r0: float
    epsilon: float
    p: float
    cell_of_vertex: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    residents: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.m ** self.d

    @property
    def n(self) -> int:
        return int(self.cell_of_vertex.shape[0])

    def coords(self, cells) -> np.ndarray:
        """(k, d) array of the multi-indices of the k flat cell ids."""
        return np.stack(np.unravel_index(np.asarray(cells, dtype=np.int64),
                                         (self.m,) * self.d), axis=-1)

    def vertices_in(self, cell: int) -> np.ndarray:
        return self.residents[self.starts[cell]:self.starts[cell + 1]]


def build_grid(points: PointSet, r0: float, epsilon: float) -> CellGrid:
    """Cut the cube into cells of side 1/ceil(1/s'), s' = (2 eps d theta)^{1/d} r0 / 2."""
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = points.dim
    theta = unit_ball_volume(d, points.p)
    s_target = (2.0 * epsilon * d * theta) ** (1.0 / d) * r0 / 2.0
    if s_target >= 1.0:
        raise TessellationRegimeError(
            f"target cell side {s_target:.4f} >= 1; instance too small to tessellate")
    m = math.ceil(1.0 / s_target)
    side = 1.0 / m
    idx = np.minimum((points.points * m).astype(np.int64), m - 1)
    flat = np.ravel_multi_index(tuple(idx.T), (m,) * d)
    counts = np.bincount(flat, minlength=m ** d)
    return CellGrid(d=d, m=m, side=side, r0=float(r0),
                    epsilon=float(epsilon), p=points.p,
                    cell_of_vertex=flat.astype(np.int64), counts=counts,
                    starts=np.concatenate([[0], np.cumsum(counts)]),
                    residents=np.argsort(flat, kind="stable"))


def _offset_set_distance(delta, side: float, p: float) -> float:
    gaps = np.array([max(0, abs(t) - 1) * side for t in delta], dtype=np.float64)
    return float(lp_lengths(gaps, p))


def _offset_max_cross(delta, side: float, p: float) -> float:
    spans = np.array([(abs(t) + 1) * side for t in delta], dtype=np.float64)
    return float(lp_lengths(spans, p))


@dataclass
class CellGraph:
    """Adjacency of cells at set-distance <= threshold, from an offset stencil.

    The set-distance between two cells depends only on their index offset,
    so the whole graph is one stencil of offsets, laid over the grid once
    into compressed rows: the neighbours of cell c are
    ``indices[indptr[c]:indptr[c + 1]]``, ascending.  A non-positive
    threshold (possible when epsilon is large for the dimension and norm)
    yields an edgeless graph, flagged via ``degenerate_threshold``.
    """

    grid: CellGrid
    threshold: float
    stencil: list
    degenerate_threshold: bool
    degree_bound: float
    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, cell: int) -> list[int]:
        return self.indices[self.indptr[cell]:self.indptr[cell + 1]].tolist()

    def induced(self, cells) -> csr_matrix:
        """Adjacency matrix of the subgraph induced on the ascending cells."""
        return _induced(self.indptr, self.indices, cells)

    def max_degree(self) -> int:
        """Exact maximum degree over cells (boundary cells lose neighbours)."""
        return int(np.diff(self.indptr).max())


def _stencil_rows(m: int, d: int, stencil: list):
    """Compressed neighbour rows of the m^d grid under the stencil.

    Offsets with a component of length >= m join no two cells (the shifted
    slices below would wrap around for them), so they are dropped.
    """
    ids = np.arange(m ** d).reshape((m,) * d)
    src, dst = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for delta in stencil:
        if any(abs(t) >= m for t in delta):
            continue
        # cells c with c + delta inside the grid, and those cells c + delta
        src.append(ids[tuple(slice(max(0, -t), m - max(0, t)) for t in delta)].ravel())
        dst.append(ids[tuple(slice(max(0, t), m - max(0, -t)) for t in delta)].ravel())
    src, dst = np.concatenate(src), np.concatenate(dst)
    order = np.lexsort((dst, src))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=m ** d))])
    return indptr, dst[order]


def build_cell_graph(grid: CellGrid) -> CellGraph:
    """Stencil of adjacent offsets for the grid at threshold r0 - 2ds."""
    r0 = grid.r0
    threshold = r0 - 2.0 * grid.d * grid.side
    stencil = []
    if threshold > 0:
        reach = int(threshold / grid.side) + 1
        for delta in itertools.product(range(-reach, reach + 1), repeat=grid.d):
            if all(t == 0 for t in delta):
                continue
            if _offset_set_distance(delta, grid.side, grid.p) <= threshold:
                # construction guarantee: adjacency keeps every cross pair within r0
                assert _offset_max_cross(delta, grid.side, grid.p) <= r0 * (1 + 1e-12)
                stencil.append(delta)
    theta = unit_ball_volume(grid.d, grid.p)
    bound = theta * (r0 + 2 * grid.d * grid.side) ** grid.d / grid.side ** grid.d + 1
    indptr, indices = _stencil_rows(grid.m, grid.d, stencil)
    return CellGraph(grid=grid, threshold=threshold, stencil=stencil,
                     degenerate_threshold=threshold <= 0, degree_bound=bound,
                     indptr=indptr, indices=indices)


def _induced(indptr: np.ndarray, indices: np.ndarray, cells) -> csr_matrix:
    """Sparse adjacency matrix of the subgraph that the compressed rows
    induce on the ascending ``cells``: row k stands for cells[k]."""
    n = indptr.size - 1
    adj = csr_matrix((np.ones(indices.size, np.int8), indices, indptr), shape=(n, n))
    return adj[cells][:, cells]


def _components(cells, indptr, indices) -> list[list[int]]:
    """Connected components of the subgraph that the compressed rows induce
    on ``cells``: each ascending, ordered by their smallest cell."""
    # csgraph loads scipy.sparse.linalg, so it is imported on first use,
    # not with the package
    from scipy.sparse.csgraph import connected_components
    cells = sorted(cells)
    labels = connected_components(_induced(indptr, indices, cells), directed=False)[1]
    comps = {}
    for c, label in zip(cells, labels.tolist()):
        comps.setdefault(label, []).append(c)
    return list(comps.values())


@dataclass
class CellClassification:
    """good / bad / ugly partition of all cells of the grid."""

    grid: CellGrid
    graph: CellGraph
    dense_threshold: int
    good: list[int]
    bad: list[int]
    ugly: list[int]
    ugly_components: list[list[int]]
    degenerate: bool


def classify_cells(grid: CellGrid, graph: CellGraph) -> CellClassification:
    """Partition cells into good / bad / ugly.

    good = largest connected component of dense cells (ties broken by the
    smallest minimum cell id), bad = sparse cells adjacent to good, ugly =
    the rest.  When no cell is dense the classification is flagged
    degenerate and everything is ugly.
    """
    n = grid.n
    dense_threshold = max(3, math.ceil(grid.epsilon ** 3 * math.log(n))) if n >= 2 else 3
    dense = set(np.nonzero(grid.counts >= dense_threshold)[0].tolist())
    all_cells = set(range(grid.n_cells))
    if not dense:
        return CellClassification(grid=grid, graph=graph, dense_threshold=dense_threshold,
                                  good=[], bad=[], ugly=sorted(all_cells),
                                  ugly_components=_components(all_cells, graph.indptr,
                                                              graph.indices),
                                  degenerate=True)
    comps = _components(dense, graph.indptr, graph.indices)
    comps.sort(key=lambda c: (-len(c), c[0]))
    good = comps[0]
    good_set = set(good)
    sparse = sorted(all_cells - dense)
    bad = []
    for c in sparse:
        if any(nb in good_set for nb in graph.neighbors(c)):
            bad.append(c)
    # a dense cell adjacent to good would sit in the same component, hence be good
    for c in sorted(dense - good_set):
        assert not any(nb in good_set for nb in graph.neighbors(c))
    bad_set = set(bad)
    ugly = sorted(all_cells - good_set - bad_set)
    ugly_components = _components(ugly, graph.indptr, graph.indices)
    return CellClassification(grid=grid, graph=graph, dense_threshold=dense_threshold,
                              good=good, bad=bad, ugly=ugly,
                              ugly_components=ugly_components, degenerate=False)


@dataclass
class DiagnosticsReport:
    """Named structure checks: asymptotic conclusions evaluated at finite n.

    Each check has passed True/False, or None when the claim has no sharp
    finite-n form and is only reported.  Never raises; never aborts.
    """

    checks: dict

    def to_json(self) -> str:
        return json.dumps(json_safe(self.checks), sort_keys=True)


def _member_coords(comps, grid: CellGrid):
    """Multi-indices of all members of the (non-empty) components, one row
    per member, and the index of its component for each row."""
    label = np.repeat(np.arange(len(comps)), [len(c) for c in comps])
    return grid.coords(np.concatenate(comps)), label


def _ugly_separation(classification: CellClassification, A: float) -> float:
    """Minimum l_p set-distance between distinct ugly components (inf if < 2)."""
    grid = classification.grid
    comps = classification.ugly_components
    if len(comps) < 2:
        return math.inf
    comp_id = np.full((grid.m,) * grid.d, -1, dtype=np.int64)
    for ci, comp in enumerate(comps):
        comp_id.flat[comp] = ci  # flat ids are C-order
    # offsets of m or more cells along an axis join no two cells
    reach = min(int(A * grid.r0 / grid.side) + 2, grid.m - 1)
    best = math.inf
    for delta in itertools.product(range(-reach, reach + 1), repeat=grid.d):
        if tuple(delta) <= tuple([0] * grid.d):
            continue
        dist = _offset_set_distance(delta, grid.side, grid.p)
        if dist >= best:
            continue
        src = tuple(slice(max(0, -t), grid.m - max(0, t)) for t in delta)
        dst = tuple(slice(max(0, t), grid.m - max(0, -t)) for t in delta)
        a = comp_id[dst]
        b = comp_id[src]
        hit = (a >= 0) & (b >= 0) & (a != b)
        if hit.any():
            best = dist
    return best


def _good_near_ugly(classification: CellClassification, diameter_bound: float):
    """For each ugly cell: do good cells within l_inf 3 r0 induce a connected
    subgraph of the cell graph, with bounded graph diameter?"""
    from scipy.sparse.csgraph import shortest_path
    grid = classification.grid
    graph = classification.graph
    good = classification.good
    if not good:
        return True, 0, 0.0
    good_multis = grid.coords(good)
    good_adj = graph.induced(good)
    failures = 0
    worst_diam = 0
    for um in grid.coords(classification.ugly):
        gaps = np.maximum(np.abs(good_multis - um) - 1, 0) * grid.side
        near = np.nonzero(gaps.max(axis=1) <= 3 * grid.r0)[0]
        if near.size <= 1:
            continue
        # hop distances from the first selected cell; good and near ascend,
        # so the slice is the subgraph induced on the selected cells
        dist = shortest_path(good_adj[near][:, near], directed=False, unweighted=True,
                             indices=0)
        if np.isinf(dist).any():
            failures += 1
            continue
        ecc = dist.max()
        worst_diam = max(worst_diam, ecc)  # eccentricity lower-bounds diameter
        if ecc > diameter_bound:
            failures += 1
    return failures == 0, failures, float(worst_diam)


def _sparse_boundary_sets(classification: CellClassification, A: float, ell: int):
    """Connected sets of sparse cells in the ell-th power of the cell graph,
    summarized per facet proximity: entry i is the largest component with
    some member within A r0 of at least i facets, for i = 0..d.

    The matching claimed bounds are (d-i)/d * (1+eps)/eps cells for i < d
    and zero cells for i = d; both are returned for reporting only.
    """
    grid = classification.grid
    graph = classification.graph
    d = grid.d
    eps = grid.epsilon
    bounds = [(d - i) / d * (1 + eps) / eps for i in range(d)] + [0.0]
    sparse = np.nonzero(grid.counts < classification.dense_threshold)[0].tolist()
    sizes = [0] * (d + 1)
    if not sparse:
        return sizes, bounds
    # offsets reachable within ell stencil steps
    power = {(0,) * d}
    for _ in range(ell):
        power |= {tuple(b + t for b, t in zip(base, delta))
                  for base in power for delta in graph.stencil}
    power.discard((0,) * d)
    indptr, indices = _stencil_rows(grid.m, d, power)
    lim = A * grid.r0
    comps = _components(sparse, indptr, indices)
    xy, label = _member_coords(comps, grid)
    # facets of the cube within A r0 of a member, lower and upper per axis
    facets = ((xy * grid.side <= lim).sum(axis=1)
              + ((grid.m - xy - 1) * grid.side <= lim).sum(axis=1))
    top_facets = np.zeros(len(comps), dtype=np.int64)
    np.maximum.at(top_facets, label, facets)
    lens = np.bincount(label)
    return [int(lens[top_facets >= i].max(initial=0)) for i in range(d + 1)], bounds


def diagnostics(grid: CellGrid, graph: CellGraph, classification: CellClassification,
                points: PointSet | None = None, r1: float | None = None,
                A: float = 3.0, ell: int = 2) -> DiagnosticsReport:
    """Evaluate the asymptotic structure claims as finite-n observables.

    Hard geometric facts (cross-pair containment, degree bound) are checked
    exactly; asymptotic conclusions report pass/fail; order-of-magnitude
    claims are reported without judgement (passed = None).
    """
    n = grid.n
    checks = {}
    ln_n = math.log(n) if n >= 2 else 1.0

    max_occ = int(grid.counts.max()) if grid.counts.size else 0
    checks["max_cell_occupancy"] = {
        "passed": max_occ <= ln_n,
        "measured": {"max_count": max_occ, "bound": ln_n},
    }

    sparse_count = int((grid.counts < classification.dense_threshold).sum())
    bound_sparse = n ** (1 - grid.epsilon / 2)
    checks["sparse_cell_count"] = {
        "passed": sparse_count <= bound_sparse,
        "measured": {"count": sparse_count, "bound": bound_sparse},
    }

    diam_bound = 4 * grid.d ** 2 * grid.side
    worst = 0.0
    comps = classification.ugly_components
    if comps:
        xy, label = _member_coords(comps, grid)
        lo = np.full((len(comps), grid.d), grid.m)
        hi = np.full((len(comps), grid.d), -1)
        np.minimum.at(lo, label, xy)
        np.maximum.at(hi, label, xy)
        worst = float((hi - lo + 1).max() * grid.side)
    checks["ugly_component_diameter"] = {
        "passed": worst <= diam_bound,
        "measured": {"max_linf_diameter": worst, "bound": diam_bound,
                     "components": len(classification.ugly_components)},
    }

    checks["bad_cell_count"] = {
        "passed": len(classification.bad) <= bound_sparse,
        "measured": {"count": len(classification.bad), "bound": bound_sparse},
    }

    min_sep = _ugly_separation(classification, A)
    checks["ugly_component_separation"] = {
        "passed": min_sep >= A * grid.r0,
        "measured": {"min_separation": min_sep, "bound": A * grid.r0, "A": A},
    }

    diameter_bound = 2 * (20 * grid.d) ** grid.d
    ok, failures, worst_diam = _good_near_ugly(classification, diameter_bound)
    checks["good_cells_near_ugly_connected"] = {
        "passed": ok,
        "measured": {"failing_ugly_cells": failures, "worst_graph_diameter": worst_diam,
                     "bound": diameter_bound},
    }

    max_deg = graph.max_degree()
    checks["cell_graph_max_degree"] = {
        "passed": max_deg <= graph.degree_bound,
        "measured": {"max_degree": max_deg, "bound": graph.degree_bound,
                     "degenerate_threshold": graph.degenerate_threshold,
                     "threshold": graph.threshold},
    }

    if points is not None and r1 is not None:
        from .process import _pairs_within
        ii, jj, _ = _pairs_within(points.points, r1, points.p)
        adj = csr_matrix((np.ones(2 * ii.size), (np.r_[ii, jj], np.r_[jj, ii])),
                         shape=(points.n, points.n))
        deg1 = int(adj.getnnz(axis=1).max())
        # rows of (A + I)^ell hold every vertex within ell hops, itself included
        walk = reach = adj + identity(points.n, format="csr")
        for _ in range(ell - 1):
            walk = walk @ reach
        deg_ell = int(walk.getnnz(axis=1).max()) - 1
        checks["power_graph_degree"] = {
            "passed": None,
            "measured": {"max_degree_1": deg1, "max_degree_ell": deg_ell,
                         "ell": ell, "log_n": ln_n,
                         "ratio_to_log_n": deg_ell / ln_n if ln_n > 0 else math.inf},
        }

    sizes, claimed = _sparse_boundary_sets(classification, A, ell)
    checks["sparse_boundary_sets"] = {
        "passed": None,
        "measured": {"max_component_size_by_min_facets": sizes,
                     "claimed_bounds": claimed, "A": A, "ell": ell},
    }

    return DiagnosticsReport(checks=checks)


def verify_cross_pairs(grid: CellGrid, graph: CellGraph, points: PointSet):
    """Exhaustive check of the adjacency guarantee on resident vertices.

    Returns (pairs_checked, violations): over every adjacent pair of
    occupied cells, every cross pair of resident vertices must be within
    l_p distance r0.
    """
    pairs = 0
    violations = 0
    pts = points.points
    for c in np.nonzero(grid.counts)[0].tolist():
        vs = grid.vertices_in(c)
        for nb in graph.neighbors(c):
            if nb <= c or not grid.counts[nb]:
                continue
            ws = grid.vertices_in(nb)
            dmat = lp_lengths(np.abs(pts[vs][:, None, :] - pts[ws][None, :, :]), grid.p)
            pairs += dmat.size
            violations += int((dmat > grid.r0 * (1 + 1e-12)).sum())
    return pairs, violations
