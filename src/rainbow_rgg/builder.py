"""Staged construction of rainbow Hamilton cycles and perfect matchings.

The pipeline works outward from the hardest regions of the cube:

  1. plan_ugly_paths    -- cover each component of ugly cells by a vertex
                           path, with endpoints parked in good cells
  2. colour_ugly_paths  -- read off the coupled colours; any collision is
                           a structured failure
  3. build_bad_forests  -- chain the residents of each bad cell, dropping
                           edges whose colour is already taken
  4. build_good_cycles  -- rainbow cycle inside each good cell on edges
                           whose colour appears once in the cell
  5. build_stitch_plan  -- choose splice points joining everything along a
                           spanning tree of the good cells
  6. apply_stitch       -- apply all splices at once and emit the final
                           edge list

Every stage adds the colours it takes to one shared set of used colours
and takes none already in it, so the final structure is rainbow by
construction.  A stage that cannot proceed raises StageError with its
stage name, reason and details; build_rainbow catches it and returns it
as a BuildFailure, so failures are data at the entry point.
The stages do not check the structure they assemble: build_rainbow
re-validates every certificate against the coupled process before it is
returned, and a malformed one becomes a BuildFailure at stage "verify".

Vertex parities, drained cells and exhausted splice slots are normal
outcomes at simulable n.  A non-positive cell-graph threshold is not a
matter of scale: it happens for epsilon above about d^{-d} / (2 d theta)
(0.0199 for l_2 at d = 2) at every n, the default 0.1 included.  Instances
within the exact oracle's limits are answered by the oracle instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointSet, json_safe, lp_lengths
from .hamilton import hamilton_cycle, hamilton_path
from .process import ColouredProcess, _pairs_within, build_process, reference_radii
from .tessellation import (CellClassification, CellGraph, CellGrid,
                           TessellationRegimeError, build_cell_graph,
                           build_grid, classify_cells)
from . import oracle as _oracle

__all__ = [
    "UglyPathPlan",
    "BadPath",
    "GoodCycle",
    "BuildFailure",
    "StageError",
    "RainbowCertificate",
    "plan_ugly_paths",
    "colour_ugly_paths",
    "build_bad_forests",
    "build_good_cycles",
    "build_stitch_plan",
    "apply_stitch",
    "build_rainbow",
]


@dataclass
class BuildFailure:
    """A stage that could not proceed, with enough detail to understand why."""

    stage: str
    reason: str
    mode: str
    n: int
    target_radius: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"ok": False, "failed_stage": self.stage,
                           "reason": self.reason, "mode": self.mode,
                           "n": self.n, "target_radius": self.target_radius,
                           "details": json_safe(self.details)}, sort_keys=True)


class StageError(Exception):
    """Raised by a stage that cannot proceed; build_rainbow returns it as a
    BuildFailure with the mode, n and target radius filled in."""

    def __init__(self, stage: str, reason: str, **details):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason
        self.details = details


@dataclass
class RainbowCertificate:
    """A rainbow structure with its edges, colours and the radius it needs.

    Edges are internal 0-based (i, j, colour, length); serialization is
    1-based.  For mode 'hc' the edges form one Hamilton cycle; for 'pm' a
    perfect matching.
    """

    mode: str
    n: int
    radius: float
    target_radius: float
    edges: list
    method: str
    colour_seed: int
    n_colours: int
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ok": True,
            "mode": self.mode,
            "n": self.n,
            "radius": self.radius,
            "target_radius": self.target_radius,
            "edges": [[i + 1, j + 1, int(c), float(ln)] for (i, j, c, ln) in self.edges],
            "method": self.method,
            "colour_seed": self.colour_seed,
            "n_colours": self.n_colours,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- Stage 1: paths through ugly components ---------------------------------

@dataclass
class UglyPathPlan:
    """A vertex path covering one ugly component.

    ``path`` lists the full vertex sequence.  In cycle mode it starts and
    ends at vertices parked in good cells, and ``anchor_cell`` is the good
    cell the path will be spliced into.  In matching mode the path stands
    alone and only needs an even vertex count.
    """

    path: list
    anchor_cell: int | None = None
    edges: list = field(default_factory=list)


class _SpareVertexPool:
    """Hands out unclaimed good-cell vertices under drain limits.

    A good cell keeps at least three unclaimed residents (its own cycle
    needs them) and gives up at most two vertices overall.  ``take`` is the
    one search: parked path ends and corridor picks are both claimed
    through it.
    """

    def __init__(self, points: PointSet, grid: CellGrid,
                 classification: CellClassification, claimed: set):
        self.points = points
        self.grid = grid
        self.claimed = claimed
        self.good_set = set(classification.good)
        self.drains = {}

    def take(self, cands, point, reach=math.inf):
        """Claim the first candidate within ``reach`` of ``point``, nearest
        first and ties in candidate order, that is unclaimed and lies in a
        good cell that can spare it; (vertex, cell), or None."""
        dist = lp_lengths(np.abs(self.points.points[cands] - point), self.points.p)
        near = np.nonzero(dist <= reach)[0]
        for v in cands[near[np.argsort(dist[near], kind="stable")]].tolist():
            cell = int(self.grid.cell_of_vertex[v])
            if (v in self.claimed or cell not in self.good_set
                    or self.drains.get(cell, 0) >= 2):
                continue
            if sum(u not in self.claimed for u in self.grid.vertices_in(cell).tolist()) > 3:
                self.claimed.add(v)
                self.drains[cell] = self.drains.get(cell, 0) + 1
                return v, cell
        return None


def _geom_adjacency(vertices, points: PointSet, r: float):
    """Local adjacency among the listed vertices at radius r."""
    adj = [set() for _ in vertices]
    aa, bb, _ = _pairs_within(points.points[vertices], r, points.p)
    for a, b in zip(aa.tolist(), bb.tolist()):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def plan_ugly_paths(points: PointSet, grid: CellGrid, graph: CellGraph,
                    classification: CellClassification, r: float,
                    mode: str = "hc"):
    """Stage 1: plan a path through every inhabited ugly component.

    Returns (plans, claimed); raises StageError("ugly_plan") when a
    component has no path or an end no parking place.  Path ends are parked
    on the nearest spare good-cell vertex within r, and a corridor takes
    the spare vertex of each of its cells nearest the previous pick; both
    go through one _SpareVertexPool.take search.  Claimed vertices (path
    interiors, parked endpoints, corridor picks) are excluded from all
    later stages.
    """
    claimed: set = set()
    pool = _SpareVertexPool(points, grid, classification, claimed)
    everyone = np.arange(points.n)
    plans = []

    def park(endpoint, reason):
        """Claim a spare good-cell vertex within r of the endpoint;
        (vertex, cell).  None there fails the current component."""
        took = pool.take(everyone, points.points[endpoint], r)
        if took is None:
            raise StageError("ugly_plan", reason, component_cells=comp, endpoint=endpoint)
        return took

    for comp in classification.ugly_components:
        vertices = sorted(v for c in comp for v in grid.vertices_in(c).tolist()
                          if v not in claimed)
        if not vertices:
            continue
        adj = _geom_adjacency(vertices, points, r)
        order = hamilton_path(len(vertices), adj)
        if order is None:
            raise StageError("ugly_plan", "no spanning path through ugly component",
                             component_cells=comp, vertices=len(vertices))
        path = [vertices[t] for t in order]
        claimed.update(path)

        if mode == "pm":
            if len(path) % 2:
                path.append(park(path[-1], "no parking vertex to even out path")[0])
            plans.append(UglyPathPlan(path=path))
            continue

        # cycle mode: park both ends in good cells, then make sure both end
        # cells share a splice anchor, extending through good cells if not
        head, head_cell = park(path[0], "no parking vertex near path head")
        tail, tail_cell = park(path[-1], "no parking vertex near path tail")
        path = [head] + path + [tail]
        if not (tail_cell == head_cell or tail_cell in graph.neighbors(head_cell)):
            # corridor: the shortest walk over good cells from the tail cell
            # to the head cell or a good neighbour of it, one vertex per cell;
            # the tail cell is neither, and rows are walked in ascending order
            from scipy.sparse.csgraph import breadth_first_order
            good = classification.good
            targets = {head_cell} | (set(graph.neighbors(head_cell)) & pool.good_set)
            start = good.index(tail_cell)
            reached, prev = breadth_first_order(graph.induced(good), start,
                                                return_predecessors=True)
            goal = next((k for k in reached.tolist() if good[k] in targets), None)
            if goal is None:
                raise StageError("ugly_plan", "no good-cell corridor between path ends",
                                 component_cells=comp, head_cell=head_cell,
                                 tail_cell=tail_cell)
            cells = []
            while goal != start:
                cells.append(good[goal])
                goal = prev[goal]
            cells.reverse()
            for cell in cells:
                took = pool.take(grid.vertices_in(cell), points.points[path[-1]])
                if took is None:
                    raise StageError("ugly_plan", "corridor cell has no spare vertex",
                                     component_cells=comp, cell=cell)
                path.append(took[0])
        plans.append(UglyPathPlan(path=path, anchor_cell=head_cell))
    return plans, claimed


# -- Stage 2: colour the planned paths ---------------------------------------

def colour_ugly_paths(plans, process: ColouredProcess, used: set, r: float):
    """Stage 2: read the coupled colour of every path edge and add it to
    the used colours.

    A repeated colour or an over-long edge raises StageError("ugly_colour");
    there is no re-planning, matching the one-shot nature of the
    construction.  Returns the plans with their edges filled in.
    """
    for pi, plan in enumerate(plans):
        edges = []
        lens, cols = process.pairs(plan.path[:-1], plan.path[1:])
        for a, b, ln, c in zip(plan.path, plan.path[1:], lens.tolist(), cols.tolist()):
            if ln > r:
                raise StageError("ugly_colour", "path edge exceeds radius",
                                 edge=[a + 1, b + 1], length=ln)
            if c in used:
                raise StageError("ugly_colour", "colour collision on path edge",
                                 edge=[a + 1, b + 1], colour=c, plan_index=pi)
            used.add(c)
            edges.append((a, b, c, ln))
        plan.edges = edges
    return plans


# -- Stage 3: chains through bad cells ---------------------------------------

@dataclass
class BadPath:
    """A chain of bad-cell residents to splice into a good neighbour's cycle."""

    cell: int
    parent_cell: int
    vertices: list
    edges: list = field(default_factory=list)


def build_bad_forests(grid: CellGrid, graph: CellGraph,
                      classification: CellClassification,
                      process: ColouredProcess, used: set,
                      claimed: set, r: float):
    """Stage 3: chain each bad cell's unclaimed residents in index order.

    Edges whose colour is already used (or that exceed the radius) are
    dropped, splitting the chain; every resulting piece is spliced into
    the adjacent good cell's cycle later.  A bad cell with no good
    neighbour raises StageError("bad_forest").
    """
    good_set = set(classification.good)
    out = []
    for cell in classification.bad:
        vs = [v for v in grid.vertices_in(cell).tolist() if v not in claimed]
        if not vs:
            continue
        parents = sorted(nb for nb in graph.neighbors(cell) if nb in good_set)
        if not parents:
            raise StageError("bad_forest", "bad cell lost its good neighbour", cell=cell)
        parent = parents[0]
        seg = [vs[0]]
        seg_edges = []
        lens, cols = process.pairs(vs[:-1], vs[1:])
        for a, b, ln, c in zip(vs, vs[1:], lens.tolist(), cols.tolist()):
            if ln <= r and c not in used:
                used.add(c)
                seg.append(b)
                seg_edges.append((a, b, c, ln))
            else:
                out.append(BadPath(cell=cell, parent_cell=parent,
                                   vertices=seg, edges=seg_edges))
                seg = [b]
                seg_edges = []
        out.append(BadPath(cell=cell, parent_cell=parent,
                           vertices=seg, edges=seg_edges))
    return out


# -- Stage 4: rainbow cycles inside good cells --------------------------------

@dataclass
class GoodCycle:
    """Rainbow Hamilton cycle on the unclaimed residents of one good cell."""

    order: list
    edges: list = field(default_factory=list)


def build_good_cycles(grid: CellGrid, classification: CellClassification,
                      process: ColouredProcess, used: set,
                      claimed: set, r: float):
    """Stage 4: in each good cell, keep edges whose colour occurs exactly
    once within the cell and is not yet used, then find a Hamilton
    cycle on what remains.  Distinct survivors automatically have distinct
    colours, so the cycle is rainbow.  A cell with fewer than three
    residents left, or without such a cycle, raises StageError("good_cycle").
    """
    cycles = {}
    for cell in classification.good:
        vs = [v for v in grid.vertices_in(cell).tolist() if v not in claimed]
        if len(vs) < 3:
            raise StageError("good_cycle", "good cell drained below cycle size",
                             cell=cell, remaining=len(vs))
        k = len(vs)
        pa, pb = np.triu_indices(k, 1)
        lens, cols = process.pairs(np.array(vs)[pa], np.array(vs)[pb])
        near = lens <= r
        cols = cols[near].tolist()
        colour_count = {c: cols.count(c) for c in cols}
        adj = [set() for _ in range(k)]
        usable = {}
        for a, b, c, ln in zip(pa[near].tolist(), pb[near].tolist(), cols,
                               lens[near].tolist()):
            if colour_count[c] == 1 and c not in used:
                adj[a].add(b)
                adj[b].add(a)
                usable[(a, b)] = (c, ln)
        order_local = hamilton_cycle(k, adj)
        if order_local is None:
            raise StageError("good_cycle", "no rainbow cycle in good cell",
                             cell=cell, vertices=k, survivor_edges=len(usable))
        edges = []
        for t in range(k):
            ai, bi = order_local[t], order_local[(t + 1) % k]
            key = (min(ai, bi), max(ai, bi))
            c, ln = usable[key]
            assert c not in used, "survivor colours are unique within a cell"
            used.add(c)
            edges.append((vs[ai], vs[bi], c, ln))
        cycles[cell] = GoodCycle(order=[vs[t] for t in order_local], edges=edges)
    return cycles


# -- Stage 5: choose splice points --------------------------------------------

def build_stitch_plan(graph: CellGraph, classification: CellClassification,
                      cycles: dict, bad_paths, plans,
                      process: ColouredProcess, used: set,
                      r: float, mode: str = "hc"):
    """Stage 5: pick a removed edge and two fresh-coloured bridges for every
    join: good-cell cycle merges along a spanning tree, bad chains into an
    adjacent good cycle, and (cycle mode) ugly paths near their anchor.

    Returns the list of merges, to be applied all at once.  Splice slots are
    even-position cycle edges, so no two share a vertex.  Splice demand
    concentrates around sparse regions, so the spanning tree grows toward
    the cell with the most unspent slots, and chains fall back to any
    adjacent good cell when their first choice is spent.  A join that finds
    no splice raises StageError("stitch").
    """
    good = classification.good
    good_set = set(good)

    # for odd length the wrap edge is no slot: it shares a vertex with slot 0
    free = {cell: list(range(0, len(cyc.order) - 1, 2)) for cell, cyc in cycles.items()}
    merges = []

    def slot_vertices(cell, pos):
        order = cycles[cell].order
        return order[pos], order[(pos + 1) % len(order)]

    def splice(options):
        """Take the first option (u1, v1, u2, v2, merge) whose bridges u1-v1
        and u2-v2 are within r and carry two distinct unused colours; True
        on success.  Bridges are read one option at a time, since the first
        or second option usually works."""
        for u1, v1, u2, v2, merge in options:
            l1, c1 = process.pairs(u1, v1)
            if l1 > r or c1 in used:
                continue
            l2, c2 = process.pairs(u2, v2)
            if l2 > r or c2 in used or c2 == c1:
                continue
            merge["added"] = [(u1, v1, c1, l1), (u2, v2, c2, l2)]
            used.update((c1, c2))
            merges.append(merge)
            free[merge["parent_cell"]].remove(merge["parent_slot"])
            if merge["kind"] == "tree":
                free[merge["child_cell"]].remove(merge["child_slot"])
            return True
        return False

    def merge_cycles(pc, cc):
        """Options joining two cycles: parent slot x child slot x orientation."""
        for ppos in free[pc]:
            a, b = slot_vertices(pc, ppos)
            for cpos in free[cc]:
                x, y = slot_vertices(cc, cpos)
                for u1, v1, u2, v2 in ((a, x, b, y), (a, y, b, x)):
                    yield u1, v1, u2, v2, {
                        "kind": "tree", "parent_cell": pc, "child_cell": cc,
                        "parent_slot": ppos, "child_slot": cpos,
                    }

    def splice_path(cells, head, tail, kind, path_obj):
        """Options inserting a path into a cycle: host cell x slot x
        orientation, host cells in the order given."""
        for cell in cells:
            for ppos in free[cell]:
                a, b = slot_vertices(cell, ppos)
                for h, t in ((head, tail), (tail, head)):
                    yield a, h, t, b, {
                        "kind": kind, "parent_cell": cell,
                        "parent_slot": ppos, "path": path_obj,
                    }

    def by_capacity(cells):
        return sorted(cells, key=lambda c: (-len(free.get(c, [])), c))

    # spanning tree of good cells, grown into the most slot-rich frontier
    good_nbs = {c: [nb for nb in graph.neighbors(c) if nb in good_set] for c in good}
    seen = {good[0]}
    while len(seen) < len(good):
        frontier = [(pc, nb) for pc in seen for nb in good_nbs[pc] if nb not in seen]
        if not frontier:
            raise StageError("stitch", "good cells are not connected",
                             reached=len(seen), total=len(good))
        pc, cc = max(frontier, key=lambda e: (len(free[e[0]]), -e[0], -e[1]))
        if not free[pc]:
            raise StageError("stitch", "splice slots exhausted while joining good cells",
                             reached=len(seen), total=len(good))
        if not splice(merge_cycles(pc, cc)):
            raise StageError("stitch", "no splice joining adjacent good cells",
                             parent_cell=pc, child_cell=cc,
                             parent_slots=len(free[pc]), child_slots=len(free[cc]))
        seen.add(cc)

    for bp in sorted(bad_paths, key=lambda b: (b.parent_cell, b.vertices[0])):
        hosts = by_capacity([c for c in graph.neighbors(bp.cell) if c in good_set])
        if not splice(splice_path(hosts, bp.vertices[0], bp.vertices[-1], "bad", bp)):
            raise StageError("stitch", "no splice for bad-cell chain", cell=bp.cell,
                             candidates=hosts[:8])

    if mode == "hc":
        for pi, up in enumerate(plans):
            anchor = up.anchor_cell
            if anchor not in cycles:
                raise StageError("stitch", "anchor cell has no cycle", anchor_cell=anchor)
            hosts = [anchor] + by_capacity(
                [c for c in graph.neighbors(anchor) if c in cycles])
            if not splice(splice_path(hosts, up.path[0], up.path[-1], "ugly", up)):
                raise StageError("stitch", "no splice for ugly path near its anchor",
                                 anchor_cell=anchor, plan_index=pi)
    return merges


# -- Stage 6: apply all splices ------------------------------------------------

def apply_stitch(cycles: dict, bad_paths, plans, merges: list, mode: str):
    """Stage 6: remove every chosen slot edge, add the bridges and path
    edges, and read off the final structure.

    Returns the edge list (i, j, colour, length) of the Hamilton cycle, or
    of the perfect matching: alternate edges of the stitched cycle, walked
    from its smallest vertex, plus alternate edges of each standalone path.
    Nothing here checks the structure; build_rainbow validates it.
    """
    removed = set()
    for mg in merges:
        removed.add((mg["parent_cell"], mg["parent_slot"]))
        if mg["kind"] == "tree":
            removed.add((mg["child_cell"], mg["child_slot"]))

    edge_list = []
    for cell, cyc in cycles.items():
        for pos, e in enumerate(cyc.edges):
            if (cell, pos) not in removed:
                edge_list.append(e)
    for bp in bad_paths:
        edge_list.extend(bp.edges)
    for mg in merges:
        edge_list.extend(mg["added"])
        if mg["kind"] == "ugly":
            edge_list.extend(mg["path"].edges)
    if mode == "hc":
        return edge_list

    adj, lookup = {}, {}
    for (i, j, c, ln) in edge_list:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
        lookup[i, j] = lookup[j, i] = (c, ln)
    # walk at most len(adj) steps; a doubled edge makes both neighbours
    # equal, so the walk takes the other copy
    steps = []
    prev, cur = None, min(adj, default=None)
    for _ in range(len(adj)):
        step = next((w for w in adj[cur] if w != prev), adj[cur][0])
        steps.append((cur, step))
        if step == steps[0][0]:
            break
        prev, cur = cur, step
    matching = [(a, b) + lookup[a, b] for a, b in steps[::2]]
    for p in plans:
        matching.extend(p.edges[::2])
    return matching


# -- Orchestration --------------------------------------------------------------

def build_rainbow(points: PointSet, r: float, *, mode: str = "hc",
                  epsilon: float = 0.1, K: float | None = None,
                  n_colours: int | None = None, colour_seed: int = 0,
                  grid_radius: float | None = None):
    """Run the full pipeline and return a validated RainbowCertificate, or
    a BuildFailure naming the stage that stopped it.

    Small instances are answered by the exact oracle instead.  The
    tessellation is calibrated to the reference radius for n points by
    default; ``grid_radius`` overrides it, which matters for engineered
    instances whose density profile does not follow the uniform model.
    """
    if mode not in ("hc", "pm"):
        raise ValueError("mode must be 'hc' or 'pm'")
    n = points.n
    try:
        if mode == "hc" and n < 3:
            raise StageError("input", "cycle needs at least 3 vertices")
        if mode == "pm" and (n < 2 or n % 2):
            raise StageError("input", "matching needs a positive even vertex count")
        small = n <= (_oracle.HC_VERTEX_LIMIT if mode == "hc" else _oracle.PM_VERTEX_LIMIT)
        # colours do not depend on the cutoff (see process.py) and the staged
        # stages read pairs through the coupling alone, so they need no events;
        # min() keeps build_process's refusal of a negative radius
        process = build_process(points, cutoff=r if small else min(r, 0.0), K=K,
                                n_colours=n_colours, colour_seed=colour_seed)
        if small:
            witness = _oracle.rainbow_witness_at(process, process.cutoff, mode)
            if witness is None:
                raise StageError("oracle", "no rainbow structure within radius")
            ii, jj, cc = np.array(witness).T
            lens = process.distance_of(ii, jj)
            edges = list(zip(ii.tolist(), jj.tolist(), cc.tolist(), lens.tolist()))
            method, meta = "oracle", {}
        else:
            edges, meta = _staged(points, r, mode, process, epsilon, grid_radius)
            method = "staged"
        radius = max((ln for (_, _, _, ln) in edges), default=0.0)
        cert = RainbowCertificate(mode=mode, n=n, radius=float(radius),
                                  target_radius=float(r), edges=edges,
                                  method=method, colour_seed=colour_seed,
                                  n_colours=process.n_colours, meta=meta)
        problems = _oracle.validate_certificate(cert.to_dict(), process)
        if problems:
            raise StageError("verify", "assembled structure failed validation",
                             problems=problems[:10])
        return cert
    except StageError as exc:
        return BuildFailure(stage=exc.stage, reason=exc.reason, mode=mode, n=n,
                            target_radius=r, details=exc.details)


def _staged(points: PointSet, r: float, mode: str, process: ColouredProcess,
            epsilon: float, grid_radius: float | None):
    """Tessellate and run the six stages; (edges, meta), or raises StageError."""
    n = points.n
    if grid_radius is not None:
        r0 = float(grid_radius)
    else:
        try:
            r0 = reference_radii(n, points.dim, points.p).r0
        except ValueError as exc:
            raise StageError("scale", "reference radius undefined at this size",
                             error=str(exc)) from exc
    try:
        grid = build_grid(points, r0, epsilon)
    except TessellationRegimeError as exc:
        raise StageError("tessellation", str(exc)) from exc
    graph = build_cell_graph(grid)
    if graph.degenerate_threshold:
        raise StageError("tessellation", "cell adjacency threshold non-positive",
                         threshold=graph.threshold, cells_per_axis=grid.m,
                         side=grid.side, r0=r0, epsilon=epsilon)
    classification = classify_cells(grid, graph)
    if classification.degenerate:
        raise StageError("tessellation", "no dense cells at this scale",
                         dense_threshold=classification.dense_threshold)

    used: set = set()
    plans, claimed = plan_ugly_paths(points, grid, graph, classification, r, mode)
    colour_ugly_paths(plans, process, used, r)
    bad_paths = build_bad_forests(grid, graph, classification, process, used, claimed, r)
    cycles = build_good_cycles(grid, classification, process, used, claimed, r)
    merges = build_stitch_plan(graph, classification, cycles, bad_paths, plans,
                               process, used, r, mode)
    edges = apply_stitch(cycles, bad_paths, plans, merges, mode)
    meta = {
        "stages": {
            "ugly_paths": len(plans),
            "bad_chains": len(bad_paths),
            "good_cycles": len(cycles),
            "splices": len(merges),
        },
        "cells_per_axis": grid.m,
        "good_cells": len(classification.good),
        "bad_cells": len(classification.bad),
        "ugly_cells": len(classification.ugly),
        "r0": r0,
        "epsilon": epsilon,
    }
    return edges, meta
