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

Every stage claims colours in a shared ledger, so the final structure is
rainbow by construction; a certificate is still re-validated against the
coupled process before it is returned.  Any stage that cannot proceed
returns a BuildFailure naming the stage instead of raising.

Vertex parities, drained cells and exhausted splice slots are normal
outcomes at simulable n.  A non-positive cell-graph threshold is not a
matter of scale: it happens for epsilon above about d^{-d} / (2 d theta)
(0.0199 for l_2 at d = 2) at every n, the default 0.1 included.  Instances
within the exact oracle's limits are answered by the oracle instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointSet, json_safe, lp_lengths
from .hamilton import hamilton_cycle, hamilton_path
from .process import ColouredProcess, build_process, reference_radii
from .tessellation import (CellClassification, CellGraph, CellGrid,
                           TessellationRegimeError, build_cell_graph,
                           build_grid, classify_cells)
from . import oracle as _oracle

__all__ = [
    "RainbowLedger",
    "UglyPathPlan",
    "BadPath",
    "GoodCycle",
    "StitchPlan",
    "BuildFailure",
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
class RainbowLedger:
    """Colours claimed so far; a colour can be claimed exactly once."""

    used: set = field(default_factory=set)

    def claim(self, colour: int) -> bool:
        if colour in self.used:
            return False
        self.used.add(colour)
        return True


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
    and ends at vertices parked in good cells and carries the good cell
    the path will be spliced into (``anchor_cell``).  In matching mode the
    path stands alone and only needs an even vertex count.
    """

    component_cells: list
    interior: list
    path: list
    anchor_cell: int | None = None
    edges: list = field(default_factory=list)


class _SpareVertexPool:
    """Hands out unclaimed good-cell vertices under drain limits.

    A good cell keeps at least three unclaimed residents (its own cycle
    needs them) and gives up at most two vertices overall.
    """

    def __init__(self, grid: CellGrid, classification: CellClassification,
                 claimed: set, coords: np.ndarray):
        self.grid = grid
        self.claimed = claimed
        self.coords = coords
        self.good_set = set(classification.good)
        self.drains = {}

    def unclaimed_in(self, cell: int) -> list:
        return [v for v in self.grid.vertices_in(cell).tolist() if v not in self.claimed]

    def can_drain(self, cell: int) -> bool:
        if self.drains.get(cell, 0) >= 2:
            return False
        return len(self.unclaimed_in(cell)) > 3

    def claim(self, v: int, cell: int) -> int:
        self.claimed.add(v)
        self.drains[cell] = self.drains.get(cell, 0) + 1
        return v

    def take(self, cell: int, prefer) -> int | None:
        """Claim the spare vertex of the cell closest to the point
        ``prefer`` (ties to the smaller index), or None."""
        if not self.can_drain(cell):
            return None
        cand = self.unclaimed_in(cell)
        k = int(np.argmin(lp_lengths(np.abs(self.coords[cand] - prefer), self.grid.p)))
        return self.claim(cand[k], cell)


def _geom_adjacency(vertices, points: PointSet, r: float):
    """Local adjacency among the listed vertices at radius r."""
    pts = points.points[vertices]
    k = len(vertices)
    adj = [set() for _ in range(k)]
    if k < 2:
        return adj
    dmat = lp_lengths(np.abs(pts[:, None, :] - pts[None, :, :]), points.p)
    aa, bb = np.nonzero(np.triu(dmat <= r, 1))
    for a, b in zip(aa.tolist(), bb.tolist()):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def plan_ugly_paths(points: PointSet, grid: CellGrid, graph: CellGraph,
                    classification: CellClassification, r: float,
                    mode: str = "hc"):
    """Stage 1: plan a path through every inhabited ugly component.

    Returns (plans, claimed) or a BuildFailure.  Claimed vertices (path
    interiors, parked endpoints, corridor picks) are excluded from all
    later stages.
    """
    claimed: set = set()
    pool = _SpareVertexPool(grid, classification, claimed, points.points)
    plans = []

    def fail(reason, **details):
        return BuildFailure(stage="ugly_plan", reason=reason, mode=mode,
                            n=points.n, target_radius=r, details=details)

    def park(endpoint):
        """Claim the nearest spare good-cell vertex within r of the
        endpoint, ties to the smaller index; (vertex, cell), or None when
        there is none."""
        dist = lp_lengths(np.abs(points.points - points.points[endpoint]), points.p)
        near = np.nonzero(dist <= r)[0]
        for v in near[np.argsort(dist[near], kind="stable")].tolist():
            cell = int(grid.cell_of_vertex[v])
            if v not in claimed and cell in pool.good_set and pool.can_drain(cell):
                return pool.claim(v, cell), cell
        return None

    for comp in classification.ugly_components:
        vertices = sorted(v for c in comp for v in grid.vertices_in(c).tolist()
                          if v not in claimed)
        if not vertices:
            continue
        adj = _geom_adjacency(vertices, points, r)
        order = hamilton_path(len(vertices), adj)
        if order is None:
            return fail("no spanning path through ugly component",
                        component_cells=comp, vertices=len(vertices))
        interior = [vertices[t] for t in order]
        for v in interior:
            claimed.add(v)

        if mode == "pm":
            path = list(interior)
            if len(path) % 2:
                took = park(path[-1])
                if took is None:
                    return fail("no parking vertex to even out path",
                                component_cells=comp, endpoint=path[-1])
                path.append(took[0])
            plans.append(UglyPathPlan(component_cells=comp, interior=interior,
                                      path=path, anchor_cell=None))
            continue

        # cycle mode: park both ends in good cells, then make sure both end
        # cells share a splice anchor, extending through good cells if not
        head = park(interior[0])
        if head is None:
            return fail("no parking vertex near path head",
                        component_cells=comp, endpoint=interior[0])
        tail = park(interior[-1])
        if tail is None:
            return fail("no parking vertex near path tail",
                        component_cells=comp, endpoint=interior[-1])
        (head, head_cell), (tail, tail_cell) = head, tail

        path = [head] + interior + [tail]
        anchor = head_cell
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
                return fail("no good-cell corridor between path ends",
                            component_cells=comp, head_cell=head_cell,
                            tail_cell=tail_cell)
            cells = []
            while goal != start:
                cells.append(good[goal])
                goal = prev[goal]
            cells.reverse()
            cur = tail
            for cell in cells:
                v = pool.take(cell, prefer=points.points[cur])
                if v is None:
                    return fail("corridor cell has no spare vertex",
                                component_cells=comp, cell=cell)
                path.append(v)
                cur = v
        plans.append(UglyPathPlan(component_cells=comp, interior=interior,
                                  path=path, anchor_cell=anchor))
    return plans, claimed


# -- Stage 2: colour the planned paths ---------------------------------------

def colour_ugly_paths(plans, process: ColouredProcess, ledger: RainbowLedger,
                      r: float, mode: str = "hc"):
    """Stage 2: read the coupled colour of every path edge and claim it.

    A repeated colour or an over-long edge is a structured failure; there
    is no re-planning, matching the one-shot nature of the construction.
    """
    for pi, plan in enumerate(plans):
        edges = []
        lens, cols = process.pairs(plan.path[:-1], plan.path[1:])
        for a, b, ln, c in zip(plan.path, plan.path[1:], lens.tolist(), cols.tolist()):
            if ln > r * (1 + 1e-12):
                return BuildFailure(stage="ugly_colour", reason="path edge exceeds radius",
                                    mode=mode, n=process.n, target_radius=r,
                                    details={"edge": [a + 1, b + 1], "length": ln})
            if not ledger.claim(c):
                return BuildFailure(stage="ugly_colour", reason="colour collision on path edge",
                                    mode=mode, n=process.n, target_radius=r,
                                    details={"edge": [a + 1, b + 1], "colour": c,
                                             "plan_index": pi})
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
                      process: ColouredProcess, ledger: RainbowLedger,
                      claimed: set, r: float, mode: str = "hc"):
    """Stage 3: chain each bad cell's unclaimed residents in index order.

    Edges whose colour is already claimed (or that exceed the radius) are
    dropped, splitting the chain; every resulting piece is spliced into
    the adjacent good cell's cycle later.
    """
    good_set = set(classification.good)
    out = []
    for cell in classification.bad:
        vs = [v for v in grid.vertices_in(cell).tolist() if v not in claimed]
        if not vs:
            continue
        parents = sorted(nb for nb in graph.neighbors(cell) if nb in good_set)
        if not parents:
            return BuildFailure(stage="bad_forest", reason="bad cell lost its good neighbour",
                                mode=mode, n=process.n, target_radius=r,
                                details={"cell": cell})
        parent = parents[0]
        seg = [vs[0]]
        seg_edges = []
        lens, cols = process.pairs(vs[:-1], vs[1:])
        for a, b, ln, c in zip(vs, vs[1:], lens.tolist(), cols.tolist()):
            if ln <= r * (1 + 1e-12) and ledger.claim(c):
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

    cell: int
    order: list
    edges: list = field(default_factory=list)


def build_good_cycles(grid: CellGrid, classification: CellClassification,
                      process: ColouredProcess, ledger: RainbowLedger,
                      claimed: set, r: float, mode: str = "hc"):
    """Stage 4: in each good cell, keep edges whose colour occurs exactly
    once within the cell and is globally unclaimed, then find a Hamilton
    cycle on what remains.  Distinct survivors automatically have distinct
    colours, so the cycle is rainbow.
    """
    cycles = {}
    for cell in classification.good:
        vs = [v for v in grid.vertices_in(cell).tolist() if v not in claimed]
        if len(vs) < 3:
            return BuildFailure(stage="good_cycle", reason="good cell drained below cycle size",
                                mode=mode, n=process.n, target_radius=r,
                                details={"cell": cell, "remaining": len(vs)})
        k = len(vs)
        pa, pb = np.triu_indices(k, 1)
        lens, cols = process.pairs(np.array(vs)[pa], np.array(vs)[pb])
        near = lens <= r * (1 + 1e-12)
        cols = cols[near].tolist()
        colour_count = {c: cols.count(c) for c in cols}
        adj = [set() for _ in range(k)]
        usable = {}
        for a, b, c, ln in zip(pa[near].tolist(), pb[near].tolist(), cols,
                               lens[near].tolist()):
            if colour_count[c] == 1 and c not in ledger.used:
                adj[a].add(b)
                adj[b].add(a)
                usable[(a, b)] = (c, ln)
        order_local = hamilton_cycle(k, adj)
        if order_local is None:
            return BuildFailure(stage="good_cycle", reason="no rainbow cycle in good cell",
                                mode=mode, n=process.n, target_radius=r,
                                details={"cell": cell, "vertices": k,
                                         "survivor_edges": len(usable)})
        edges = []
        for t in range(k):
            ai, bi = order_local[t], order_local[(t + 1) % k]
            key = (min(ai, bi), max(ai, bi))
            c, ln = usable[key]
            ok = ledger.claim(c)
            assert ok, "survivor colours are unique within a cell"
            edges.append((vs[ai], vs[bi], c, ln))
        cycles[cell] = GoodCycle(cell=cell, order=[vs[t] for t in order_local],
                                 edges=edges)
    return cycles


# -- Stage 5: choose splice points --------------------------------------------

@dataclass
class StitchPlan:
    """All splices to apply at once: cycle merges along a spanning tree of
    the good cells, plus path insertions.  Splice slots are vertex-disjoint
    (even-position cycle edges), so simultaneous application is safe."""

    merges: list = field(default_factory=list)


def _slot_edges(cycle: GoodCycle):
    """Even-position edges of the cycle; for odd length the wrap edge is
    skipped because it shares a vertex with the first slot."""
    L = len(cycle.order)
    slots = []
    for pos in range(0, L, 2):
        if L % 2 and pos == L - 1:
            continue
        slots.append(pos)
    return slots


def build_stitch_plan(graph: CellGraph, classification: CellClassification,
                      cycles: dict, bad_paths, plans,
                      process: ColouredProcess, ledger: RainbowLedger,
                      r: float, mode: str = "hc"):
    """Stage 5: pick a removed edge and two fresh-coloured bridges for every
    join: good-cell cycle merges along a spanning tree, bad chains into an
    adjacent good cycle, and (cycle mode) ugly paths near their anchor.

    Splice demand concentrates around sparse regions, so the spanning tree
    grows toward the cell with the most unspent slots, and chains fall back
    to any adjacent good cell when their first choice is spent.
    """
    good = classification.good
    good_set = set(good)

    def fail(reason, **details):
        return BuildFailure(stage="stitch", reason=reason, mode=mode,
                            n=process.n, target_radius=r, details=details)

    free = {cell: _slot_edges(cyc) for cell, cyc in cycles.items()}
    plan = StitchPlan()

    def bridge_ok(u, v, picked):
        ln, c = process.pairs(u, v)
        if ln > r * (1 + 1e-12):
            return None
        if c in ledger.used or c in picked:
            return None
        return (c, ln)

    def take_pair(u1, v1, u2, v2):
        """Two bridges with fresh, mutually distinct colours, or None."""
        first = bridge_ok(u1, v1, set())
        if first is None:
            return None
        second = bridge_ok(u2, v2, {first[0]})
        if second is None:
            return None
        return first, second

    def slot_vertices(cell, pos):
        order = cycles[cell].order
        return order[pos], order[(pos + 1) % len(order)]

    def merge_cycles(pc, cc):
        """Join two cycles through any feasible slot pair; True on success."""
        for si, ppos in enumerate(free[pc]):
            a, b = slot_vertices(pc, ppos)
            for sj, cpos in enumerate(free[cc]):
                x, y = slot_vertices(cc, cpos)
                for (u1, v1, u2, v2) in ((a, x, b, y), (a, y, b, x)):
                    got = take_pair(u1, v1, u2, v2)
                    if got is None:
                        continue
                    (c1, l1), (c2, l2) = got
                    ledger.claim(c1)
                    ledger.claim(c2)
                    plan.merges.append({
                        "kind": "tree", "parent_cell": pc, "child_cell": cc,
                        "parent_slot": ppos, "child_slot": cpos,
                        "added": [(u1, v1, c1, l1), (u2, v2, c2, l2)],
                    })
                    del free[pc][si]
                    del free[cc][sj]
                    return True
        return False

    def splice_path(cells, head, tail, kind, path_obj):
        """Insert a path into the first workable cycle among the cells."""
        for cell in cells:
            for si, ppos in enumerate(free[cell]):
                a, b = slot_vertices(cell, ppos)
                for (h, t) in ((head, tail), (tail, head)):
                    got = take_pair(a, h, t, b)
                    if got is None:
                        continue
                    (c1, l1), (c2, l2) = got
                    ledger.claim(c1)
                    ledger.claim(c2)
                    plan.merges.append({
                        "kind": kind, "parent_cell": cell,
                        "parent_slot": ppos, "path": path_obj,
                        "added": [(a, h, c1, l1), (t, b, c2, l2)],
                    })
                    del free[cell][si]
                    return True
        return False

    def by_capacity(cells):
        return sorted(cells, key=lambda c: (-len(free.get(c, [])), c))

    # spanning tree of good cells, grown into the most slot-rich frontier
    good_nbs = {c: [nb for nb in graph.neighbors(c) if nb in good_set] for c in good}
    seen = {good[0]}
    while len(seen) < len(good):
        best = None
        for pc in seen:
            if not free[pc]:
                continue
            for nb in good_nbs[pc]:
                if nb not in seen:
                    key = (len(free[pc]), -pc, -nb)
                    if best is None or key > best[0]:
                        best = (key, pc, nb)
        if best is None:
            reachable = any(nb not in seen for pc in seen for nb in good_nbs[pc])
            if not reachable:
                return fail("good cells are not connected",
                            reached=len(seen), total=len(good))
            return fail("splice slots exhausted while joining good cells",
                        reached=len(seen), total=len(good))
        _, pc, cc = best
        if not merge_cycles(pc, cc):
            return fail("no splice joining adjacent good cells",
                        parent_cell=pc, child_cell=cc,
                        parent_slots=len(free[pc]), child_slots=len(free[cc]))
        seen.add(cc)

    for bp in sorted(bad_paths, key=lambda b: (b.parent_cell, b.vertices[0])):
        hosts = by_capacity([c for c in graph.neighbors(bp.cell) if c in good_set])
        if not splice_path(hosts, bp.vertices[0], bp.vertices[-1], "bad", bp):
            return fail("no splice for bad-cell chain", cell=bp.cell,
                        candidates=hosts[:8])

    if mode == "hc":
        for pi, up in enumerate(plans):
            anchor = up.anchor_cell
            if anchor not in cycles:
                return fail("anchor cell has no cycle", anchor_cell=anchor)
            hosts = [anchor] + by_capacity(
                [c for c in graph.neighbors(anchor) if c in cycles])
            if not splice_path(hosts, up.path[0], up.path[-1], "ugly", up):
                return fail("no splice for ugly path near its anchor",
                            anchor_cell=anchor, plan_index=pi)
    return plan


# -- Stage 6: apply all splices ------------------------------------------------

def apply_stitch(cycles: dict, bad_paths, plans, plan: StitchPlan,
                 mode: str, n: int, r: float):
    """Stage 6: remove every chosen slot edge, add the bridges and path
    edges, and read off the final structure.

    Returns the edge list (i, j, colour, length) of the Hamilton cycle, or
    of the perfect matching (alternate cycle edges plus alternate edges of
    each standalone path), or a BuildFailure if the pieces do not close
    into a single cycle.
    """
    removed = set()
    for mg in plan.merges:
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
    hooked_paths = set()
    for mg in plan.merges:
        edge_list.extend(mg["added"])
        if mg["kind"] == "ugly":
            hooked_paths.add(id(mg["path"]))
            edge_list.extend(mg["path"].edges)

    standalone = []
    if mode == "pm":
        standalone = plans
    else:
        for up in plans:
            if id(up) not in hooked_paths:
                return BuildFailure(stage="apply", reason="ugly path was never spliced",
                                    mode=mode, n=n, target_radius=r, details={})

    adj = {}
    for (i, j, c, ln) in edge_list:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    bad_deg = [v for v, ns in adj.items() if len(ns) != 2]
    if bad_deg:
        return BuildFailure(stage="apply", reason="stitched structure is not 2-regular",
                            mode=mode, n=n, target_radius=r,
                            details={"vertices": [v + 1 for v in bad_deg[:10]]})
    if not adj:
        cycle_vertices = []
    else:
        start = min(adj)
        cycle_vertices = [start]
        prev, cur = None, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            # a doubled edge makes both neighbours equal; take the other copy
            if not nxt:
                nxt = [adj[cur][0]]
            step = nxt[0]
            if step == start:
                break
            cycle_vertices.append(step)
            prev, cur = cur, step
            if len(cycle_vertices) > len(adj):
                return BuildFailure(stage="apply", reason="stitched edges do not close a cycle",
                                    mode=mode, n=n, target_radius=r, details={})
        if len(cycle_vertices) != len(adj):
            return BuildFailure(stage="apply", reason="stitched edges split into several cycles",
                                mode=mode, n=n, target_radius=r,
                                details={"cycle_length": len(cycle_vertices),
                                         "vertices_expected": len(adj)})

    if mode == "hc":
        if len(cycle_vertices) != n:
            return BuildFailure(stage="apply", reason="cycle misses vertices",
                                mode=mode, n=n, target_radius=r,
                                details={"covered": len(cycle_vertices), "n": n})
        return edge_list

    # matching mode: alternate edges around the cycle, plus alternate edges
    # of each standalone path (paths have even vertex count by planning)
    covered = len(cycle_vertices) + sum(len(p.path) for p in standalone)
    if covered != n:
        return BuildFailure(stage="apply", reason="structure misses vertices",
                            mode=mode, n=n, target_radius=r,
                            details={"covered": covered, "n": n})
    if len(cycle_vertices) % 2:
        return BuildFailure(stage="apply", reason="cycle has odd length, no alternation",
                            mode=mode, n=n, target_radius=r,
                            details={"cycle_length": len(cycle_vertices)})
    lookup = {}
    for (i, j, c, ln) in edge_list:
        lookup[(min(i, j), max(i, j))] = (c, ln)
    matching = []
    L = len(cycle_vertices)
    for t in range(0, L, 2):
        a, b = cycle_vertices[t], cycle_vertices[(t + 1) % L]
        c, ln = lookup[(min(a, b), max(a, b))]
        matching.append((a, b, c, ln))
    for p in standalone:
        assert len(p.path) % 2 == 0
        for t in range(0, len(p.path) - 1, 2):
            a, b, c, ln = p.edges[t]
            matching.append((a, b, c, ln))
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
    if mode == "hc" and n < 3:
        return BuildFailure(stage="input", reason="cycle needs at least 3 vertices",
                            mode=mode, n=n, target_radius=r)
    if mode == "pm" and (n < 2 or n % 2):
        return BuildFailure(stage="input", reason="matching needs a positive even vertex count",
                            mode=mode, n=n, target_radius=r)

    small = n <= (_oracle.HC_VERTEX_LIMIT if mode == "hc" else _oracle.PM_VERTEX_LIMIT)
    # colours do not depend on the cutoff (see process.py) and the staged
    # stages read pairs through the coupling alone, so they need no events;
    # min() keeps build_process's refusal of a negative radius
    process = build_process(points, cutoff=r if small else min(r, 0.0), K=K,
                            n_colours=n_colours, colour_seed=colour_seed)

    def _finish(edges, method, meta=None):
        radius = max((ln for (_, _, _, ln) in edges), default=0.0)
        cert = RainbowCertificate(mode=mode, n=n, radius=float(radius),
                                  target_radius=float(r), edges=edges,
                                  method=method, colour_seed=colour_seed,
                                  n_colours=process.n_colours,
                                  meta=meta or {})
        problems = _oracle.validate_certificate(cert.to_dict(), process)
        if problems:
            return BuildFailure(stage="verify", reason="assembled structure failed validation",
                                mode=mode, n=n, target_radius=r,
                                details={"problems": problems[:10]})
        return cert

    if small:
        witness = _oracle.rainbow_witness_at(process, process.cutoff, mode)
        if witness is None:
            return BuildFailure(stage="oracle", reason="no rainbow structure within radius",
                                mode=mode, n=n, target_radius=r)
        ii, jj, cc = np.array(witness).T
        lens = process.distance_of(ii, jj)
        return _finish(list(zip(ii.tolist(), jj.tolist(), cc.tolist(), lens.tolist())),
                       method="oracle")

    if grid_radius is not None:
        r0 = float(grid_radius)
    else:
        try:
            r0 = reference_radii(n, points.dim, points.p).r0
        except ValueError as exc:
            return BuildFailure(stage="scale", reason="reference radius undefined at this size",
                                mode=mode, n=n, target_radius=r, details={"error": str(exc)})
    try:
        grid = build_grid(points, r0, epsilon)
    except TessellationRegimeError as exc:
        return BuildFailure(stage="tessellation", reason=str(exc), mode=mode,
                            n=n, target_radius=r)
    graph = build_cell_graph(grid)
    if graph.degenerate_threshold:
        return BuildFailure(stage="tessellation", reason="cell adjacency threshold non-positive",
                            mode=mode, n=n, target_radius=r,
                            details={"threshold": graph.threshold, "cells_per_axis": grid.m,
                                     "side": grid.side, "r0": r0, "epsilon": epsilon})
    classification = classify_cells(grid, graph)
    if classification.degenerate:
        return BuildFailure(stage="tessellation", reason="no dense cells at this scale",
                            mode=mode, n=n, target_radius=r,
                            details={"dense_threshold": classification.dense_threshold})

    ledger = RainbowLedger()
    got = plan_ugly_paths(points, grid, graph, classification, r, mode=mode)
    if isinstance(got, BuildFailure):
        return got
    plans, claimed = got

    got = colour_ugly_paths(plans, process, ledger, r, mode=mode)
    if isinstance(got, BuildFailure):
        return got
    plans = got

    got = build_bad_forests(grid, graph, classification, process, ledger, claimed, r,
                            mode=mode)
    if isinstance(got, BuildFailure):
        return got
    bad_paths = got

    got = build_good_cycles(grid, classification, process, ledger, claimed, r,
                            mode=mode)
    if isinstance(got, BuildFailure):
        return got
    cycles = got

    got = build_stitch_plan(graph, classification, cycles, bad_paths, plans,
                            process, ledger, r, mode=mode)
    if isinstance(got, BuildFailure):
        return got
    stitch = got

    edges = apply_stitch(cycles, bad_paths, plans, stitch, mode, n, r)
    if isinstance(edges, BuildFailure):
        return edges

    meta = {
        "stages": {
            "ugly_paths": len(plans),
            "bad_chains": len(bad_paths),
            "good_cycles": len(cycles),
            "splices": len(stitch.merges),
        },
        "cells_per_axis": grid.m,
        "good_cells": len(classification.good),
        "bad_cells": len(classification.bad),
        "ugly_cells": len(classification.ugly),
        "r0": r0,
        "epsilon": epsilon,
    }
    return _finish(edges, method="staged", meta=meta)
