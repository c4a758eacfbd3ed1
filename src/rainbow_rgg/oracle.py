"""Exact reference answers for small coloured graphs.

Complete backtracking searches for rainbow Hamilton cycles and rainbow
perfect matchings, hitting-radius computation by bisection over the edge
arrival order, and certificate validation.  Instances are capped (14
vertices for cycles, 20 for matchings) because the searches are
exponential; the caps also guard instances read from a file.

These routines are the ground truth that the staged builder and the
experiment harness are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

__all__ = [
    "ColouredGraphInstance",
    "HC_VERTEX_LIMIT",
    "PM_VERTEX_LIMIT",
    "exact_rainbow_hamilton_cycle",
    "exact_rainbow_perfect_matching",
    "exact_hitting_rainbow",
    "rainbow_witness_at",
    "validate_certificate",
    "instance_from_text",
]

HC_VERTEX_LIMIT = 14
PM_VERTEX_LIMIT = 20


@dataclass
class ColouredGraphInstance:
    """An edge-coloured graph: vertices 0..n-1, edges (i, j, colour)."""

    n: int
    edges: list

    def __post_init__(self):
        for (i, j, c) in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            if c < 1:
                raise ValueError("colours must be positive")

    def adjacency(self):
        """Neighbour map v -> sorted list of (w, colour)."""
        adj = [[] for _ in range(self.n)]
        for (i, j, c) in self.edges:
            adj[i].append((j, c))
            adj[j].append((i, c))
        for lst in adj:
            lst.sort()
        return adj


def exact_rainbow_hamilton_cycle(instance: ColouredGraphInstance):
    """Complete search for a Hamilton cycle with pairwise distinct edge
    colours.  Returns the witness as a list of n edges (i, j, colour) in
    cycle order, or None.
    """
    n = instance.n
    if n > HC_VERTEX_LIMIT:
        raise ValueError(f"instance has {n} > {HC_VERTEX_LIMIT} vertices")
    if n < 3:
        return None
    adj = instance.adjacency()
    if any(len(a) < 2 for a in adj):
        return None
    path = [0]
    on_path = [False] * n
    on_path[0] = True
    used = set()
    chosen = []

    def extend() -> bool:
        if len(path) == n:
            for (w, c) in adj[path[-1]]:
                if w == 0 and c not in used:
                    chosen.append((path[-1], 0, c))
                    return True
            return False
        v = path[-1]
        for (w, c) in adj[v]:
            if on_path[w] or c in used:
                continue
            path.append(w)
            on_path[w] = True
            used.add(c)
            chosen.append((v, w, c))
            if extend():
                return True
            chosen.pop()
            used.discard(c)
            on_path[w] = False
            path.pop()
        return False

    if extend():
        return chosen
    return None


def exact_rainbow_perfect_matching(instance: ColouredGraphInstance):
    """Complete search for a perfect matching with pairwise distinct edge
    colours.  Returns the witness as n/2 edges (i, j, colour), or None.
    """
    n = instance.n
    if n > PM_VERTEX_LIMIT:
        raise ValueError(f"instance has {n} > {PM_VERTEX_LIMIT} vertices")
    if n == 0:
        return []
    if n % 2:
        return None
    adj = instance.adjacency()
    if any(len(a) < 1 for a in adj):
        return None
    matched = [False] * n
    used = set()
    chosen = []

    def extend(done: int) -> bool:
        if done == n // 2:
            return True
        v = matched.index(False)
        matched[v] = True
        for (w, c) in adj[v]:
            if matched[w] or c in used:
                continue
            matched[w] = True
            used.add(c)
            chosen.append((v, w, c))
            if extend(done + 1):
                return True
            chosen.pop()
            used.discard(c)
            matched[w] = False
        matched[v] = False
        return False

    if extend(0):
        return chosen
    return None


def _prefix_feasible(process, m: int, target: str):
    ei = process.ei[:m]
    ej = process.ej[:m]
    ecol = process.ecol[:m]
    edges = [(int(a), int(b), int(c)) for a, b, c in zip(ei, ej, ecol)]
    inst = ColouredGraphInstance(n=process.n, edges=edges)
    if target == "hc":
        return exact_rainbow_hamilton_cycle(inst)
    return exact_rainbow_perfect_matching(inst)


def exact_hitting_rainbow(process, target: str = "hc"):
    """Hitting radius of the rainbow property along the arrival order.

    Returns (radius, witness); (inf, None) when even the full edge set has
    no rainbow structure.  Feasibility is monotone in the edge prefix, and
    a rainbow structure needs minimum degree 2 (cycle) or 1 (matching), so
    the search starts at that hitting index.
    """
    from .process import first_feasible_prefix, hitting_radius_min_degree
    if target not in ("hc", "pm"):
        raise ValueError("target must be 'hc' or 'pm'")
    n = process.n
    limit = HC_VERTEX_LIMIT if target == "hc" else PM_VERTEX_LIMIT
    if n > limit:
        raise ValueError(f"exact hitting supports at most {limit} vertices for {target}")
    if target == "pm" and n % 2:
        return math.inf, None
    if target == "hc" and n < 3:
        return math.inf, None
    deg_radius = hitting_radius_min_degree(process, 2 if target == "hc" else 1)
    if math.isinf(deg_radius):
        return math.inf, None
    # prefixes shorter than the degree hit are infeasible
    lo = int(np.searchsorted(process.elen, deg_radius, side="left")) + 1
    witnesses = {}

    def feasible(m: int) -> bool:
        witnesses[m] = _prefix_feasible(process, m, target)
        return witnesses[m] is not None

    m = first_feasible_prefix(lo, process.m, feasible)
    if m is None:
        return math.inf, None
    # the witness of the minimal prefix never cites later edges
    return float(process.elen[m - 1]), witnesses[m]


def rainbow_witness_at(process, r: float, target: str = "hc"):
    """Witness for the rainbow property in the prefix of radius r, or None;
    refuses radii beyond the build cutoff."""
    if target not in ("hc", "pm"):
        raise ValueError("target must be 'hc' or 'pm'")
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    if r > process.cutoff * (1 + 1e-12):
        raise ValueError(f"radius {r} exceeds build cutoff {process.cutoff}")
    m = int(np.searchsorted(process.elen, r, side="right"))
    return _prefix_feasible(process, m, target)


def validate_certificate(cert: dict, process) -> list[str]:
    """Check a builder certificate against the process it claims to cover.

    Returns a list of violation strings; empty means valid.  Checks:
    structure (cycle through all vertices, or perfect matching), every
    edge within the claimed radius, colours pairwise distinct and matching
    the coupled colouring.  Lengths and colours are recomputed from the
    points and the colour coupling, for all edges at once.
    """
    from scipy.sparse.csgraph import connected_components
    problems = []
    n = process.n
    mode = cert.get("mode")
    edges = cert.get("edges", [])
    radius = cert.get("radius", math.inf)
    if mode not in ("hc", "pm"):
        return [f"unknown mode {mode!r}"]

    valid = [0 < i <= n and 0 < j <= n and i != j for (i, j, _, _) in edges]
    ii, jj = np.array([(e[0] - 1, e[1] - 1) for e, ok in zip(edges, valid) if ok],
                      dtype=np.int64).reshape(-1, 2).T
    true_lens, true_cols = (iter(x.tolist()) for x in process.pairs(ii, jj))
    seen_pairs = set()
    colours = []
    for k, (i, j, c, length) in enumerate(edges):
        if not valid[k]:
            problems.append(f"edge {k}: bad endpoints ({i}, {j})")
            continue
        key = (min(i, j), max(i, j))
        if key in seen_pairs:
            problems.append(f"edge {k}: duplicate pair ({i}, {j})")
        seen_pairs.add(key)
        true_len = next(true_lens)
        if not math.isclose(true_len, length, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"edge {k}: recorded length {length} != actual {true_len}")
        if true_len > radius * (1 + 1e-9):
            problems.append(f"edge {k}: length {true_len} exceeds radius {radius}")
        true_col = next(true_cols)
        if true_col != c:
            problems.append(f"edge {k}: recorded colour {c} != coupled colour {true_col}")
        colours.append(c)
    if len(set(colours)) != len(colours):
        problems.append("colours are not pairwise distinct")

    deg = {}
    for (i, j, _, _) in edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    if mode == "hc":
        if len(edges) != n:
            problems.append(f"cycle must have {n} edges, has {len(edges)}")
        elif any(deg.get(v, 0) != 2 for v in range(1, n + 1)):
            problems.append("not every vertex has degree 2")
        else:
            # degree-2 everywhere plus n edges: connected iff single cycle
            # (a self-loop is left out of ii, jj and so isolates its vertex)
            cycle = csr_matrix((np.ones(ii.size), (ii, jj)), shape=(n, n))
            if connected_components(cycle, directed=False)[0] != 1:
                problems.append("edges form multiple cycles, not one")
    else:
        if len(edges) != n // 2 or n % 2:
            problems.append(f"matching must have {n // 2} edges on even n, has {len(edges)}")
        elif any(deg.get(v, 0) != 1 for v in range(1, n + 1)):
            problems.append("not every vertex is matched exactly once")
    return problems


def instance_from_text(text: str) -> ColouredGraphInstance:
    """Parse a header 'n m' and then m rows 'i j colour [length]' with
    1-based vertex ids; the optional length column must be on every row or
    none, and is checked but not kept."""
    rows = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not rows:
        raise ValueError("empty instance")
    head = rows[0].split()
    if len(head) != 2 or not all(x.isdigit() for x in head):
        raise ValueError(f"header must be two non-negative integers 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header says {m} edges, found {len(rows) - 1}")
    width = len(rows[1].split()) if m else 3
    if width not in (3, 4):
        raise ValueError("inconsistent edge rows")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != width:
            raise ValueError("inconsistent edge rows")
        if width == 4:
            float(parts[3])
        edges.append((int(parts[0]) - 1, int(parts[1]) - 1, int(parts[2])))
    return ColouredGraphInstance(n=n, edges=edges)
