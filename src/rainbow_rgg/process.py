"""Coloured random geometric graph edge process.

Edges of the complete graph on n sampled points are revealed in increasing
l_p length order.  Every pair carries a colour fixed up front by a counter
mode mixing function of (colour_seed, pair), so the colouring is a coupling:
it does not depend on the cutoff radius at which the process was built, and
snapshots at different radii agree on shared edges.

Hitting radii ("first radius at which property Q holds") are computed from
the event stream; a radius that is not reached within the build cutoff is
reported as math.inf.

A build at cutoff r holds exactly the pairs of length <= r, in the same
(length, i, j) order as the complete graph, because one length function
(``geometry.lp_lengths``) computes every length and the colours do not
depend on r.  Each hitting radius is a function of the event prefix up to
it, so a build at any cutoff that reaches the radius gives the same value,
bit for bit, as the build at the cube diameter.  The properties of the
paper (minimum degree 1 or 2 and what they imply) are reached after about
n log n events, not n^2 / 2, which is what ``harness.hitting_radii`` uses.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (PointSet, check_norm, cube_diameter, json_safe, lp_lengths,
                       unit_ball_volume)

__all__ = [
    "ColouredProcess",
    "ReferenceRadii",
    "HittingRadii",
    "build_process",
    "pair_colours",
    "hitting_radius_min_degree",
    "hitting_radius_kconn",
    "first_feasible_prefix",
    "default_omega",
    "reference_radii",
    "compute_hitting_radii",
    "events_csv_text",
    "hitting_radii_to_json",
]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def pair_colours(colour_seed: int, i, j, n: int, n_colours: int) -> np.ndarray:
    """Colour of pair {i, j} among {1..n_colours}, i.i.d. uniform in law.

    Counter mode: the counter is lo * n + hi for the canonical ordering
    lo < hi, mixed with the seed through a splitmix64-style finaliser.  The
    value depends only on (colour_seed, i, j, n, n_colours), never on the
    cutoff, which is what makes snapshots at different radii consistent.
    """
    if n_colours < 1:
        raise ValueError("need at least one colour")
    i = np.atleast_1d(np.asarray(i, dtype=np.int64))
    j = np.atleast_1d(np.asarray(j, dtype=np.int64))
    if np.any(i == j):
        raise ValueError("pair colour asked for a self loop")
    lo = np.minimum(i, j).astype(np.uint64)
    hi = np.maximum(i, j).astype(np.uint64)
    with np.errstate(over="ignore"):
        ctr = lo * np.uint64(n) + hi
        seed_word = _mix64(np.uint64(colour_seed & _MASK64) + _GOLD)
        z = _mix64((ctr + np.uint64(1)) * _GOLD ^ seed_word)
    return (z % np.uint64(n_colours)).astype(np.int64) + 1


@dataclass
class ColouredProcess:
    """Edge events up to a cutoff radius, sorted by (length, i, j).

    Arrays ei, ej, elen, ecol are parallel; ei < ej always.
    """

    points: PointSet
    cutoff: float
    n_colours: int
    colour_seed: int
    ei: np.ndarray
    ej: np.ndarray
    elen: np.ndarray
    ecol: np.ndarray

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def p(self) -> float:
        return self.points.p

    @property
    def m(self) -> int:
        return int(self.elen.shape[0])

    def pairs(self, i, j):
        """Lengths and colours of the pairs (i[k], j[k]), events or not: one
        length pass and one colour pass, bit for bit the event values."""
        return self.distance_of(i, j), self.colour_of(i, j)

    def colour_of(self, i, j):
        """Colour of any pair under the coupling, event or not; an array of
        colours when i and j are index arrays."""
        c = pair_colours(self.colour_seed, i, j, self.n, self.n_colours)
        return c if np.ndim(i) else int(c[0])

    def distance_of(self, i, j):
        pts = self.points.points
        d = lp_lengths(np.abs(pts[i] - pts[j]), self.p)
        return d if np.ndim(i) else float(d)


def _pairs_within(points: np.ndarray, cutoff: float, p: float):
    """All pairs (i < j) of l_p length at most cutoff, as (ei, ej, elen).

    The kd-tree proposes the pairs within a slightly larger radius, since its
    own distances may differ from ``lp_lengths`` in the last ulp; the
    lengths are then recomputed canonically and filtered.
    """
    pairs = cKDTree(points).query_pairs(cutoff * (1 + 1e-9), p=p, output_type="ndarray")
    ei = pairs[:, 0].astype(np.int64)
    ej = pairs[:, 1].astype(np.int64)
    elen = lp_lengths(np.abs(points[ei] - points[ej]), p)
    keep = elen <= cutoff
    return ei[keep], ej[keep], elen[keep]


def build_process(points: PointSet, cutoff: float, K: float | None = None,
                  colour_seed: int = 0, *, n_colours: int | None = None) -> ColouredProcess:
    """Enumerate and colour all edges of length at most cutoff.

    The colour palette has ceil(K * n) colours (K defaults to 20), or
    exactly ``n_colours`` when that is passed instead.  Events are sorted by
    (length, i, j); a cutoff beyond the cube diameter is clamped.
    """
    if not cutoff >= 0:
        raise ValueError("cutoff must be nonnegative")
    n = points.n
    if n_colours is None:
        if K is None:
            K = 20.0
        if K <= 0:
            raise ValueError("K must be positive")
        n_colours = math.ceil(K * n)
    elif K is not None:
        raise ValueError("pass K or n_colours, not both")
    if n_colours < 1:
        raise ValueError("need at least one colour")

    cutoff = min(cutoff, cube_diameter(points.dim, points.p))

    ei, ej, elen = _pairs_within(points.points, cutoff, points.p)
    order = np.argsort(ei * n + ej)  # (i, j) order, then stably by length
    order = order[np.argsort(elen[order], kind="stable")]
    ei, ej, elen = ei[order], ej[order], elen[order]
    ecol = pair_colours(colour_seed, ei, ej, n, n_colours)

    return ColouredProcess(points=points, cutoff=float(cutoff), n_colours=int(n_colours),
                           colour_seed=int(colour_seed), ei=ei, ej=ej, elen=elen,
                           ecol=ecol)


def hitting_radius_min_degree(process: ColouredProcess, k):
    """First event length after which every vertex has degree >= k.

    Equals the maximum over vertices of the k-th nearest neighbour distance.
    Returns math.inf when the build cutoff is too small to reach it.  A
    tuple of k's gives the tuple of their radii from one scan.
    """
    ks = k if isinstance(k, tuple) else (k,)
    if any(kk < 1 or process.n <= kk for kk in ks):
        raise ValueError("need 1 <= k < n")
    # event t's endpoints sit at 2t and 2t + 1; a stable sort by vertex keeps
    # each vertex's events in arrival order
    verts = np.stack([process.ei, process.ej], axis=1).ravel()
    order = np.argsort(verts, kind="stable")
    deg = np.bincount(verts, minlength=process.n)
    first = np.cumsum(deg) - deg
    radii = tuple(float(process.elen[order[first + kk - 1].max() // 2])
                  if deg.min() >= kk else math.inf for kk in ks)
    return radii if isinstance(k, tuple) else radii[0]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


def _is_biconnected(n: int, adj: list[list[int]]) -> bool:
    """Connected with no articulation vertex (iterative lowpoint DFS), n >= 3."""
    if n < 3:
        return False
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    root = 0
    disc[root] = low[root] = 0
    timer = 1
    root_children = 0
    stack = [root]
    iters = [iter(adj[root])]
    while stack:
        v = stack[-1]
        descended = False
        for w in iters[-1]:
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                if v == root:
                    root_children += 1
                stack.append(w)
                iters.append(iter(adj[w]))
                descended = True
                break
            elif w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
        if not descended:
            stack.pop()
            iters.pop()
            if stack:
                u = stack[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
                if u != root and low[v] >= disc[u]:
                    return False
    return timer == n and root_children < 2


def first_feasible_prefix(lo: int, hi: int, pred):
    """Smallest t in [lo, hi] with pred(t), for pred monotone in t (False up
    to some point, True after it); None when pred(hi) is False.

    Tests lo first, then hi, then bisects between them, so when the
    property already holds at lo, as it usually does at the matching
    min-degree prefix, one test settles it.  The last True call of pred is
    always at the returned t.
    """
    if pred(lo):
        return lo
    if lo >= hi or not pred(hi):
        return None
    lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def hitting_radius_kconn(process: ColouredProcess, k: int,
                         min_degree_radius: float | None = None) -> float:
    """First event length at which the snapshot is k-connected (k in {1, 2}).

    k = 1 scans the sorted events with a union-find.  k = 2 needs minimum
    degree 2, so it tests the prefix that ends at the min-degree-2 radius
    first (scanned here unless the caller passes it as
    ``min_degree_radius``); the two radii coincide a.a.s. (Penrose, "On
    k-connectivity for a geometric random graph", 1999).  Otherwise it
    bisects over longer prefixes with an articulation-point test
    (k-connectivity is monotone along the process).  math.inf when not
    reached by the cutoff.
    """
    n = process.n
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if n <= k:
        raise ValueError("need n > k")
    m = process.m
    ei = process.ei.tolist()
    ej = process.ej.tolist()
    if k == 1:
        uf = _UnionFind(n)
        for t in range(m):
            uf.union(ei[t], ej[t])
            if uf.components == 1:
                return float(process.elen[t])
        return math.inf

    def prefix_biconnected(t: int) -> bool:
        adj = [[] for _ in range(n)]
        for s in range(t + 1):
            adj[ei[s]].append(ej[s])
            adj[ej[s]].append(ei[s])
        return _is_biconnected(n, adj)

    r_deg = min_degree_radius
    if r_deg is None:
        r_deg = hitting_radius_min_degree(process, 2)
    if math.isinf(r_deg):
        return math.inf
    lo = int(np.searchsorted(process.elen, r_deg, side="right")) - 1
    t = first_feasible_prefix(lo, m - 1, prefix_biconnected)
    return math.inf if t is None else float(process.elen[t])


def default_omega(n: int) -> float:
    """Slow-growing slack sequence sqrt(log log n), clipped below at 0.1."""
    if n < 3:
        raise ValueError("need n >= 3")
    return max(0.1, math.sqrt(math.log(math.log(n))))


@dataclass(frozen=True)
class ReferenceRadii:
    """Bracketing radii: r0 sits a.a.s. below the min-degree hitting radii of
    interest and r1 a.a.s. above, with the gap controlled by omega."""

    r0: float
    r1: float
    omega: float


def reference_radii(n: int, d: int, p: float, omega: float | None = None) -> ReferenceRadii:
    """Solve the two calibration identities for r0 and r1 (natural logs).

    theta n r0^d = (2^{d-1}/d) log n + 2^{d-2} (3 - d - 2/d) log log n - omega
    theta n r1^d = (2^{d-1}/d) log n + 2^{d-2} (4 - d - 2/d) log log n + omega
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if d < 2:
        raise ValueError("need d >= 2")
    p = check_norm(p)
    if omega is None:
        omega = default_omega(n)
    if not omega > 0:
        raise ValueError("omega must be positive")
    theta = unit_ball_volume(d, p)
    ln = math.log(n)
    lln = math.log(ln)
    lead = (2 ** (d - 1) / d) * ln
    rhs0 = lead + 2 ** (d - 2) * (3 - d - 2 / d) * lln - omega
    rhs1 = lead + 2 ** (d - 2) * (4 - d - 2 / d) * lln + omega
    if rhs0 <= 0 or rhs1 <= 0:
        raise ValueError(f"reference radius identity non-positive at n={n}, d={d}, omega={omega}")
    r0 = (rhs0 / (theta * n)) ** (1.0 / d)
    r1 = (rhs1 / (theta * n)) ** (1.0 / d)
    return ReferenceRadii(r0=r0, r1=r1, omega=float(omega))


@dataclass
class HittingRadii:
    """Hitting radii for one instance; math.inf marks 'not reached'.

    min_degree maps k to the min-degree-k radius, kconn maps k to the
    k-connectivity radius.  rainbow_hc / rainbow_pm stay None unless an
    exact oracle filled them in.
    """

    min_degree: dict[int, float]
    kconn: dict[int, float]
    rainbow_hc: float | None = None
    rainbow_pm: float | None = None


def compute_hitting_radii(process: ColouredProcess,
                          include_kconn: bool = True) -> HittingRadii:
    """Min-degree and (unless ``include_kconn`` is False) k-connectivity
    radii for each k in {1, 2} below n."""
    ks = tuple(k for k in (1, 2) if k < process.n)
    md = dict(zip(ks, hitting_radius_min_degree(process, ks))) if ks else {}
    kc = {}
    if include_kconn:
        kc = {k: hitting_radius_kconn(process, k, md[k] if k == 2 else None) for k in ks}
    return HittingRadii(min_degree=md, kconn=kc)


def hitting_radii_to_json(hr: HittingRadii) -> str:
    payload = {
        "min_degree": {str(k): v for k, v in sorted(hr.min_degree.items())},
        "kconn": {str(k): v for k, v in sorted(hr.kconn.items())},
        "rainbow_hc": hr.rainbow_hc,
        "rainbow_pm": hr.rainbow_pm,
    }
    return json.dumps(json_safe(payload), sort_keys=True)


def events_csv_text(process: ColouredProcess) -> str:
    """Event stream as CSV rows (i, j, length, colour), 1-based vertex ids."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["i", "j", "length", "colour"])
    for a, b, l, c in zip(process.ei.tolist(), process.ej.tolist(),
                          process.elen.tolist(), process.ecol.tolist()):
        w.writerow([a + 1, b + 1, repr(l), c])
    return out.getvalue()
