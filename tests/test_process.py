"""Edge-revealing process: colour coupling, hitting radii, serialization.

Hitting radii computed by the event scan are compared against slow
independent recomputations (brute-force k-th nearest neighbour maxima,
articulation-point checks on explicit prefix graphs).
"""

import json
import math

import numpy as np
import pytest
from pytest import approx
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rainbow_rgg import (
    PointSet,
    build_process,
    compute_hitting_radii,
    cube_diameter,
    default_omega,
    events_csv_text,
    exact_hitting_rainbow,
    first_feasible_prefix,
    hitting_radii,
    hitting_radii_to_json,
    hitting_radius_kconn,
    hitting_radius_min_degree,
    max_knn_distance,
    pair_colours,
    pairwise_distances,
    reference_radii,
    sample_points,
    unit_ball_volume,
)

from conftest import read_events_csv


# -- colour coupling --------------------------------------------------------

def test_colours_independent_of_cutoff():
    """The colour of a pair never depends on when the edge is revealed."""
    ps = sample_points(40, 2, seed=1)
    full = build_process(ps, cutoff=math.inf, K=2.0, colour_seed=9)
    part = build_process(ps, cutoff=0.2, K=2.0, colour_seed=9)
    seen = {}
    for a, b, c in zip(full.ei.tolist(), full.ej.tolist(), full.ecol.tolist()):
        seen[(a, b)] = c
    for a, b, c in zip(part.ei.tolist(), part.ej.tolist(), part.ecol.tolist()):
        assert seen[(a, b)] == c


def test_colour_seed_changes_colours():
    ps = sample_points(30, 2, seed=2)
    p1 = build_process(ps, cutoff=math.inf, K=5.0, colour_seed=0)
    p2 = build_process(ps, cutoff=math.inf, K=5.0, colour_seed=1)
    assert not np.array_equal(p1.ecol, p2.ecol)
    assert np.array_equal(p1.elen, p2.elen)


def test_pair_colours_symmetric_and_ranged():
    cols = pair_colours(3, np.array([0, 5, 2]), np.array([5, 0, 7]), n=10, n_colours=13)
    assert cols[0] == cols[1]
    assert np.all(cols >= 1) and np.all(cols <= 13)


def test_pair_colours_roughly_uniform():
    n = 200
    ii, jj = np.triu_indices(n, k=1)
    cols = pair_colours(0, ii, jj, n=n, n_colours=4)
    counts = np.bincount(cols, minlength=5)[1:]
    assert counts.sum() == len(ii)
    assert counts.min() > 0.8 * len(ii) / 4
    assert counts.max() < 1.2 * len(ii) / 4


def test_colour_count_from_K():
    ps = sample_points(30, 2, seed=3)
    proc = build_process(ps, cutoff=0.5, K=1.5)
    assert proc.n_colours == math.ceil(1.5 * 30)
    direct = build_process(ps, cutoff=0.5, n_colours=77)
    assert direct.n_colours == 77
    with pytest.raises(ValueError):
        build_process(ps, cutoff=0.5, K=2.0, n_colours=10)


def test_events_sorted_by_length():
    ps = sample_points(60, 2, seed=4)
    proc = build_process(ps, cutoff=math.inf, K=20.0)
    assert np.all(np.diff(proc.elen) >= 0)
    assert proc.m == 60 * 59 // 2


def test_cutoff_prunes_events():
    ps = sample_points(60, 2, seed=4)
    proc = build_process(ps, cutoff=0.25, K=20.0)
    assert np.all(proc.elen <= 0.25)
    dm = pairwise_distances(ps.points, ps.p)
    ii, jj = np.triu_indices(60, k=1)
    assert proc.m == int(np.sum(dm[ii, jj] <= 0.25))


def test_colour_of_and_distance_of():
    ps = sample_points(25, 2, seed=6)
    proc = build_process(ps, cutoff=math.inf, K=3.0, colour_seed=2)
    k = 17
    a, b = int(proc.ei[k]), int(proc.ej[k])
    assert proc.colour_of(a, b) == int(proc.ecol[k])
    assert proc.colour_of(b, a) == int(proc.ecol[k])
    assert proc.distance_of(a, b) == float(proc.elen[k])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("d", [2, 3])
def test_distance_of_equals_event_length(p, d):
    """One pair reduced on its own gets the same length, bit for bit, as
    the batched reduction that produced the events; at p in {1.5, 2, 3}
    a scalar root taken through libm pow differed in the last ulp.  The
    batched lookup ``pairs`` returns the event lengths and colours, in
    either endpoint order, and agrees with the scalar lookups."""
    ps = sample_points(400, d, seed=21, p=p)
    proc = build_process(ps, cutoff=0.3 if d == 2 else 0.5, K=20.0)
    assert proc.m > 5000
    ei, ej = proc.ei.tolist(), proc.ej.tolist()
    got = [proc.distance_of(a, b) for a, b in zip(ei, ej)]
    assert got == proc.elen.tolist()
    for a, b in ((proc.ei, proc.ej), (ej, ei)):
        lens, cols = proc.pairs(a, b)
        assert lens.tolist() == got
        assert cols.tolist() == proc.ecol.tolist()
    assert [proc.colour_of(a, b) for a, b in zip(ei[::5], ej[::5])] == proc.ecol[::5].tolist()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("cutoff", [0.0, 0.15, 5.0])
def test_kd_enumeration_matches_brute_force(p, d, cutoff):
    """The kd-tree events are the upper triangle of the brute-force distance
    matrix within the cutoff, bit for bit and in (length, i, j) order;
    duplicated points give events at cutoff 0, and 5.0 exceeds the
    diameter, which is clamped."""
    base = sample_points(70, d, seed=13, p=p).points
    ps = PointSet(np.vstack([base, base[:4]]), p=p)
    proc = build_process(ps, cutoff=cutoff, K=20.0)
    dm = pairwise_distances(ps.points, p)
    ii, jj = np.triu_indices(ps.n, k=1)
    diam = cube_diameter(d, p)
    keep = dm[ii, jj] <= min(cutoff, diam)
    ii, jj, ll = ii[keep], jj[keep], dm[ii, jj][keep]
    order = np.lexsort((jj, ii, ll))
    assert np.array_equal(proc.ei, ii[order])
    assert np.array_equal(proc.ej, jj[order])
    assert np.array_equal(proc.elen, ll[order])
    assert proc.cutoff == min(cutoff, diam)
    if cutoff == 0.0:
        assert proc.m == 4


# -- snapshots ----------------------------------------------------------

def test_snapshot_matches_brute_force():
    ps = sample_points(35, 2, seed=7, p=1.0)
    proc = build_process(ps, cutoff=math.inf, K=20.0)
    m = int(np.searchsorted(proc.elen, 0.3, side="right"))
    dm = pairwise_distances(ps.points, 1.0)
    expect = {(i, j) for i in range(35) for j in range(i + 1, 35) if dm[i, j] <= 0.3}
    ei, ej, elen = proc.ei[:m], proc.ej[:m], proc.elen[:m]
    got = {(min(a, b), max(a, b)) for a, b in zip(ei.tolist(), ej.tolist())}
    assert got == expect
    assert np.all(elen <= 0.3)


# -- hitting radii ---------------------------------------------------------

def _brute_min_degree_radius(points, p, k):
    dm = pairwise_distances(points, p)
    np.fill_diagonal(dm, np.inf)
    dm.sort(axis=1)
    return float(dm[:, k - 1].max())


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_min_degree_radius_vs_knn(p, k):
    for seed in range(5):
        ps = sample_points(50, 2, seed=seed, p=p)
        proc = build_process(ps, cutoff=math.inf, K=20.0)
        assert hitting_radius_min_degree(proc, k) == \
            _brute_min_degree_radius(ps.points, p, k)


def test_min_degree_radius_rejects_k_out_of_range():
    ps = sample_points(5, 2, seed=0)
    proc = build_process(ps, cutoff=math.inf, K=20.0)
    with pytest.raises(ValueError):
        hitting_radius_min_degree(proc, 5)
    with pytest.raises(ValueError):
        hitting_radius_min_degree(proc, 0)


def test_min_degree_radius_truncated_process():
    """A cutoff below the hitting radius means the event never happens."""
    ps = sample_points(30, 2, seed=1)
    proc = build_process(ps, cutoff=math.inf, K=20.0)
    r = hitting_radius_min_degree(proc, 2)
    trunc = build_process(ps, cutoff=0.9 * r, K=20.0)
    assert math.isinf(hitting_radius_min_degree(trunc, 2))


def test_min_degree_radii_from_one_scan():
    """A tuple of k's gives each k's radius, as separate scans do; a cutoff
    between the two radii leaves only the larger one unreached, and the
    k = 2 connectivity scan gives the same radius with the min-degree-2
    radius passed in as without it."""
    ps = sample_points(80, 2, seed=4, p=3.0)
    proc = build_process(ps, cutoff=math.inf, K=20.0)
    r1, r2, r3 = hitting_radius_min_degree(proc, (1, 2, 3))
    assert (r1, r2, r3) == tuple(hitting_radius_min_degree(proc, k) for k in (1, 2, 3))
    assert r1 < r2
    trunc = build_process(ps, cutoff=(r1 + r2) / 2, K=20.0)
    assert hitting_radius_min_degree(trunc, (2, 1)) == (math.inf, r1)
    assert hitting_radius_kconn(proc, 2, r2) == hitting_radius_kconn(proc, 2)
    assert math.isinf(hitting_radius_kconn(trunc, 2, math.inf))
    with pytest.raises(ValueError):
        hitting_radius_min_degree(proc, (1, 80))


def _connectivity_radius_oracle(points, p):
    """Smallest event length whose prefix graph is connected."""
    n = len(points)
    dm = pairwise_distances(points, p)
    ii, jj = np.triu_indices(n, k=1)
    lens = np.sort(dm[ii, jj])
    for r in lens:
        a = dm <= r + 1e-15
        graph = coo_matrix(a)
        if connected_components(graph, directed=False)[0] == 1:
            return float(r)
    return math.inf


def test_connectivity_radius_vs_scipy():
    for seed in range(6):
        ps = sample_points(40, 2, seed=seed)
        proc = build_process(ps, cutoff=math.inf, K=20.0)
        assert hitting_radius_kconn(proc, 1) == \
            approx(_connectivity_radius_oracle(ps.points, 2.0))


def _is_biconnected_oracle(n, edges):
    """Quadratic check: connected and no articulation vertex."""
    if n < 3:
        return False

    def connected(skip):
        adj = {v: [] for v in range(n) if v != skip}
        for a, b in edges:
            if a != skip and b != skip:
                adj[a].append(b)
                adj[b].append(a)
        verts = [v for v in range(n) if v != skip]
        if not verts:
            return True
        stack, seen = [verts[0]], {verts[0]}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    return connected(None) and all(connected(v) for v in range(n))


def test_biconnectivity_radius_vs_slow_oracle():
    for seed in range(4):
        ps = sample_points(18, 2, seed=seed)
        proc = build_process(ps, cutoff=math.inf, K=20.0)
        r2 = hitting_radius_kconn(proc, 2)
        edges_at = [(a, b) for a, b, l in
                    zip(proc.ei.tolist(), proc.ej.tolist(), proc.elen.tolist())
                    if l <= r2]
        assert _is_biconnected_oracle(18, edges_at)
        below = [(a, b) for a, b, l in
                 zip(proc.ei.tolist(), proc.ej.tolist(), proc.elen.tolist())
                 if l < r2]
        assert not _is_biconnected_oracle(18, below)


def test_hitting_radii_ordering():
    """Connectivity needs min degree 1, biconnectivity needs min degree 2."""
    for seed in range(5):
        ps = sample_points(45, 2, seed=seed)
        proc = build_process(ps, cutoff=math.inf, K=20.0)
        hr = compute_hitting_radii(proc)
        assert hr.kconn[1] >= hr.min_degree[1]
        assert hr.kconn[2] >= hr.min_degree[2]
        assert hr.min_degree[2] >= hr.min_degree[1]
        assert hr.kconn[2] >= hr.kconn[1]


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_min_degree_scan_at_knn_cutoff_is_exact(p, d, k):
    """Built at cutoff max_knn_distance(pts, k), the process's min-degree
    scan returns that cutoff exactly: the k-NN radius and the event lengths
    come from one length computation (for p outside {1, 2, inf} two
    separate ones disagreed in the last ulp, dropping the critical edge)."""
    for seed in range(40):
        ps = sample_points(20 + 3 * seed, d, seed=seed, p=p)
        r = max_knn_distance(ps, k)
        proc = build_process(ps, cutoff=r, K=20.0)
        assert hitting_radius_min_degree(proc, k) == r


def _diameter_radii(ps, include_kconn, include_rainbow, K=20.0):
    proc = build_process(ps, cutoff=cube_diameter(ps.dim, ps.p), K=K, colour_seed=5)
    hr = compute_hitting_radii(proc, include_kconn=include_kconn)
    if include_rainbow:
        hr.rainbow_hc, _ = exact_hitting_rainbow(proc, "hc")
        if ps.n % 2 == 0:
            hr.rainbow_pm, _ = exact_hitting_rainbow(proc, "pm")
    return hr


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("d", [2, 3])
def test_grown_prefix_radii_match_diameter_build(p, d):
    """Radii from the grown prefix equal those of the complete graph, with
    the exact rainbow radii at n <= 10 (odd n has no matching)."""
    cases = [(n, True, True) for n in (5, 9, 10)] + [(60, True, False), (60, False, False)]
    for seed in range(3):
        for n, include_kconn, include_rainbow in cases:
            ps = sample_points(n, d, seed=100 + seed, p=p)
            got = hitting_radii(ps, K=20.0, colour_seed=5, include_kconn=include_kconn,
                                include_rainbow=include_rainbow)
            assert got == _diameter_radii(ps, include_kconn, include_rainbow)


def test_grown_prefix_radii_after_several_growth_steps():
    """Two far clusters of five points: connectivity and the rainbow
    structures need more than four times the min-degree-2 radius, so the
    cutoff doubles at least twice; the radii still match the diameter
    build."""
    rng = np.random.default_rng(3)
    pts = np.vstack([0.05 * rng.random((5, 2)), 1 - 0.05 * rng.random((5, 2))])
    for p in (1.5, 2.0, math.inf):
        ps = PointSet(pts, p=p)
        got = hitting_radii(ps, K=20.0, colour_seed=5, include_rainbow=True)
        assert got.kconn[1] > 4 * max_knn_distance(ps, 2)
        assert got == _diameter_radii(ps, True, True)
    # one colour for ten vertices: no rainbow structure even in the complete
    # graph, so the growth runs to the diameter and reports inf
    got = hitting_radii(ps, K=0.1, colour_seed=5, include_rainbow=True)
    assert math.isinf(got.rainbow_hc) and math.isinf(got.rainbow_pm)
    assert got == _diameter_radii(ps, True, True, K=0.1)


def test_first_feasible_prefix():
    calls = []

    def at_least(t0):
        def pred(t):
            calls.append(t)
            return t >= t0
        return pred

    assert first_feasible_prefix(3, 20, at_least(0)) == 3
    assert calls == [3]
    for t0 in range(4, 21):
        assert first_feasible_prefix(3, 20, at_least(t0)) == t0
    assert first_feasible_prefix(3, 20, at_least(21)) is None
    assert first_feasible_prefix(5, 5, at_least(6)) is None
    calls.clear()
    first_feasible_prefix(0, 1000, at_least(700))
    assert [t for t in calls if t >= 700][-1] == 700  # the last True call
    assert len(calls) <= 13


# -- reference radii ------------------------------------------------------

def test_default_omega():
    assert default_omega(3) == approx(math.sqrt(math.log(math.log(3))))
    assert default_omega(10 ** 9) == approx(math.sqrt(math.log(math.log(10 ** 9))))
    assert default_omega(10 ** 9) == approx(1.7410505514154881)
    with pytest.raises(ValueError):
        default_omega(2)


def test_reference_radii_identities():
    n, d, p = 5000, 2, 2.0
    ref = reference_radii(n, d, p, omega=0.5)
    theta = unit_ball_volume(d, p)
    ln, lln = math.log(n), math.log(math.log(n))
    assert theta * n * ref.r0 ** d == approx((2 ** (d - 1) / d) * ln +
                                             2 ** (d - 2) * (3 - d - 2 / d) * lln - 0.5)
    assert theta * n * ref.r1 ** d == approx((2 ** (d - 1) / d) * ln +
                                             2 ** (d - 2) * (4 - d - 2 / d) * lln + 0.5)
    assert ref.r0 < ref.r1


def test_reference_radii_frozen_value():
    """Pinned numeric output so the calibration can never drift silently."""
    ref = reference_radii(10 ** 4, 2, 2.0, omega=1.0)
    assert ref.r0 == approx(0.016166114280599157, rel=1e-12)
    assert ref.r1 == approx(0.01989171750937377, rel=1e-12)


def test_reference_radii_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reference_radii(2, 2, 2.0)
    with pytest.raises(ValueError):
        reference_radii(100, 2, 2.0, omega=-1.0)


# -- serialization -------------------------------------------------------

def test_events_csv_round_trip(tmp_path):
    ps = sample_points(20, 2, seed=10)
    proc = build_process(ps, cutoff=0.5, K=2.0, colour_seed=4)
    path = tmp_path / "events.csv"
    path.write_text(events_csv_text(proc))
    ii, jj, ll, cc = read_events_csv(path)
    assert np.array_equal(ii, proc.ei)
    assert np.array_equal(jj, proc.ej)
    assert np.array_equal(ll, proc.elen)
    assert np.array_equal(cc, proc.ecol)


def test_hitting_radii_json_round_trip():
    ps = sample_points(25, 2, seed=11)
    proc = build_process(ps, cutoff=math.inf, K=20.0)
    hr = compute_hitting_radii(proc)
    hr.rainbow_pm = 0.25
    back = json.loads(hitting_radii_to_json(hr))
    assert back["min_degree"] == {str(k): r for k, r in hr.min_degree.items()}
    assert back["kconn"] == {str(k): r for k, r in hr.kconn.items()}
    assert back["rainbow_pm"] == approx(0.25)
    assert back["rainbow_hc"] is None


def test_hitting_radii_json_inf():
    ps = sample_points(5, 2, seed=12)
    proc = build_process(ps, cutoff=0.01, K=20.0)
    hr = compute_hitting_radii(proc)
    text = hitting_radii_to_json(hr)
    assert '"inf"' in text
    assert math.isinf(hr.kconn[1])
    assert json.loads(text)["kconn"]["1"] == "inf"
