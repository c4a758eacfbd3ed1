"""Constructive pipeline: staged assembly of rainbow structures.

End-to-end runs use the engineered clouds from conftest (crowded grid
with a sparse hole), which exercise every stage: an ugly path through
the hole, bad chains on its rim, per-cell cycles, and the stitch.  Each
stage is also tested on its own against the invariants it must keep.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from pytest import approx

from rainbow_rgg import (
    BuildFailure,
    build_cell_graph,
    build_grid,
    build_process,
    build_rainbow,
    classify_cells,
    max_knn_distance,
    sample_points,
    validate_certificate,
)
from rainbow_rgg import builder
from rainbow_rgg.builder import (
    StageError,
    _SpareVertexPool,
    apply_stitch,
    build_bad_forests,
    build_good_cycles,
    build_stitch_plan,
    colour_ugly_paths,
    plan_ugly_paths,
)

from conftest import ENGINEERED, engineered_points

RADIUS = ENGINEERED["radius"]
GRID_RADIUS = ENGINEERED["grid_radius"]
EPSILON = ENGINEERED["epsilon"]


def _staged(cloud, mode, colour_seed=11):
    return build_rainbow(cloud, RADIUS, mode=mode, epsilon=EPSILON, K=20.0,
                         colour_seed=colour_seed, grid_radius=GRID_RADIUS)


def _decompose(cloud):
    grid = build_grid(cloud, GRID_RADIUS, EPSILON)
    graph = build_cell_graph(grid)
    return grid, graph, classify_cells(grid, graph)


# -- end to end ------------------------------------------------------------

@pytest.mark.parametrize("mode", ["hc", "pm"])
def test_staged_build_on_hole_cloud(hole_cloud, mode):
    cert = _staged(hole_cloud, mode)
    assert not isinstance(cert, BuildFailure), cert.to_json()
    assert cert.method == "staged"
    assert cert.radius <= RADIUS
    proc = build_process(hole_cloud, cutoff=RADIUS, K=20.0, colour_seed=11)
    assert validate_certificate(cert.to_dict(), proc) == []
    n = hole_cloud.n
    assert len(cert.edges) == (n if mode == "hc" else n // 2)
    assert cert.meta["stages"]["ugly_paths"] == 1
    assert cert.meta["stages"]["good_cycles"] == len(
        [1 for _ in range(cert.meta["good_cells"])])


@pytest.mark.parametrize("mode", ["hc", "pm"])
def test_staged_build_on_ring_cloud(ring_cloud, mode):
    """The ring cloud adds eight sparse rim cells: bad chains get spliced."""
    cert = _staged(ring_cloud, mode, colour_seed=5)
    assert not isinstance(cert, BuildFailure), cert.to_json()
    assert cert.meta["stages"]["bad_chains"] >= 8
    proc = build_process(ring_cloud, cutoff=RADIUS, K=20.0, colour_seed=5)
    assert validate_certificate(cert.to_dict(), proc) == []


def test_staged_build_deterministic(hole_cloud):
    a = _staged(hole_cloud, "hc")
    b = _staged(hole_cloud, "hc")
    assert a.to_json() == b.to_json()


def test_staged_build_many_seeds(hole_cloud):
    """Colour layout varies with the seed; the pipeline must cope or fail
    cleanly, and every success must validate."""
    wins = 0
    for cs in range(8):
        got = _staged(hole_cloud, "hc", colour_seed=cs)
        if isinstance(got, BuildFailure):
            assert got.stage
            continue
        proc = build_process(hole_cloud, cutoff=RADIUS, K=20.0, colour_seed=cs)
        assert validate_certificate(got.to_dict(), proc) == []
        wins += 1
    assert wins >= 6


def test_staged_path_builds_no_events(hole_cloud, ring_cloud, monkeypatch):
    """Above the oracle's limit the stages read pairs through the colour
    coupling alone, so the process is built at cutoff 0."""
    cutoffs = []

    def recording(points, cutoff, *args, **kwargs):
        cutoffs.append(cutoff)
        return build_process(points, cutoff, *args, **kwargs)

    monkeypatch.setattr(builder, "build_process", recording)
    for cloud in (hole_cloud, ring_cloud):
        for mode in ("hc", "pm"):
            got = _staged(cloud, mode, colour_seed=5)
            assert got.method == "staged"
    assert cutoffs == [0.0] * 4


def test_grid_radius_override_recorded(hole_cloud):
    cert = _staged(hole_cloud, "hc")
    assert cert.meta["r0"] == approx(GRID_RADIUS)


# -- oracle fallback ---------------------------------------------------------

def test_small_instance_uses_oracle():
    ps = sample_points(10, 2, seed=1)
    got = build_rainbow(ps, 0.9, mode="hc", n_colours=30, colour_seed=3)
    assert not isinstance(got, BuildFailure)
    assert got.method == "oracle"
    proc = build_process(ps, cutoff=0.9, n_colours=30, colour_seed=3)
    assert validate_certificate(got.to_dict(), proc) == []


def test_small_matching_uses_oracle():
    ps = sample_points(16, 2, seed=2)
    got = build_rainbow(ps, 0.9, mode="pm", n_colours=48, colour_seed=4)
    assert not isinstance(got, BuildFailure)
    assert got.method == "oracle"
    assert len(got.edges) == 8


def test_oracle_failure_is_structured():
    ps = sample_points(10, 2, seed=3)
    got = build_rainbow(ps, 0.05, mode="hc", n_colours=30)
    assert isinstance(got, BuildFailure)
    assert got.stage == "oracle"
    raw = json.loads(got.to_json())
    assert raw["ok"] is False
    assert raw["failed_stage"] == "oracle"


# -- structured failures -----------------------------------------------------

def test_input_validation():
    ps = sample_points(7, 2, seed=4)
    got = build_rainbow(ps, 0.5, mode="pm", K=20.0)
    assert isinstance(got, BuildFailure) and got.stage == "input"
    with pytest.raises(ValueError):
        build_rainbow(ps, 0.5, mode="tour")


@pytest.mark.parametrize("r", [-0.5, math.nan])
@pytest.mark.parametrize("n", [8, 200])
def test_build_refuses_negative_or_nan_radius(n, r):
    """Oracle-sized and staged builds both refuse a radius that is not
    nonnegative, as build_process does."""
    ps = sample_points(n, 2, seed=4)
    with pytest.raises(ValueError, match="cutoff must be nonnegative"):
        build_rainbow(ps, r, mode="hc")


def test_uniform_bench_scale_fails_in_tessellation():
    """Uniform points above the oracle limit: the default calibration is
    degenerate at this size and the failure says so."""
    ps = sample_points(120, 2, seed=5)
    got = build_rainbow(ps, 0.2, mode="hc", K=20.0)
    assert isinstance(got, BuildFailure)
    assert got.stage == "tessellation"
    assert got.mode == "hc"


def test_radius_too_small_fails_cleanly(hole_cloud):
    got = build_rainbow(hole_cloud, 0.04, mode="hc", epsilon=EPSILON,
                        K=20.0, grid_radius=GRID_RADIUS)
    assert isinstance(got, BuildFailure)
    assert got.stage in ("ugly_plan", "ugly_colour", "bad_forest",
                         "good_cycle", "stitch")
    assert json.loads(got.to_json())["target_radius"] == approx(0.04)


def test_colour_starvation_fails_cleanly(hole_cloud):
    """One colour total: the first stage that needs two fresh colours
    reports a collision instead of producing a false certificate."""
    got = build_rainbow(hole_cloud, RADIUS, mode="hc", epsilon=EPSILON,
                        n_colours=1, grid_radius=GRID_RADIUS)
    assert isinstance(got, BuildFailure)
    assert got.stage in ("ugly_colour", "good_cycle")


# -- stage 1/2: ugly paths ---------------------------------------------------

def test_plan_ugly_paths_cycle_mode(ring_cloud):
    grid, graph, cls = _decompose(ring_cloud)
    plans, claimed = plan_ugly_paths(ring_cloud, grid, graph, cls, RADIUS, mode="hc")
    assert len(plans) == 1
    plan = plans[0]
    assert plan.anchor_cell in set(cls.good)
    assert len(set(plan.path)) == len(plan.path)
    assert set(plan.path) <= claimed
    # consecutive hops stay within the build radius
    pts = ring_cloud.points
    for a, b in zip(plan.path, plan.path[1:]):
        assert np.linalg.norm(pts[a] - pts[b]) <= RADIUS + 1e-12
    # endpoints are parked outside the ugly component
    ugly_cells = set(cls.ugly)
    assert grid.cell_of_vertex[plan.path[0]] not in ugly_cells
    assert grid.cell_of_vertex[plan.path[-1]] not in ugly_cells


def test_plan_ugly_paths_matching_mode(ring_cloud):
    grid, graph, cls = _decompose(ring_cloud)
    plans, claimed = plan_ugly_paths(ring_cloud, grid, graph, cls, RADIUS, mode="pm")
    for plan in plans:
        assert len(plan.path) % 2 == 0
        assert plan.anchor_cell is None


def test_colour_ugly_paths_claims_distinct(ring_cloud):
    grid, graph, cls = _decompose(ring_cloud)
    proc = build_process(ring_cloud, cutoff=RADIUS, K=20.0, colour_seed=5)
    used = set()
    plans, _ = plan_ugly_paths(ring_cloud, grid, graph, cls, RADIUS, mode="hc")
    got = colour_ugly_paths(plans, proc, used, RADIUS)
    cols = [c for plan in got for (_, _, c, _) in plan.edges]
    assert len(set(cols)) == len(cols)
    assert set(cols) == used


def test_colour_ugly_paths_collision(ring_cloud):
    grid, graph, cls = _decompose(ring_cloud)
    proc = build_process(ring_cloud, cutoff=RADIUS, n_colours=1)
    used = set()
    plans, _ = plan_ugly_paths(ring_cloud, grid, graph, cls, RADIUS, mode="hc")
    with pytest.raises(StageError) as err:
        colour_ugly_paths(plans, proc, used, RADIUS)
    assert err.value.stage == "ugly_colour"
    assert err.value.reason == "colour collision on path edge"


def test_good_cycles_drained_cell_raises(ring_cloud):
    grid, graph, cls = _decompose(ring_cloud)
    proc = build_process(ring_cloud, cutoff=RADIUS, n_colours=1)
    with pytest.raises(StageError) as err:
        build_good_cycles(grid, cls, proc, set(), set(range(ring_cloud.n)), RADIUS)
    assert (err.value.stage, err.value.reason) == \
        ("good_cycle", "good cell drained below cycle size")


def test_stage_failures_carry_mode(hole_cloud):
    """build_rainbow labels a stage's failure with the mode, n and target
    radius of the build."""
    for mode, stage in (("hc", "ugly_colour"), ("pm", "good_cycle")):
        got = build_rainbow(hole_cloud, RADIUS, mode=mode, epsilon=EPSILON, n_colours=1,
                            grid_radius=GRID_RADIUS)
        assert isinstance(got, BuildFailure)
        assert (got.stage, got.mode, got.n, got.target_radius) == \
            (stage, mode, hole_cloud.n, RADIUS)


# -- stage 3: bad chains ----------------------------------------------------

def test_bad_forests_cover_bad_residents(ring_cloud):
    grid, graph, cls = _decompose(ring_cloud)
    proc = build_process(ring_cloud, cutoff=RADIUS, K=20.0, colour_seed=5)
    used = set()
    chains = build_bad_forests(grid, graph, cls, proc, used, set(), RADIUS)
    covered = sorted(v for ch in chains for v in ch.vertices)
    expect = sorted(v for c in cls.bad for v in grid.vertices_in(c).tolist())
    assert covered == expect
    good = set(cls.good)
    for ch in chains:
        assert ch.cell in set(cls.bad)
        assert ch.parent_cell in good
        assert len(ch.edges) == len(ch.vertices) - 1
        for (a, b, c, ln) in ch.edges:
            assert ln <= RADIUS + 1e-12
            assert c in used


# -- stage 4: cycles in good cells -------------------------------------------

def test_good_cycles_one_per_cell(hole_cloud):
    grid, graph, cls = _decompose(hole_cloud)
    proc = build_process(hole_cloud, cutoff=RADIUS, K=20.0, colour_seed=11)
    used = set()
    cycles = build_good_cycles(grid, cls, proc, used, set(), RADIUS)
    assert sorted(cycles) == sorted(cls.good)
    all_cols = []
    for cell, cyc in cycles.items():
        assert sorted(cyc.order) == sorted(grid.vertices_in(cell).tolist())
        assert len(cyc.edges) == len(cyc.order)
        for (a, b, c, ln) in cyc.edges:
            assert grid.cell_of_vertex[a] == cell
            assert grid.cell_of_vertex[b] == cell
            all_cols.append(c)
    # survivor colours are distinct across the whole structure
    assert len(set(all_cols)) == len(all_cols)
    assert set(all_cols) <= used


def test_stage_vertex_sets_are_disjoint(ring_cloud):
    """Ugly paths, bad chains and good cycles partition the vertex set."""
    grid, graph, cls = _decompose(ring_cloud)
    proc = build_process(ring_cloud, cutoff=RADIUS, K=20.0, colour_seed=5)
    used = set()
    plans, claimed = plan_ugly_paths(ring_cloud, grid, graph, cls, RADIUS, mode="hc")
    plans = colour_ugly_paths(plans, proc, used, RADIUS)
    chains = build_bad_forests(grid, graph, cls, proc, used, claimed, RADIUS)
    cycles = build_good_cycles(grid, cls, proc, used, claimed, RADIUS)
    groups = [v for p in plans for v in p.path]
    groups += [v for ch in chains for v in ch.vertices]
    groups += [v for cyc in cycles.values() for v in cyc.order]
    assert sorted(groups) == list(range(ring_cloud.n))


# -- stage 5/6: stitching ----------------------------------------------------

def _full_stages(cloud, mode, colour_seed):
    grid, graph, cls = _decompose(cloud)
    proc = build_process(cloud, cutoff=RADIUS, K=20.0, colour_seed=colour_seed)
    used = set()
    plans, claimed = plan_ugly_paths(cloud, grid, graph, cls, RADIUS, mode=mode)
    plans = colour_ugly_paths(plans, proc, used, RADIUS)
    chains = build_bad_forests(grid, graph, cls, proc, used, claimed, RADIUS)
    cycles = build_good_cycles(grid, cls, proc, used, claimed, RADIUS)
    stitch = build_stitch_plan(graph, cls, cycles, chains, plans, proc,
                               used, RADIUS, mode=mode)
    return proc, plans, chains, cycles, stitch


def test_stitch_plan_uses_fresh_colour_pairs(ring_cloud):
    proc, plans, chains, cycles, stitch = _full_stages(ring_cloud, "hc", 5)
    seen = set()
    for merge in stitch:
        (u1, v1, c1, l1), (u2, v2, c2, l2) = merge["added"]
        assert c1 != c2
        assert c1 not in seen and c2 not in seen
        seen.update((c1, c2))
        assert l1 <= RADIUS + 1e-12 and l2 <= RADIUS + 1e-12
        assert proc.colour_of(u1, v1) == c1
        assert proc.colour_of(u2, v2) == c2
    kinds = {m["kind"] for m in stitch}
    assert kinds == {"tree", "bad", "ugly"}


def test_apply_stitch_single_cycle(ring_cloud):
    proc, plans, chains, cycles, stitch = _full_stages(ring_cloud, "hc", 5)
    edges = apply_stitch(cycles, chains, plans, stitch, "hc")
    n = ring_cloud.n
    assert len(edges) == n
    deg = np.zeros(n, dtype=int)
    adj = [[] for _ in range(n)]
    for (a, b, _, _) in edges:
        deg[a] += 1
        deg[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    assert np.all(deg == 2)
    # connected + all degrees 2 = one cycle
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == n


def test_apply_stitch_perfect_matching(ring_cloud):
    proc, plans, chains, cycles, stitch = _full_stages(ring_cloud, "pm", 5)
    edges = apply_stitch(cycles, chains, plans, stitch, "pm")
    verts = [v for (a, b, _, _) in edges for v in (a, b)]
    assert sorted(verts) == list(range(ring_cloud.n))


@pytest.mark.parametrize("mode", ["hc", "pm"])
def test_malformed_stitch_fails_verification(ring_cloud, mode, monkeypatch):
    """apply_stitch does not check what it assembles: a stitch plan missing
    one merge leaves two cycles, and the validator turns that into a
    failure at stage "verify" instead of a certificate."""
    plan_stitch = builder.build_stitch_plan
    validate = builder._oracle.validate_certificate
    found = []

    def dropping(*args, **kwargs):
        merges = plan_stitch(*args, **kwargs)
        merges.pop(0)
        return merges

    def recording(cert, process):
        found.append(validate(cert, process))
        return found[-1]

    monkeypatch.setattr(builder, "build_stitch_plan", dropping)
    monkeypatch.setattr(builder._oracle, "validate_certificate", recording)
    got = _staged(ring_cloud, mode, colour_seed=5)
    assert isinstance(got, BuildFailure), got.to_json()
    assert (got.stage, got.reason) == ("verify", "assembled structure failed validation")
    assert len(found) == 1 and found[0]
    assert got.details["problems"] == found[0][:10]


# -- spare vertex pool ------------------------------------------------------

def test_spare_pool_keeps_cells_viable(hole_cloud):
    grid, graph, cls = _decompose(hole_cloud)
    claimed = set()
    pool = _SpareVertexPool(hole_cloud, grid, cls, claimed)
    cell = cls.good[0]
    residents = grid.vertices_in(cell)
    taken = []
    while True:
        got = pool.take(residents, hole_cloud.points[0])
        if got is None:
            break
        assert got[1] == cell
        taken.append(got[0])
    # nearest first; never below 3 unclaimed, never more than 2 drains
    dist = np.linalg.norm(hole_cloud.points[residents] - hole_cloud.points[0], axis=1)
    assert taken == residents[np.argsort(dist, kind="stable")][:len(taken)].tolist()
    assert len(taken) <= 2
    assert len(residents) - len(taken) >= 3
    assert all(v in claimed for v in taken)


@pytest.mark.parametrize("unclaimed, takes", [(4, 1), (3, 0)])
def test_spare_pool_keeps_three_unclaimed(hole_cloud, unclaimed, takes):
    """A cell gives a vertex only while it has more than three unclaimed
    residents, whoever claimed the others."""
    grid, graph, cls = _decompose(hole_cloud)
    cell = cls.good[0]
    residents = grid.vertices_in(cell)
    assert len(residents) > unclaimed
    pool = _SpareVertexPool(hole_cloud, grid, cls, set(residents[unclaimed:].tolist()))
    got = [pool.take(residents, hole_cloud.points[residents[0]]) for _ in range(3)]
    assert sum(g is not None for g in got) == takes


# -- certificates ------------------------------------------------------

def test_certificate_json_round_trip(hole_cloud):
    cert = _staged(hole_cloud, "hc")
    raw = json.loads(cert.to_json())
    assert raw["ok"] is True
    assert raw["mode"] == "hc"
    assert raw["n"] == hole_cloud.n
    assert len(raw["edges"]) == hole_cloud.n
    proc = build_process(hole_cloud, cutoff=RADIUS, K=20.0, colour_seed=11)
    assert validate_certificate(raw, proc) == []


def test_tampered_certificate_rejected(hole_cloud):
    cert = _staged(hole_cloud, "pm")
    raw = cert.to_dict()
    proc = build_process(hole_cloud, cutoff=RADIUS, K=20.0, colour_seed=11)
    assert validate_certificate(raw, proc) == []
    raw["edges"][0][2] += 1
    assert validate_certificate(raw, proc)


# Certificates of the six builds below, hc then pm per cloud, joined by
# newlines.  A refactor of the builder, the cell graph or the colour and
# length lookups must leave this digest as it is.
PINNED_CERTIFICATES_SHA256 = "25c628030f2c4a7ee21aabe7b74cc22ab51754e2976a0bbd0cf2338fd7716a8b"


def test_engineered_certificates_pinned():
    texts = []
    for seed, ring_pts in ((0, 0), (1, 1), (3, 2)):
        cloud = engineered_points(seed=seed, ring_pts=ring_pts)
        for mode in ("hc", "pm"):
            got = _staged(cloud, mode)
            assert not isinstance(got, BuildFailure), got.to_json()
            texts.append(got.to_json())
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == PINNED_CERTIFICATES_SHA256


# Output of every build below, certificates and failures alike, joined by
# newlines.  The grid reaches every stage that fails on these inputs
# (tessellation, ugly_plan, ugly_colour, good_cycle, stitch), the oracle and
# the staged certificates, and two builds take a good-cell corridor.  A
# refactor of any stage, the pair lookups or the oracle path must leave
# this digest as it is.
PINNED_OUTPUTS_SHA256 = "cd32e2f58501470e3879472587c218b3efe6154e4097802fad791799782f0069"


def test_build_outputs_pinned(monkeypatch):
    corridors = []
    take = _SpareVertexPool.take

    def recording(pool, cands, point, reach=math.inf):
        corridors.append(reach == math.inf)
        return take(pool, cands, point, reach)

    monkeypatch.setattr(_SpareVertexPool, "take", recording)
    texts, outcomes = [], set()
    for ring_pts in (0, 1, 2):
        cloud = engineered_points(seed=5, ring_pts=ring_pts)
        for mode in ("hc", "pm"):
            texts.append(build_rainbow(cloud, RADIUS, mode=mode, epsilon=EPSILON, K=20.0,
                                       colour_seed=0, grid_radius=GRID_RADIUS).to_json())
    for n in (12, 300):
        for seed in (1, 2):
            pts = sample_points(n, 2, seed, 1.5)
            for mode in ("hc", "pm"):
                r_hat = max_knn_distance(pts, 2 if mode == "hc" else 1)
                for epsilon, grid_radius in ((0.1, None), (0.0148, 0.45), (0.02, 0.3)):
                    texts.append(build_rainbow(pts, 3 * r_hat, mode=mode, epsilon=epsilon,
                                               K=20.0, colour_seed=seed,
                                               grid_radius=grid_radius).to_json())
    for text in texts:
        raw = json.loads(text)
        outcomes.add(raw["method"] if raw["ok"] else raw["failed_stage"])
    assert outcomes == {"oracle", "staged", "tessellation", "ugly_plan", "ugly_colour",
                        "good_cycle", "stitch"}
    assert any(corridors)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == PINNED_OUTPUTS_SHA256


# Failure of a uniform n = 1000 hc build whose one ugly component holds 997
# vertices and no path the search finds.  A search that retried from every
# start vertex took about a minute here to report the same failure.
PINNED_UGLY_FAILURE_SHA256 = "35f5d7e6273bb48310ee12d7bf36e8dbf72af06f5671e17ed3e2f720b6d42fce"


def test_large_ugly_component_fails_fast():
    pts = sample_points(1000, 2, 2, 2.0)
    text = build_rainbow(pts, max_knn_distance(pts, 2), mode="hc", epsilon=0.015,
                         K=20.0, colour_seed=2).to_json()
    raw = json.loads(text)
    assert raw["failed_stage"] == "ugly_plan"
    assert raw["reason"] == "no spanning path through ugly component"
    assert raw["details"]["vertices"] == 997
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_UGLY_FAILURE_SHA256
