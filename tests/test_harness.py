"""Experiment harness: limit-law formulas, trial protocol, serialization.

The closed-form constants are pinned to frozen numeric values that were
verified by hand (f(2, inf) = log 64; the two-dimensional cycle law's
boundary constant is 2 sqrt(theta)/theta_prime = 2 at p = inf), so any
drift in the formulas turns a test red.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from pytest import approx

from rainbow_rgg import (
    ExperimentConfig,
    TrialRecord,
    corollary_radius,
    finite_n_cdf_pm,
    limit_cdf_hc,
    limit_cdf_pm,
    max_knn_distance,
    min_degree_law_experiment,
    pairwise_distances,
    printed_offset,
    records_to_csv,
    records_to_json,
    run_trials,
    sample_points,
    unit_ball_volume,
)
from rainbow_rgg.harness import _trial_seeds


# -- closed-form constants -----------------------------------------------

def test_printed_offset_frozen():
    assert printed_offset(2, math.inf) == approx(math.log(64), rel=1e-12)
    assert printed_offset(2, math.inf) == approx(4.1588830833596715, rel=1e-12)
    assert printed_offset(3, 2.0) == approx(6.182889900296285, rel=1e-12)
    assert printed_offset(2, 2.0) == approx(3.675754132818691, rel=1e-12)


def test_printed_offset_formula():
    """Recompute the constant from its definition for several (d, p)."""
    for d, p in ((2, 1.0), (3, math.inf), (4, 2.0)):
        theta = unit_ball_volume(d, p)
        theta_prime = unit_ball_volume(d - 1, p)
        expect = math.log(2 ** (1 - 2 / d) * (theta * d) ** (3 - 2 / d)
                          * theta_prime ** (d - 2) / (d * (d - 1) / 2))
        assert printed_offset(d, p) == approx(expect, rel=1e-12)


def test_limit_cdf_pm_frozen():
    """d = 2: n theta r^2 = log n + alpha leaves e^{-alpha} isolated interior
    vertices in expectation and boundary terms that vanish, so the limit
    is exp(-e^{-alpha}) for every l_p."""
    assert limit_cdf_pm(-1.0, 2, math.inf) == approx(math.exp(-math.e), rel=1e-12)
    assert limit_cdf_pm(-1.0, 2, math.inf) == approx(0.06598803584531254, rel=1e-12)
    assert limit_cdf_pm(0.0, 2, math.inf) == approx(0.36787944117144233, rel=1e-12)
    assert limit_cdf_pm(1.0, 2, math.inf) == approx(0.6922006275553464, rel=1e-12)


def test_finite_n_cdf_pm_frozen():
    """d = 2 keeps the side-strip term 2 sqrt(theta) e^{-alpha/2} /
    sqrt(log n + alpha); elsewhere the finite-n law is the limit."""
    n = 10 ** 5
    assert finite_n_cdf_pm(-1.0, n, 2, math.inf) == approx(0.008632198740924558, rel=1e-12)
    assert finite_n_cdf_pm(0.0, n, 2, math.inf) == approx(0.1131689622479284, rel=1e-12)
    assert finite_n_cdf_pm(1.0, n, 2, math.inf) == approx(0.3486328068094048, rel=1e-12)
    assert finite_n_cdf_pm(0.0, n, 3, 2.0) == limit_cdf_pm(0.0, 3, 2.0)


def test_finite_n_cdf_pm_matches_boundary_quadrature():
    """Against the Poisson law exp(-E W) with the exact cube boundary,
    E W = n int exp(-n |B(x, r) & [0,1]^2|) dx, integrated numerically at
    n theta r^2 = log n + alpha.  For l_inf the ball-square intersection is
    a product of 1-D widths."""
    n = 10 ** 5
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for alpha in (-1.0, 0.0, 1.0):
        r = math.sqrt((math.log(n) + alpha) / (4 * n))
        xs, ws = [], []
        for lo, hi in ((0.0, r), (r, 1.0 - r), (1.0 - r, 1.0)):
            xs.append(lo + (hi - lo) * (nodes + 1) / 2)
            ws.append((hi - lo) * weights / 2)
        x, w = np.concatenate(xs), np.concatenate(ws)
        width = np.minimum(x + r, 1.0) - np.maximum(x - r, 0.0)
        ew = n * np.sum(np.outer(w, w) * np.exp(-n * np.outer(width, width)))
        assert finite_n_cdf_pm(alpha, n, 2, math.inf) == approx(math.exp(-ew), abs=0.01)


def test_limit_cdf_hc_frozen_flat_dimension():
    """d = 2 uses the dedicated boundary form exp(-t(t + 2 sqrt(theta)/theta'))."""
    assert limit_cdf_hc(0.0, 2, math.inf) == approx(math.exp(-3.0), rel=1e-12)
    assert limit_cdf_hc(-1.0, 2, math.inf) == approx(0.002440080203673381, rel=1e-12)
    assert limit_cdf_hc(1.0, 2, math.inf) == approx(0.20578141606713535, rel=1e-12)


def test_limit_cdf_hc_frozen_higher_dimension():
    assert limit_cdf_hc(0.0, 3, 2.0) == approx(
        math.exp(-2 * math.exp(-printed_offset(3, 2.0)) / 3), rel=1e-12)
    assert limit_cdf_hc(0.0, 3, 2.0) == approx(0.9986246445614879, rel=1e-12)


def test_limit_cdfs_are_cdfs():
    for law in (limit_cdf_pm, limit_cdf_hc):
        vals = [law(a, 2, math.inf) for a in np.linspace(-4, 6, 21)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals)
    assert limit_cdf_hc(40.0, 2, math.inf) > 0.99
    assert limit_cdf_pm(-20.0, 2, math.inf) < 1e-6


def test_corollary_radius_inverts():
    """Plugging the radius back into its defining identity recovers alpha."""
    n, d, p = 10 ** 5, 2, math.inf
    theta = unit_ball_volume(d, p)
    for target, c in (("pm", 3 - d - 2 / d), ("hc", 4 - d - 2 / d)):
        for alpha in (-1.0, 0.0, 1.0):
            r = corollary_radius(n, d, p, alpha, target)
            back = (r ** d) * (2 ** (2 - d)) * theta * n \
                - (2 / d) * math.log(n) - c * math.log(math.log(n))
            assert back == approx(alpha, abs=1e-9)


def test_corollary_radius_frozen():
    assert corollary_radius(10 ** 5, 2, math.inf, 0.0, "pm") == \
        approx(0.005364915065723368, rel=1e-12)
    assert corollary_radius(10 ** 5, 2, math.inf, 0.0, "hc") == \
        approx(0.0059068595341882565, rel=1e-12)


def test_corollary_radius_ordering():
    """The cycle radius scale sits above the matching scale."""
    for n in (10 ** 3, 10 ** 5):
        assert corollary_radius(n, 2, math.inf, 0.0, "hc") > \
            corollary_radius(n, 2, math.inf, 0.0, "pm")


def test_corollary_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        corollary_radius(10 ** 5, 2, math.inf, 0.0, "tour")
    with pytest.raises(ValueError):
        corollary_radius(10, 2, math.inf, -50.0, "pm")


# -- k-NN helper -----------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("k", [1, 2])
def test_max_knn_distance_vs_brute_force(p, k):
    ps = sample_points(60, 2, seed=1, p=p)
    dm = pairwise_distances(ps.points, p)
    np.fill_diagonal(dm, np.inf)
    dm.sort(axis=1)
    assert max_knn_distance(ps, k) == approx(float(dm[:, k - 1].max()), rel=1e-12)


def test_max_knn_distance_bounds_k():
    ps = sample_points(5, 2, seed=2)
    with pytest.raises(ValueError):
        max_knn_distance(ps, 5)


# -- trial protocol ---------------------------------------------------------

def test_trial_seeds_deterministic_and_distinct():
    a = _trial_seeds(0, 1, 2)
    assert a == _trial_seeds(0, 1, 2)
    seen = {_trial_seeds(0, i, t) for i in range(4) for t in range(25)}
    assert len(seen) == 100


def test_config_validates_kind():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope", ns=(10,), trials=1)


@pytest.mark.parametrize("kind, n, modes, minimum", [
    ("hitting", 2, ("hc", "pm"), 3),
    ("lawcheck", 2, ("hc", "pm"), 3),
    ("build", 2, ("hc", "pm"), 3),
    ("build", 2, ("hc",), 3),
    ("build", 1, ("pm",), 2),
])
def test_config_refuses_n_below_kind_minimum(kind, n, modes, minimum):
    with pytest.raises(ValueError, match=rf"{kind}.*n >= {minimum}, got n = {n}"):
        ExperimentConfig(kind=kind, ns=(10, n), trials=1, modes=modes)


@pytest.mark.parametrize("trials", [0, -1])
def test_config_refuses_trials_below_one(trials):
    with pytest.raises(ValueError, match=rf"trials must be at least 1, got {trials}"):
        ExperimentConfig(kind="hitting", ns=(10,), trials=trials)


@pytest.mark.parametrize("threads", [0, -3])
def test_config_refuses_threads_below_one(threads):
    with pytest.raises(ValueError, match=rf"threads must be at least 1, got {threads}"):
        ExperimentConfig(kind="hitting", ns=(10,), trials=1, threads=threads)


def test_config_refuses_unknown_mode():
    with pytest.raises(ValueError, match="modes must be"):
        ExperimentConfig(kind="build", ns=(10,), trials=1, modes=("hc", "tour"))


def test_config_refuses_empty_sizes():
    with pytest.raises(ValueError, match="ns must name"):
        ExperimentConfig(kind="hitting", ns=(), trials=1)


def test_config_refuses_build_without_modes():
    with pytest.raises(ValueError, match="modes must be"):
        ExperimentConfig(kind="build", ns=(30,), trials=1, modes=())


@pytest.mark.parametrize("kind, n, modes", [
    ("build", 2, ("pm",)),
    ("hitting", 3, ("hc", "pm")),
    ("lawcheck", 3, ("hc", "pm")),
])
def test_config_accepts_kind_minimum(kind, n, modes):
    (record,) = run_trials(ExperimentConfig(kind=kind, ns=(n,), trials=1, modes=modes))
    assert record.n == n and record.values


def test_hitting_records_structure():
    config = ExperimentConfig(kind="hitting", ns=(20, 30), trials=3,
                              master_seed=7, include_rainbow=False)
    records = run_trials(config)
    assert len(records) == 6
    for rec in records:
        assert rec.kind == "hitting"
        assert set(rec.values) == {"r_min_degree_1", "r_min_degree_2",
                                   "r_kconn_1", "r_kconn_2",
                                   "coincide_1", "coincide_2"}
        assert rec.values["r_kconn_1"] >= rec.values["r_min_degree_1"]
        assert rec.values["coincide_1"] in (0, 1)
    assert [rec.n for rec in records] == [20, 20, 20, 30, 30, 30]


def test_hitting_records_with_rainbow():
    config = ExperimentConfig(kind="hitting", ns=(8,), trials=4,
                              master_seed=1, include_rainbow=True)
    records = run_trials(config)
    for rec in records:
        assert rec.values["r_rainbow_hc"] >= rec.values["r_min_degree_2"]
        assert rec.values["r_rainbow_pm"] >= rec.values["r_min_degree_1"]


def test_build_records_structure():
    config = ExperimentConfig(kind="build", ns=(12,), trials=2, master_seed=3,
                              modes=("hc",))
    records = run_trials(config)
    for rec in records:
        assert "r_target_hc" in rec.values
        assert rec.values["success_hc"] in (0, 1)
        if rec.values["success_hc"]:
            assert rec.values["radius_hc"] <= rec.values["r_target_hc"] * (1 + 1e-9)
            assert rec.values["method_hc"] == "oracle"
        else:
            assert "failed_stage_hc" in rec.values


def test_threaded_run_identical_to_serial():
    base = dict(kind="hitting", ns=(15, 25), trials=4, master_seed=11)
    serial = run_trials(ExperimentConfig(threads=1, **base))
    threaded = run_trials(ExperimentConfig(threads=3, **base))
    assert records_to_csv(serial) == records_to_csv(threaded)
    assert records_to_json(serial) == records_to_json(threaded)


def test_law_experiment_summary_rows():
    records, rows = min_degree_law_experiment(n=300, trials=5, master_seed=2)
    assert len(records) == 5
    assert len(rows) == 6  # two targets, three offsets
    for row in rows:
        assert 0.0 <= row["empirical"] <= 1.0
        assert 0.0 <= row["limit"] <= 1.0
        assert 0.0 <= row["at_n"] <= 1.0
        assert row["trials"] == 5
        assert row["target"] in ("pm", "hc")
    # rows are ordered by (k, alpha) with increasing radius in alpha
    pm_rows = [r for r in rows if r["target"] == "pm"]
    assert [r["alpha"] for r in pm_rows] == sorted(r["alpha"] for r in pm_rows)
    assert pm_rows[0]["radius"] < pm_rows[-1]["radius"]


# -- serialization ----------------------------------------------------------

def test_records_to_csv_layout():
    records = [
        TrialRecord(kind="hitting", n=10, n_index=0, trial_index=0,
                    point_seed=1, colour_seed=2,
                    values={"b": 1.5, "a": math.inf}, wall_time=3.3),
        TrialRecord(kind="hitting", n=10, n_index=0, trial_index=1,
                    point_seed=3, colour_seed=4, values={"b": 2.0}),
    ]
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "kind,n,n_index,trial_index,point_seed,colour_seed,a,b"
    assert lines[1] == "hitting,10,0,0,1,2,inf,1.5"
    assert lines[2] == "hitting,10,0,1,3,4,,2.0"
    assert "wall_time" not in text
    assert "3.3" not in text


def test_records_to_csv_float_precision():
    rec = TrialRecord(kind="lawcheck", n=5, n_index=0, trial_index=0,
                      point_seed=0, colour_seed=0, values={"r": 0.1 + 0.2})
    text = records_to_csv([rec])
    assert repr(0.1 + 0.2) in text  # full precision, round-trippable


def test_records_to_json_structure():
    rec = TrialRecord(kind="hitting", n=10, n_index=0, trial_index=0,
                      point_seed=1, colour_seed=2,
                      values={"x": math.inf}, wall_time=9.9)
    raw = json.loads(records_to_json([rec]))
    assert raw[0]["values"]["x"] == "inf"
    assert "wall_time" not in raw[0]
    assert raw[0]["n"] == 10


# CSV and JSON of the experiments below, in order, joined by newlines.  They
# cover every trial kind, the exact rainbow radii (n = 9 and 10), the oracle
# path of the builder (n = 12) and staged failures (tessellation, ugly_plan).
# A change to the trial protocol or to anything a trial runs must leave this
# digest as it is.
PINNED_EXPERIMENTS_SHA256 = "a0740d618eadcbb9735564ccced5909108b76d22ac6b0831680b9e7703d5b4a3"


def test_experiment_outputs_pinned():
    texts = []
    for config in (ExperimentConfig("hitting", (9, 40, 200), 3, p=2.0, include_rainbow=True),
                   ExperimentConfig("hitting", (9, 40, 200), 3, p=3.0, include_rainbow=True),
                   ExperimentConfig("hitting", (10,), 3, p=math.inf, include_rainbow=True),
                   ExperimentConfig("build", (12, 300), 3),
                   ExperimentConfig("build", (12, 300), 3, p=1.5, epsilon=0.0148),
                   ExperimentConfig("lawcheck", (2000,), 3)):
        records = run_trials(config)
        texts += [records_to_csv(records), records_to_json(records)]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == PINNED_EXPERIMENTS_SHA256
