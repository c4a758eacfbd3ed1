"""Reproducible Monte Carlo experiments over the coloured process.

Three experiment kinds share one trial protocol:

  hitting  -- hitting radii for minimum degree, connectivity and (small
              instances) the exact rainbow properties, with coincidence
              flags
  build    -- run the staged builder at the empirical min-degree hitting
              radius and record certified successes per mode
  lawcheck -- large-n min-degree hitting radii against the closed-form
              limit distributions

Trial seeds derive from SeedSequence([master_seed, n_index, trial_index]),
so results depend only on the configuration, never on scheduling; workers
return records in submission order and wall times stay out of the
serialized output, keeping CSV and JSON byte-identical across runs and
worker counts.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (PointSet, check_norm, cube_diameter, json_safe, lp_lengths,
                       sample_points, unit_ball_volume)
from .process import HittingRadii, build_process, compute_hitting_radii
from . import builder as _builder
from . import oracle as _oracle

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "printed_offset",
    "limit_cdf_pm",
    "finite_n_cdf_pm",
    "limit_cdf_hc",
    "corollary_radius",
    "max_knn_distance",
    "hitting_radii",
    "run_trials",
    "min_degree_law_experiment",
    "records_to_csv",
    "records_to_json",
]


# -- Limit laws ----------------------------------------------------------------

def printed_offset(d: int, p) -> float:
    """The paper's constant f = log(2^{1-2/d} (theta d)^{3-2/d}
    theta'^{d-2} / C(d,2)).

    f belongs to the boundary-dominated regime, where the vertices of low
    degree that decide the law sit near the cube's boundary; the d >= 3
    laws use it (no test holds them to data yet).  The d = 2 matching law
    does not: on its scale the interior dominates, the boundary terms
    vanish and the limit carries no offset (see ``limit_cdf_pm``)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    check_norm(p)
    theta = unit_ball_volume(d, p)
    theta_prime = unit_ball_volume(d - 1, p)
    binom = d * (d - 1) // 2
    return math.log(2 ** (1 - 2 / d) * (theta * d) ** (3 - 2 / d)
                    * theta_prime ** (d - 2) / binom)


def limit_cdf_pm(alpha: float, d: int, p) -> float:
    """Limiting probability of a rainbow perfect matching at the matching
    radius scale: exp(-e^{-alpha-f}) for d >= 3, and exp(-e^{-alpha}) at
    d = 2.

    At d = 2 the scale is n theta r^2 = log n + alpha, so the expected
    number of isolated interior vertices is n e^{-n theta r^2} = e^{-alpha}.
    The four sides add about 2 sqrt(theta) e^{-alpha/2} / sqrt(log n + alpha)
    and the corners O(n^{-1/4}); both vanish as n grows (Penrose, "On
    k-connectivity for a geometric random graph", 1999).  The side term
    decays slowly; ``finite_n_cdf_pm`` keeps it."""
    if d == 2:
        check_norm(p)
        return math.exp(-math.exp(-alpha))
    return math.exp(-math.exp(-alpha - printed_offset(d, p)))


def finite_n_cdf_pm(alpha: float, n: int, d: int, p) -> float:
    """The matching law at finite n.  At d = 2 it keeps the side-strip term
    of ``limit_cdf_pm``:
    exp(-e^{-alpha} - 2 sqrt(theta) e^{-alpha/2} / sqrt(log n + alpha)),
    for any l_p (the unit l_p ball in dimension 2 has width 2 across its
    centre; the term is first order in the distance to the side).  Elsewhere
    no finite-n term is derived yet and the limit is returned."""
    if d != 2:
        return limit_cdf_pm(alpha, d, p)
    bracket = math.log(n) + alpha
    if bracket <= 0:
        raise ValueError(f"matching scale non-positive at n={n}, alpha={alpha}")
    theta = unit_ball_volume(2, p)
    sides = 2 * math.sqrt(theta) * math.exp(-alpha / 2) / math.sqrt(bracket)
    return math.exp(-math.exp(-alpha) - sides)


def limit_cdf_hc(alpha: float, d: int, p) -> float:
    """Limiting probability of a rainbow Hamilton cycle at the cycle radius
    scale: exp(-2 e^{-alpha-f} / d) for d >= 3, with a dedicated two-term
    boundary form at d = 2."""
    if d == 2:
        theta = unit_ball_volume(2, p)
        theta_prime = unit_ball_volume(1, p)
        t = math.exp(-alpha / 2)
        return math.exp(-t * (t + 2 * math.sqrt(theta) / theta_prime))
    return math.exp(-2 * math.exp(-alpha - printed_offset(d, p)) / d)


def corollary_radius(n: int, d: int, p, alpha: float, target: str = "pm") -> float:
    """Radius at offset alpha on the limit-law scale:
    r^d = ((2/d) log n + c log log n + alpha) / (2^{2-d} theta n), with
    c = 3 - d - 2/d for matchings and 4 - d - 2/d for cycles."""
    if target not in ("pm", "hc"):
        raise ValueError("target must be 'pm' or 'hc'")
    if n < 3:
        raise ValueError("n too small for the radius scale")
    c = (3 if target == "pm" else 4) - d - 2 / d
    bracket = (2 / d) * math.log(n) + c * math.log(math.log(n)) + alpha
    if bracket <= 0:
        raise ValueError(f"radius formula non-positive at n={n}, alpha={alpha}")
    theta = unit_ball_volume(d, p)
    return (bracket / (2 ** (2 - d) * theta * n)) ** (1 / d)


def _knn_radii(points: PointSet, ks) -> dict:
    """Map each k in ks to the max over vertices of the k-th smallest l_p
    length to another vertex, from one kd-tree query.

    The kd-tree picks max(ks) + 1 neighbours of every vertex besides itself
    (one spare, against ties that its own distances order differently); their
    lengths are recomputed with ``lp_lengths``, exactly as the event lengths
    of ``build_process`` are, and sorted.
    """
    kmax = max(ks)
    if min(ks) < 1 or kmax >= points.n:
        raise ValueError("k must be in [1, n-1]")
    pts = points.points
    _, nbrs = cKDTree(pts).query(pts, k=min(kmax + 2, points.n), p=points.p)
    lens = lp_lengths(np.abs(pts[nbrs] - pts[:, None, :]), points.p)
    lens.sort(axis=1)
    return {k: float(lens[:, k].max()) for k in ks}


def max_knn_distance(points: PointSet, k: int) -> float:
    """Max over vertices of the k-th nearest neighbour distance, which is
    the hitting radius for minimum degree k: the min-degree scan of
    ``build_process(points, max_knn_distance(points, k))`` returns exactly
    this value."""
    return _knn_radii(points, (k,))[k]


def hitting_radii(points: PointSet, K: float = 20.0, colour_seed: int = 0,
                  include_kconn: bool = True, include_rainbow: bool = False) -> HittingRadii:
    """Hitting radii of the coloured process on ``points`` (min degree and
    k-connectivity for k in {1, 2}; the exact rainbow radii too, when
    ``include_rainbow`` and n is within the oracle's limits).

    The process is built at the min-degree-2 radius and the cutoff doubled
    while a requested radius is still unreached; math.inf is reported only
    once the build covers the whole cube.  Every radius is a function of the
    event prefix, so the result is that of the build at the cube diameter.
    """
    n = points.n
    diam = cube_diameter(points.dim, points.p)
    # r = 0 when points coincide, and doubling would not grow it
    cutoff = (max_knn_distance(points, 2) if n > 2 else 0.0) or diam
    while True:
        proc = build_process(points, min(cutoff, diam), K=K, colour_seed=colour_seed)
        radii = compute_hitting_radii(proc, include_kconn=include_kconn)
        if include_rainbow:
            if n <= _oracle.HC_VERTEX_LIMIT:
                radii.rainbow_hc, _ = _oracle.exact_hitting_rainbow(proc, "hc")
            if n % 2 == 0 and n <= _oracle.PM_VERTEX_LIMIT:
                radii.rainbow_pm, _ = _oracle.exact_hitting_rainbow(proc, "pm")
        found = [*radii.min_degree.values(), *radii.kconn.values(),
                 radii.rainbow_hc, radii.rainbow_pm]
        if proc.cutoff >= diam or math.inf not in found:
            return radii
        cutoff *= 2


# -- Trial protocol -------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """What to run.  ``kind`` is 'hitting', 'build' or 'lawcheck'."""

    kind: str
    ns: tuple
    trials: int
    d: int = 2
    p: float = 2.0
    K: float = 20.0
    epsilon: float = 0.1
    master_seed: int = 0
    threads: int = 1
    modes: tuple = ("hc", "pm")
    alphas: tuple = (-1.0, 0.0, 1.0)
    include_rainbow: bool = False

    def __post_init__(self):
        if self.kind not in ("hitting", "build", "lawcheck"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        self.ns = tuple(int(x) for x in self.ns)
        self.modes = tuple(self.modes)
        self.alphas = tuple(float(a) for a in self.alphas)


@dataclass
class TrialRecord:
    """One trial's outputs.  ``wall_time`` is informational only and is
    deliberately left out of CSV/JSON so outputs stay byte-identical."""

    kind: str
    n: int
    n_index: int
    trial_index: int
    point_seed: int
    colour_seed: int
    values: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _trial_seeds(master_seed: int, n_index: int, trial_index: int):
    ss = np.random.SeedSequence([master_seed, n_index, trial_index])
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _hitting_values(config: ExperimentConfig, pts: PointSet, cseed: int) -> dict:
    radii = hitting_radii(pts, K=config.K, colour_seed=cseed,
                          include_rainbow=config.include_rainbow)
    vals = {}
    for k in (1, 2):
        vals[f"r_min_degree_{k}"] = radii.min_degree[k]
        vals[f"r_kconn_{k}"] = radii.kconn[k]
        vals[f"coincide_{k}"] = int(radii.min_degree[k] == radii.kconn[k])
    if radii.rainbow_hc is not None:
        vals["r_rainbow_hc"] = radii.rainbow_hc
        vals["rainbow_hc_hits_min_degree_2"] = int(radii.rainbow_hc == radii.min_degree[2])
    if radii.rainbow_pm is not None:
        vals["r_rainbow_pm"] = radii.rainbow_pm
        vals["rainbow_pm_hits_min_degree_1"] = int(radii.rainbow_pm == radii.min_degree[1])
    return vals


def _build_values(config: ExperimentConfig, pts: PointSet, cseed: int) -> dict:
    vals = {}
    for mode in config.modes:
        k = 2 if mode == "hc" else 1
        r_hat = max_knn_distance(pts, k)
        vals[f"r_target_{mode}"] = r_hat
        got = _builder.build_rainbow(pts, r_hat, mode=mode, epsilon=config.epsilon,
                                     K=config.K, colour_seed=cseed)
        if isinstance(got, _builder.RainbowCertificate):
            vals[f"success_{mode}"] = 1
            vals[f"radius_{mode}"] = got.radius
            vals[f"method_{mode}"] = got.method
        else:
            vals[f"success_{mode}"] = 0
            vals[f"failed_stage_{mode}"] = got.stage
    return vals


def _law_values(config: ExperimentConfig, pts: PointSet, cseed: int) -> dict:
    return {f"r_min_degree_{k}": r for k, r in _knn_radii(pts, (1, 2)).items()}


_VALUES = {
    "hitting": _hitting_values,
    "build": _build_values,
    "lawcheck": _law_values,
}


def _run_trial(job) -> TrialRecord:
    """One trial: ``job`` is (config, n_index, trial_index)."""
    config, n_index, trial_index = job
    t0 = time.perf_counter()
    n = config.ns[n_index]
    pseed, cseed = _trial_seeds(config.master_seed, n_index, trial_index)
    pts = sample_points(n, config.d, pseed, config.p)
    vals = _VALUES[config.kind](config, pts, cseed)
    return TrialRecord(kind=config.kind, n=n, n_index=n_index, trial_index=trial_index,
                       point_seed=pseed, colour_seed=cseed, values=vals,
                       wall_time=time.perf_counter() - t0)


def run_trials(config: ExperimentConfig) -> list:
    """Run every trial of the experiment; the record order and content are
    functions of the config alone, regardless of thread count."""
    jobs = [(config, ni, t) for ni in range(len(config.ns)) for t in range(config.trials)]
    if config.threads <= 1:
        return [_run_trial(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=config.threads) as pool:
        return list(pool.map(_run_trial, jobs,
                             chunksize=max(1, len(jobs) // (4 * config.threads))))


def min_degree_law_experiment(n: int, trials: int, d: int = 2, p=math.inf,
                              alphas=(-1.0, 0.0, 1.0), master_seed: int = 0,
                              threads: int = 1):
    """Empirical CDF of the min-degree hitting radii on the limit-law scale.

    Returns records plus one summary row per (k, alpha): the fraction of
    trials with the hitting radius below the offset-alpha radius
    (``"empirical"``), next to the closed-form n -> infinity limit
    (``"limit"``; matching law for k=1, cycle law for k=2) and the law at
    this n (``"at_n"``).  ``"at_n"`` is ``finite_n_cdf_pm`` for k=1, which
    keeps the slowly vanishing side-strip term at d = 2; for k=2 no
    finite-n term is derived yet and it equals ``"limit"``.
    """
    config = ExperimentConfig(kind="lawcheck", ns=(n,), trials=trials, d=d, p=p,
                              master_seed=master_seed, threads=threads,
                              alphas=alphas)
    records = run_trials(config)
    rows = []
    for k, target, law in ((1, "pm", limit_cdf_pm), (2, "hc", limit_cdf_hc)):
        key = f"r_min_degree_{k}"
        radii = np.array([rec.values[key] for rec in records])
        for alpha in config.alphas:
            r_alpha = corollary_radius(n, d, p, alpha, target)
            emp = float((radii <= r_alpha).mean())
            limit = law(alpha, d, p)
            at_n = finite_n_cdf_pm(alpha, n, d, p) if k == 1 else limit
            rows.append({"k": k, "target": target, "alpha": alpha,
                         "radius": r_alpha, "empirical": emp,
                         "limit": limit, "at_n": at_n, "trials": trials})
    return records, rows


# -- Serialization ---------------------------------------------------------------

_FIXED_COLUMNS = ("kind", "n", "n_index", "trial_index", "point_seed", "colour_seed")


def _format_cell(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return repr(x)
    return str(x)


def records_to_csv(records) -> str:
    """Flat CSV; value columns are the sorted union of per-trial keys.
    Wall time is intentionally not a column."""
    value_keys = sorted({k for rec in records for k in rec.values})
    lines = [",".join(_FIXED_COLUMNS + tuple(value_keys))]
    for rec in records:
        row = [str(getattr(rec, c)) for c in _FIXED_COLUMNS]
        for k in value_keys:
            row.append(_format_cell(rec.values[k]) if k in rec.values else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    out = []
    for rec in records:
        d = asdict(rec)
        d.pop("wall_time", None)
        out.append(json_safe(d))
    return json.dumps(out, sort_keys=True)
