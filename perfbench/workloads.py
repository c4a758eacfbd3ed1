"""The four benchmark workloads.

Each workload turns the workload seed and a request index into that
request's input (``make_input``), serves one input through the package's
public functions the CLI subcommands wrap (``run``), checks one output
outside the timed region (``check``, which returns a list of problems), and
serialises one output for the digest (``serialise``).  The first
``digest_requests`` outputs go into the digest, so that runs of one seed are
comparable.  ``requests_per_s`` is the workload's nominal request rate on
a 2-vCPU Xeon host; a run serves ``--seconds`` times that many requests, so
the requests of a seed do not depend on the host's speed.  Every package
function is looked up through its module at call time, so the traced run
sees each call.

Why each workload exists:

- hitting-complete: the O(n^2) complete-graph path of ``experiment --kind
  hitting``; enumeration, bulk colouring, sort and the k-connectivity scans
  dominate and memory peaks here.
- scan-local: the front half of ``experiment --kind build`` / ``build``
  without ``--radius`` at p = 3, where the k-NN and event-list length paths
  can disagree in the last ulp; enumeration at a local cutoff dominates.
- build-engineered: the staged builder on the engineered hole clouds, the
  only input on which all six stages succeed; cell-graph neighbour lists
  and scalar colour lookups dominate.
- oracle-small: CLI ``hitting --rainbow`` at n = 10; the exponential exact
  search and its prefix bisection dominate.  At n = 12 the slowest 1% of
  requests took 31% of the time, so requests per second spread by 29%
  between seeds; at n = 10 they take 10%.
"""

from __future__ import annotations

import json
import math

import numpy as np

import rainbow_rgg as rr

K = 20.0


def request_seeds(seed: int, index: int) -> tuple[int, int]:
    """Two 64-bit seeds for request ``index`` of a run with ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


class HittingComplete:
    """One ``experiment --kind hitting`` trial: the process at the cube
    diameter, min-degree radii for k in {1, 2} and k-connectivity radii."""

    name = "hitting-complete"
    d, p = 2, 2.0
    digest_requests = 4
    requests_per_s = 1 / 3  # 7 requests in 20 s

    def __init__(self, smoke: bool):
        self.n = 150 if smoke else 1500

    def make_input(self, seed: int, index: int):
        return request_seeds(seed, index)[0]

    def run(self, master_seed):
        config = rr.harness.ExperimentConfig(kind="hitting", ns=(self.n,), trials=1,
                                             d=self.d, p=self.p, K=K,
                                             master_seed=master_seed)
        return rr.harness.run_trials(config)

    def check(self, master_seed, records) -> list[str]:
        (rec,) = records
        pts = rr.geometry.sample_points(self.n, self.d, rec.point_seed, self.p)
        problems = []
        for k in (1, 2):
            scan = rec.values[f"r_min_degree_{k}"]
            knn = rr.harness.max_knn_distance(pts, k)
            if scan != knn:
                problems.append(f"min-degree-{k} radius {scan!r} != k-NN radius {knn!r}")
            kconn = rec.values[f"r_kconn_{k}"]
            if not (math.isfinite(kconn) and kconn >= scan):
                problems.append(f"{k}-connectivity radius {kconn!r} below {scan!r} or infinite")
        return problems

    def serialise(self, records) -> str:
        return rr.harness.records_to_json(records)


class ScanLocal:
    """k-NN radii, the process at cutoff r2 and the hitting scans at p = 3."""

    name = "scan-local"
    d, p = 2, 3.0
    digest_requests = 4
    requests_per_s = 0.29  # 6 requests in 20 s

    def __init__(self, smoke: bool):
        self.n = 3000 if smoke else 50_000

    def make_input(self, seed: int, index: int):
        return request_seeds(seed, index)

    def run(self, seeds):
        point_seed, colour_seed = seeds
        pts = rr.geometry.sample_points(self.n, self.d, point_seed, self.p)
        r_hat = {k: rr.harness.max_knn_distance(pts, k) for k in (1, 2)}
        proc = rr.process.build_process(pts, r_hat[2], K=K, colour_seed=colour_seed)
        radii = rr.process.compute_hitting_radii(proc)
        return {"r_hat": r_hat, "events": proc.m, "radii": radii}

    def check(self, seeds, out) -> list[str]:
        return [f"min-degree-{k} scan radius {out['radii'].min_degree[k]!r} != "
                f"k-NN radius {r!r}"
                for k, r in out["r_hat"].items() if out["radii"].min_degree[k] != r]

    def serialise(self, out) -> str:
        return json.dumps({"r_hat": {str(k): v for k, v in out["r_hat"].items()},
                           "events": out["events"],
                           "radii": json.loads(rr.process.hitting_radii_to_json(out["radii"]))},
                          sort_keys=True)


def engineered_points(seed, m=11, per_cell=6, hole=(4, 7), centre=(5, 5),
                      centre_pts=2, ring_pts=0):
    """The clustered cloud of the test suite's ``engineered_points`` fixture:
    an m x m grid of cells with ``per_cell`` jittered points each, around a
    square hole whose centre cell holds ``centre_pts`` points and whose ring
    cells hold ``ring_pts`` each."""
    rng = np.random.default_rng(seed)
    s = 1.0 / m
    pts = []
    for i in range(m):
        for j in range(m):
            in_hole = hole[0] <= i < hole[1] and hole[0] <= j < hole[1]
            if (i, j) == centre:
                k = centre_pts
            elif in_hole:
                k = ring_pts
            else:
                k = per_cell
            base = np.array([i * s, j * s])
            for _ in range(k):
                pts.append(base + s * (0.1 + 0.8 * rng.random(2)))
    return rr.PointSet(np.array(pts), seed=seed)


class BuildEngineered:
    """``build_rainbow`` in modes hc and pm on an engineered hole cloud whose
    ring cells hold 0, 1 or 2 points, cycled by request."""

    name = "build-engineered"
    grid_radius, radius, epsilon = 0.45, 0.30, 0.0148
    modes = ("hc", "pm")
    digest_requests = 16
    requests_per_s = 1.3  # 26 requests in 20 s

    def __init__(self, smoke: bool):
        pass  # already small; the smoke size is the full size

    def make_input(self, seed: int, index: int):
        jitter_seed, colour_seed = request_seeds(seed, index)
        return engineered_points(jitter_seed, ring_pts=index % 3), colour_seed

    def run(self, inp):
        pts, colour_seed = inp
        return [rr.builder.build_rainbow(pts, self.radius, mode=mode, epsilon=self.epsilon,
                                         K=K, colour_seed=colour_seed,
                                         grid_radius=self.grid_radius)
                for mode in self.modes]

    def check(self, inp, results) -> list[str]:
        pts, colour_seed = inp
        proc = rr.process.build_process(pts, self.radius, K=K, colour_seed=colour_seed)
        problems = []
        for got in results:
            if not isinstance(got, rr.builder.RainbowCertificate):
                continue
            problems += [f"{got.mode}: {p}"
                         for p in rr.oracle.validate_certificate(got.to_dict(), proc)]
            if got.radius > self.radius:
                problems.append(f"{got.mode}: radius {got.radius!r} above target {self.radius}")
        return problems

    def serialise(self, results) -> str:
        return "\n".join(got.to_json() for got in results)

    @staticmethod
    def certified(results) -> int:
        """Certificates among one request's build attempts."""
        return sum(isinstance(got, rr.builder.RainbowCertificate) for got in results)


class OracleSmall:
    """CLI ``hitting --rainbow``: the process at the cube diameter, the
    hitting radii and the exact rainbow hitting radii for hc and pm."""

    name = "oracle-small"
    d, p = 2, 2.0
    digest_requests = 256
    requests_per_s = 300  # 6000 requests in 20 s

    def __init__(self, smoke: bool):
        self.n = 8 if smoke else 10

    def make_input(self, seed: int, index: int):
        return request_seeds(seed, index)

    def run(self, seeds):
        point_seed, colour_seed = seeds
        pts = rr.geometry.sample_points(self.n, self.d, point_seed, self.p)
        proc = rr.process.build_process(pts, cutoff=rr.geometry.cube_diameter(self.d, self.p),
                                        K=K, colour_seed=colour_seed)
        radii = rr.process.compute_hitting_radii(proc)
        radii.rainbow_hc, hc = rr.oracle.exact_hitting_rainbow(proc, "hc")
        radii.rainbow_pm, pm = rr.oracle.exact_hitting_rainbow(proc, "pm")
        return {"process": proc, "radii": radii, "witness": {"hc": hc, "pm": pm}}

    def check(self, seeds, out) -> list[str]:
        proc, radii = out["process"], out["radii"]
        problems = []
        for mode, k, radius in (("hc", 2, radii.rainbow_hc), ("pm", 1, radii.rainbow_pm)):
            if radius < radii.min_degree[k]:
                problems.append(f"{mode}: rainbow radius {radius!r} below "
                                f"min-degree-{k} radius {radii.min_degree[k]!r}")
            witness = out["witness"][mode]
            if witness is None:
                continue
            cert = {"mode": mode, "radius": radius,
                    "edges": [(i + 1, j + 1, c, proc.distance_of(i, j)) for i, j, c in witness]}
            problems += [f"{mode}: {p}" for p in rr.oracle.validate_certificate(cert, proc)]
        return problems

    def serialise(self, out) -> str:
        return json.dumps({"radii": json.loads(rr.process.hitting_radii_to_json(out["radii"])),
                           "witness": out["witness"]}, sort_keys=True)


WORKLOADS = {cls.name: cls for cls in (HittingComplete, ScanLocal, BuildEngineered, OracleSmall)}
