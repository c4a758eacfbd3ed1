"""Benchmark of the rainbow_rgg toolkit: four workloads, one request at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each run serves requests of one workload in a closed loop (one client, no
worker pool) and checks every output outside the timed region.  The number of
requests is fixed by ``--seconds`` and the workload's nominal request rate
(``requests_per_s``, measured on a 2-vCPU Xeon host), not by the clock, so a
seed always gives the same requests, outputs and failure count.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it serves
the requests of half the time untraced, replays the same requests with every
layer wrapped, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process and prints a table.
"""

import os

# Pinned before numpy is imported, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("hitting-complete", "scan-local", "build-engineered", "oracle-small")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 900

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_p50_s": "s",
    "trial_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in table order."""
    units = {}
    for name in spans.span_names():
        units[name + ".self_s"] = "s"
        units[name + ".calls"] = "count"
    units["process.build_process.events"] = "count"
    units["process.pair_colours.pairs"] = "count"
    units["builder.build_rainbow.certified"] = "count"
    for stage in spans.BUILD_STAGES:
        units[f"builder.build_rainbow.failed.{stage}"] = "count"
    units["trace.coverage"] = "fraction"
    units["trace.overhead"] = "ratio"
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced problem sizes, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the setup_s samples)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import rainbow_rgg from this checkout's src/, never from elsewhere."""
    if not (SRC / "rainbow_rgg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rainbow_rgg package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rainbow_rgg
    where = Path(rainbow_rgg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: imported rainbow_rgg from {where}, not from {SRC}")
    return rainbow_rgg


# -- Run record ------------------------------------------------------------------

def _proc_field(path: str, key: str):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- Serving and checking ----------------------------------------------------------

class Served:
    """What one pass over the requests leaves behind once each output is
    checked: durations, problems, the digest and the certificate count."""

    def __init__(self, workload):
        self.workload = workload
        self.inputs, self.durations, self.problems = [], [], []
        self.raised = self.certified = 0
        self._digest = hashlib.sha256()

    def add(self, inp, out, err, duration):
        """Check one output outside the timed region; a raised request or a
        raising check counts as a failed request."""
        if err is None:
            try:
                problems = self.workload.check(inp, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [err]
            self.raised += 1
        if len(self.inputs) < self.workload.digest_requests:
            text = err if err is not None else self.workload.serialise(out)
            self._digest.update(text.encode() + b"\n")
        if not problems and hasattr(self.workload, "certified"):
            self.certified += self.workload.certified(out)
        self.inputs.append(inp)
        self.durations.append(duration)
        self.problems.append(problems)

    @property
    def digest(self) -> tuple[str, int]:
        """sha256 over the first ``digest_requests`` outputs, and their count."""
        return (self._digest.hexdigest(),
                min(len(self.inputs), self.workload.digest_requests))

    @property
    def failed(self) -> int:
        return sum(bool(p) for p in self.problems)


def request_count(workload, seconds: float) -> int:
    """Requests in a run of ``seconds`` at the workload's nominal rate."""
    return max(1, round(seconds * workload.requests_per_s))


def serve(workload, make_input, count: int, tracer=None) -> Served:
    """Closed loop: ``count`` requests, one at a time.  Inputs are made and
    outputs checked between requests, outside the timed region."""
    served = Served(workload)
    for index in range(count):
        inp = make_input(index)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(inp)
            else:
                with tracer.request():
                    out = workload.run(inp)
            err = None
        except Exception as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        served.add(inp, out, err, time.perf_counter() - t0)
    return served


TAIL_PERCENT = 99
TAIL_BEYOND = 10


def tail(durations) -> tuple[float, float, int]:
    """The nearest-rank p99 of the durations, lowered until at least
    ``TAIL_BEYOND`` requests lie beyond it, or the maximum when there are too
    few requests: (value, percentile, requests beyond it).  The tail is
    capped at p99 because the rank with only ten requests beyond it spread
    by a quarter between seeds on oracle-small, which has a heavy tail."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = min(-(-TAIL_PERCENT * n // 100), n - TAIL_BEYOND) if n > TAIL_BEYOND else n
    value = ordered[rank - 1]
    return value, 100.0 * rank / n, sum(d > value for d in ordered)


def setup_samples(args, first: float) -> list:
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_one(args, t_start: float) -> int:
    rr = import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.smoke)
    first_input = workload.make_input(args.seed, 0)
    setup_first = time.perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    print("perfbench record: " + json.dumps(run_record(args), sort_keys=True))
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    served = serve(workload,
                   lambda i: first_input if i == 0 else workload.make_input(args.seed, i),
                   request_count(workload, seconds))
    runs = [served]
    correct = True

    if args.trace == 0:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = setup_samples(args, setup_first)
        durations = served.durations
        value, percentile, beyond = tail(durations)
        metrics = {
            "trials_per_s": (len(durations) - served.raised) / sum(durations),
            "trial_p50_s": statistics.median(durations),
            "trial_tail_s": value,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        print(f"perfbench {args.workload}: trial_tail_s is p{percentile:.4g} of "
              f"{len(durations)} requests ({beyond} beyond it); setup_s is the median of "
              f"{len(setup)} set-ups")
        OUT_DIR.mkdir(exist_ok=True)
        times_file = OUT_DIR / f"requests-{args.workload}-seed{args.seed}.json"
        times_file.write_text(json.dumps({"durations_s": durations, "setup_s": setup}))
        print(f"perfbench {args.workload}: request times written to "
              f"{times_file.relative_to(ROOT)}")
    else:
        tracer = spans.Tracer()
        with spans.installed(rr, tracer):
            traced = serve(workload, served.inputs.__getitem__, len(served.inputs), tracer)
        runs.append(traced)
        if traced.digest != served.digest:
            correct = False
            print("perfbench: traced outputs differ from untraced outputs", file=sys.stderr)
        stats, coverage = spans.summarise(tracer.spans())
        units = per_layer_units()
        metrics = {name: 0 for name in units}
        for name, entry in stats.items():
            metrics[name + ".self_s"] = entry["self_s"]
            metrics[name + ".calls"] = entry["calls"]
        metrics.update(tracer.counts)
        metrics["trace.coverage"] = coverage
        metrics["trace.overhead"] = sum(traced.durations) / sum(served.durations)
        largest = max(stats, key=lambda name: stats[name]["self_s"])
        print(f"perfbench {args.workload}: largest span {largest} (self "
              f"{stats[largest]['self_s']:.3f} s of {sum(traced.durations):.3f} s traced)")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(span_file)
        print(f"perfbench {args.workload}: {len(tracer.names)} spans written to "
              f"{span_file.relative_to(ROOT)}")

    attempted = sum(len(r.problems) for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for idx, plist in enumerate(r.problems):
            for p in plist[:3]:
                print(f"perfbench {args.workload}: request {idx} failed: {p}", file=sys.stderr)
    print(f"perfbench {args.workload}: failed_frac = {failed}/{attempted} = "
          f"{failed / attempted:.4f} (base: {attempted} attempted requests)")
    if hasattr(workload, "certified"):
        builds = len(workload.modes) * len(served.inputs)
        print(f"perfbench {args.workload}: certified_frac = {served.certified}/{builds} = "
              f"{served.certified / builds:.4f} (base: {builds} build attempts)")
    sha, covered = served.digest
    print(f"perfbench {args.workload}: digest sha256:{sha} over the first {covered} outputs")
    for name, value in metrics.items():
        print(f"perfbench {args.workload}: {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {done.returncode}")
        results[name] = json.loads(done.stdout.splitlines()[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    width = max(len(n) for n in names + ["failed/attempted"])
    print(f"{'metric':<{width}}  unit      " + "  ".join(f"{n:>16}" for n in results))
    for metric in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        cells = "  ".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values())
        print(f"{metric:<{width}}  {unit:<8}  {cells}")
    failed = "  ".join(f"{r['failed']:>7}/{r['attempted']:<8}" for r in results.values())
    print(f"{'failed/attempted':<{width}}  {'count':<8}  {failed}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{metric}": entry for wl, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, t_start)


if __name__ == "__main__":
    sys.exit(main())
