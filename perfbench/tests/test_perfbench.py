"""Tests of the benchmark itself: tracer arithmetic, layer bindings, smoke
runs of every workload, and refusal to run without the package.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import rainbow_rgg  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# Each traced layer and the workload whose run must call it.
BINDINGS = {
    "geometry.sample_points": "scan-local",
    "harness.max_knn_distance": "scan-local",
    "process.build_process": "scan-local",
    "process.pair_colours": "build-engineered",
    "process.ColouredProcess.colour_of": "build-engineered",
    "process.ColouredProcess.distance_of": "build-engineered",
    "process.hitting_radius_min_degree": "hitting-complete",
    "process.hitting_radius_kconn.k1": "hitting-complete",
    "process.hitting_radius_kconn.k2": "hitting-complete",
    "tessellation.build_grid": "build-engineered",
    "tessellation.build_cell_graph": "build-engineered",
    "tessellation.classify_cells": "build-engineered",
    "tessellation.CellGraph.neighbors": "build-engineered",
    "builder.plan_ugly_paths": "build-engineered",
    "builder.colour_ugly_paths": "build-engineered",
    "builder.build_bad_forests": "build-engineered",
    "builder.build_good_cycles": "build-engineered",
    "builder.build_stitch_plan": "build-engineered",
    "builder.apply_stitch": "build-engineered",
    "builder.build_rainbow": "build-engineered",
    "hamilton.hamilton_path": "build-engineered",
    "hamilton.hamilton_cycle": "build-engineered",
    "oracle.validate_certificate": "build-engineered",
    "oracle.exact_hitting_rainbow": "oracle-small",
    "oracle.exact_rainbow_hamilton_cycle": "oracle-small",
    "oracle.exact_rainbow_perfect_matching": "oracle-small",
}


def bench_run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    done = subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, timeout=300, cwd=cwd)
    return done


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            done = bench_run(workload, trace)
            assert done.returncode == 0, done.stderr
            out[workload, trace] = json.loads(done.stdout.splitlines()[-1])
    return out


def test_self_time_and_coverage_on_a_nested_tree():
    # request [0, 10] holds a [1, 5], which holds b [2, 3], and c [6, 9].
    tree = [("request", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 2.0, 3.0, 1),
            ("c", 6.0, 9.0, 0), ("request", 20.0, 30.0, -1), ("a", 21.0, 26.0, 4)]
    stats, coverage = spans.summarise(tree)
    assert stats["a"] == {"calls": 2, "total_s": 9.0, "self_s": 8.0}
    assert stats["b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert stats["c"]["self_s"] == 3.0
    assert "request" not in stats
    assert coverage == pytest.approx((4.0 + 3.0 + 5.0) / 20.0)


def test_tail_is_p99_lowered_to_ten_beyond_or_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, percentile, beyond = run.tail([float(i) for i in range(1, 27)])
    assert (value, beyond) == (16.0, 10)
    assert percentile == pytest.approx(100 * 16 / 26)
    assert run.tail([float(i) for i in range(1, 6001)]) == (5940.0, 99.0, 60)


def test_request_count_follows_the_nominal_rate_not_the_clock():
    import workloads
    counts = {name: run.request_count(cls(False), 20) for name, cls in workloads.WORKLOADS.items()}
    assert counts == {"hitting-complete": 7, "scan-local": 6, "build-engineered": 26,
                      "oracle-small": 6000}
    assert all(run.request_count(cls(False), 0.001) == 1 for cls in workloads.WORKLOADS.values())


def test_tracer_records_only_inside_requests():
    tracer = spans.Tracer()
    with spans.installed(rainbow_rgg, tracer):
        pts = rainbow_rgg.sample_points(20, 2, 0)
        assert tracer.names == []
        with tracer.request():
            rainbow_rgg.harness.max_knn_distance(pts, 1)
    assert tracer.names == ["request", "harness.max_knn_distance"]
    assert tracer.parents == [-1, 0]


def test_every_binding_is_wrapped_and_restored():
    originals = {}
    for module, attr in spans.TARGETS:
        owner = sys.modules[f"rainbow_rgg.{module}"]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals[f"{module}.{attr}"] = owner.__dict__[leaf]
    modules = [m for k, m in sys.modules.items() if k.startswith("rainbow_rgg")]

    def bindings():
        return {name: [(m.__name__, k) for m in modules for k, v in vars(m).items() if v is fn]
                for name, fn in originals.items()}

    before = bindings()
    assert before["process.build_process"]  # bound in several modules
    with spans.installed(rainbow_rgg, spans.Tracer()):
        assert all(not sites for sites in bindings().values())
        assert rainbow_rgg.CellGraph.neighbors is not originals["tessellation.CellGraph.neighbors"]
    assert bindings() == before
    assert rainbow_rgg.CellGraph.neighbors is originals["tessellation.CellGraph.neighbors"]


def test_benchmark_json_matches_the_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_smoke_runs_emit_every_metric_with_its_unit(results):
    layer_units = run.per_layer_units()
    for (workload, trace), res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["attempted"] >= 1
        expected = run.END_TO_END if trace == 0 else layer_units
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected, workload
        if trace == 0:
            assert all(v["value"] > 0 for v in res["metrics"].values()), workload


def test_every_layer_is_called_on_its_workload(results):
    assert set(BINDINGS) == set(spans.span_names())
    for name, workload in BINDINGS.items():
        assert results[workload, 1]["metrics"][name + ".calls"]["value"] > 0, name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench_run("oracle-small", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
