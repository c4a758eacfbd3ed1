"""Command line front end, driven in-process through main(argv).

Every subcommand runs on a tiny input; outputs land in tmp_path and are
parsed back to check they are what the library itself would produce.
"""

import json
import math

import pytest

from rainbow_rgg import (
    build_process,
    load_points,
    sample_points,
    validate_certificate,
)
from rainbow_rgg.cli import build_parser, main

from conftest import read_events_csv


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("simulate", "hitting", "build", "oracle", "experiment", "lawcheck"):
        assert cmd in text


def test_simulate_writes_events_and_points(tmp_path):
    out = tmp_path / "events.csv"
    pts_out = tmp_path / "points.csv"
    rc = main(["simulate", "--n", "12", "--seed", "3", "--cutoff", "0.5",
               "--out", str(out), "--points-out", str(pts_out)])
    assert rc == 0
    ii, jj, ll, cc = read_events_csv(out)
    assert len(ii) > 0
    assert all(l <= 0.5 for l in ll)
    pts = load_points(pts_out)
    assert pts.n == 12
    # events match a process rebuilt from the saved points
    proc = build_process(pts, cutoff=0.5, K=20.0, colour_seed=4)
    assert proc.m == len(ii)
    assert proc.colour_of(int(ii[0]), int(jj[0])) == int(cc[0])


def test_simulate_exact_colour_count(tmp_path, capsys):
    rc = main(["simulate", "--n", "8", "--colours", "5", "--cutoff", "1.0"])
    assert rc == 0
    text = capsys.readouterr().out
    rows = text.strip().splitlines()[1:]
    assert rows
    assert all(1 <= int(r.split(",")[3]) <= 5 for r in rows)


def test_hitting_radii_json(tmp_path):
    out = tmp_path / "radii.json"
    rc = main(["hitting", "--n", "30", "--seed", "1", "--out", str(out)])
    assert rc == 0
    hr = json.loads(out.read_text())
    assert hr["kconn"]["1"] >= hr["min_degree"]["1"]
    assert hr["rainbow_hc"] is None


def test_hitting_with_rainbow(capsys):
    rc = main(["hitting", "--n", "8", "--seed", "2", "--rainbow"])
    assert rc == 0
    hr = json.loads(capsys.readouterr().out)
    assert hr["rainbow_hc"] >= hr["min_degree"]["2"]
    assert hr["rainbow_pm"] >= hr["min_degree"]["1"]


def test_build_small_instance_succeeds(tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["build", "--n", "10", "--seed", "3", "--out", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["ok"] is True
    assert cert["mode"] == "hc"
    # re-derive the process exactly as the CLI does and validate
    pts = sample_points(10, 2, 3, 2.0)
    proc = build_process(pts, cutoff=cert["target_radius"], K=20.0, colour_seed=4)
    assert validate_certificate(cert, proc) == []


def test_build_failure_exit_code(tmp_path):
    out = tmp_path / "fail.json"
    rc = main(["build", "--n", "10", "--seed", "4", "--radius", "0.01",
               "--out", str(out)])
    assert rc == 1
    failure = json.loads(out.read_text())
    assert failure["ok"] is False
    assert failure["failed_stage"]


def test_build_from_points_file(tmp_path):
    src = tmp_path / "pts.csv"
    main(["simulate", "--n", "12", "--seed", "7", "--cutoff", "0.1",
          "--out", str(tmp_path / "ev.csv"), "--points-out", str(src)])
    out = tmp_path / "cert.json"
    rc = main(["build", "--points-file", str(src), "--mode", "pm", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["mode"] == "pm"
    assert len(cert["edges"]) == 6


def test_oracle_instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("3 3\n1 2 1\n2 3 2\n1 3 3\n")
    out = tmp_path / "ans.json"
    rc = main(["oracle", "--instance", str(path), "--target", "hc",
               "--out", str(out)])
    assert rc == 0
    ans = json.loads(out.read_text())
    assert ans["feasible"] is True
    assert len(ans["witness"]) == 3


def test_oracle_instance_infeasible(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("3 3\n1 2 1\n2 3 1\n1 3 1\n")
    rc = main(["oracle", "--instance", str(path), "--target", "hc",
               "--out", str(tmp_path / "ans.json")])
    assert rc == 1


def test_oracle_hitting_on_process(capsys):
    rc = main(["oracle", "--n", "8", "--seed", "5", "--target", "pm", "--hitting"])
    assert rc == 0
    ans = json.loads(capsys.readouterr().out)
    assert ans["target"] == "pm"
    assert isinstance(ans["radius"], float) or ans["radius"] == "inf"
    if ans["radius"] != "inf":
        assert len(ans["witness"]) == 4


def test_experiment_writes_csv_and_json(tmp_path):
    prefix = tmp_path / "exp"
    rc = main(["experiment", "--kind", "hitting", "--ns", "10,15",
               "--trials", "2", "--seed", "9", "--out", str(prefix)])
    assert rc == 0
    csv_text = (tmp_path / "exp.csv").read_text()
    rows = csv_text.strip().splitlines()
    assert len(rows) == 5  # header + 2 sizes x 2 trials
    raw = json.loads((tmp_path / "exp.json").read_text())
    assert len(raw) == 4
    assert {rec["n"] for rec in raw} == {10, 15}


def test_experiment_deterministic_across_threads(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["experiment", "--kind", "hitting", "--ns", "12", "--trials", "4",
          "--seed", "2", "--threads", "1", "--out", str(a)])
    main(["experiment", "--kind", "hitting", "--ns", "12", "--trials", "4",
          "--seed", "2", "--threads", "2", "--out", str(b)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_threads_only_on_trial_subcommands(capsys):
    """--threads belongs to experiment and lawcheck; elsewhere argparse
    rejects it instead of ignoring it."""
    with pytest.raises(SystemExit) as err:
        main(["hitting", "--n", "5", "--threads", "2"])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err
    for argv in (["experiment", "--kind", "hitting", "--ns", "5", "--trials", "1"],
                 ["lawcheck", "--n", "5", "--trials", "1"]):
        assert build_parser().parse_args(argv + ["--threads", "2"]).threads == 2


def test_lawcheck_summary(tmp_path):
    out = tmp_path / "law.json"
    rc = main(["lawcheck", "--n", "200", "--trials", "3", "--alphas", "0",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    ans = json.loads(out.read_text())
    assert ans["n"] == 200
    assert ans["p"] == "inf"
    assert len(ans["rows"]) == 2  # one alpha, two targets
    assert (tmp_path / "law.json.csv").exists()


def test_missing_required_input_errors():
    with pytest.raises(SystemExit):
        main(["build"])
    with pytest.raises(SystemExit):
        main(["oracle"])


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--n", "0"], "need n >= 1"),
    (["build", "--n", "200", "--radius", "nan"], "cutoff must be nonnegative"),
    (["oracle", "--n", "30", "--target", "hc"], "instance has 30 > 14 vertices"),
    (["lawcheck", "--n", "200", "--trials", "0"], "trials must be at least 1, got 0"),
    (["experiment", "--kind", "hitting", "--ns", ",", "--trials", "2"],
     "ns must name at least one size"),
    (["experiment", "--kind", "build", "--ns", "30", "--trials", "1", "--modes", ","],
     "modes must be 'hc' or 'pm', got ()"),
])
def test_refused_input_is_a_usage_error(argv, message, capsys):
    """Input the library refuses exits 2 with one argparse error line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"rainbow-rgg: error: {message}"
    assert "Traceback" not in captured.err
