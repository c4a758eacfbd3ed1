"""Command line front end.

Subcommands: simulate, hitting, build, oracle, experiment, lawcheck.
Every subcommand accepts --seed and --out; results go to stdout unless
--out names a file (experiment writes <out>.csv and <out>.json).  The two
that run many trials, experiment and lawcheck, also take --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .geometry import cube_diameter, json_safe, sample_points, save_points, load_points
from .process import build_process, events_csv_text, hitting_radii_to_json
from . import builder as _builder
from . import harness as _harness
from . import oracle as _oracle


def _common() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master PRNG seed")
    common.add_argument("--out", type=str, default=None, help="output file (or prefix)")
    return common


def _norm(value: str) -> float:
    if value in ("inf", "Inf", "INF", "oo"):
        return math.inf
    return float(value)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    common = _common()
    top = argparse.ArgumentParser(prog="rainbow-rgg",
                                  description="Coloured random geometric graph toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", parents=[common],
                        help="sample points and list the coloured edge events")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--d", type=int, default=2)
    ps.add_argument("--p", type=_norm, default=2.0)
    ps.add_argument("--K", type=float, default=20.0, help="colours per vertex")
    ps.add_argument("--colours", type=int, default=None, help="exact colour count (overrides --K)")
    ps.add_argument("--cutoff", type=float, default=None, help="largest edge length to reveal")
    ps.add_argument("--points-out", type=str, default=None, help="also save the point set here")

    ph = sub.add_parser("hitting", parents=[common],
                        help="hitting radii for degree, connectivity and rainbow properties")
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--d", type=int, default=2)
    ph.add_argument("--p", type=_norm, default=2.0)
    ph.add_argument("--K", type=float, default=20.0)
    ph.add_argument("--no-kconn", action="store_true", help="skip connectivity radii")
    ph.add_argument("--rainbow", action="store_true",
                    help="include exact rainbow hitting radii (small n only)")

    pb = sub.add_parser("build", parents=[common],
                        help="run the staged rainbow builder and print the certificate")
    pb.add_argument("--n", type=int, default=None)
    pb.add_argument("--points-file", type=str, default=None,
                    help="load points instead of sampling")
    pb.add_argument("--d", type=int, default=2)
    pb.add_argument("--p", type=_norm, default=2.0)
    pb.add_argument("--K", type=float, default=20.0)
    pb.add_argument("--epsilon", type=float, default=0.1)
    pb.add_argument("--mode", choices=("hc", "pm"), default="hc")
    pb.add_argument("--radius", type=float, default=None,
                    help="target radius (default: min-degree hitting radius for the mode)")

    po = sub.add_parser("oracle", parents=[common],
                        help="exact search on a small instance or coloured process")
    po.add_argument("--instance", type=str, default=None,
                    help="instance file: 'n m' header then 'i j colour [length]' rows")
    po.add_argument("--n", type=int, default=None, help="sample a process instead")
    po.add_argument("--d", type=int, default=2)
    po.add_argument("--p", type=_norm, default=2.0)
    po.add_argument("--colours", type=int, default=None)
    po.add_argument("--K", type=float, default=20.0)
    po.add_argument("--target", choices=("hc", "pm"), default="hc")
    po.add_argument("--hitting", action="store_true",
                    help="report the exact rainbow hitting radius (process input only)")

    pe = sub.add_parser("experiment", parents=[common],
                        help="Monte Carlo experiment over several sizes")
    pe.add_argument("--kind", choices=("hitting", "build"), required=True)
    pe.add_argument("--ns", type=str, required=True, help="comma-separated sizes")
    pe.add_argument("--trials", type=int, required=True)
    pe.add_argument("--d", type=int, default=2)
    pe.add_argument("--p", type=_norm, default=2.0)
    pe.add_argument("--K", type=float, default=20.0)
    pe.add_argument("--epsilon", type=float, default=0.1)
    pe.add_argument("--modes", type=str, default="hc,pm")
    pe.add_argument("--rainbow", action="store_true")
    pe.add_argument("--threads", type=int, default=1, help="worker processes")

    pl = sub.add_parser("lawcheck", parents=[common],
                        help="empirical min-degree law against the limit distributions")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--trials", type=int, required=True)
    pl.add_argument("--d", type=int, default=2)
    pl.add_argument("--p", type=_norm, default=math.inf)
    pl.add_argument("--alphas", type=str, default="-1,0,1")
    pl.add_argument("--threads", type=int, default=1, help="worker processes")
    return top


def _cmd_simulate(args) -> int:
    pts = sample_points(args.n, args.d, args.seed, args.p)
    cutoff = args.cutoff if args.cutoff is not None else cube_diameter(args.d, args.p)
    proc = build_process(pts, cutoff=cutoff,
                         K=None if args.colours else args.K,
                         n_colours=args.colours, colour_seed=args.seed + 1)
    if args.points_out:
        save_points(args.points_out, pts)
    _emit(events_csv_text(proc), args.out)
    return 0


def _cmd_hitting(args) -> int:
    pts = sample_points(args.n, args.d, args.seed, args.p)
    radii = _harness.hitting_radii(pts, K=args.K, colour_seed=args.seed + 1,
                                   include_kconn=not args.no_kconn,
                                   include_rainbow=args.rainbow)
    _emit(hitting_radii_to_json(radii), args.out)
    return 0


def _cmd_build(args) -> int:
    if args.points_file:
        pts = load_points(args.points_file)
    elif args.n is not None:
        pts = sample_points(args.n, args.d, args.seed, args.p)
    else:
        raise SystemExit("build needs --n or --points-file")
    radius = args.radius
    if radius is None:
        radius = _harness.max_knn_distance(pts, 2 if args.mode == "hc" else 1)
    got = _builder.build_rainbow(pts, radius, mode=args.mode, epsilon=args.epsilon,
                                 K=args.K, colour_seed=args.seed + 1)
    _emit(got.to_json(), args.out)
    return 0 if isinstance(got, _builder.RainbowCertificate) else 1


def _cmd_oracle(args) -> int:
    if args.instance:
        with open(args.instance) as fh:
            inst = _oracle.instance_from_text(fh.read())
        if args.target == "hc":
            witness = _oracle.exact_rainbow_hamilton_cycle(inst)
        else:
            witness = _oracle.exact_rainbow_perfect_matching(inst)
        payload = {"target": args.target, "n": inst.n, "feasible": witness is not None,
                   "witness": [[i + 1, j + 1, c] for (i, j, c) in witness] if witness else None}
        _emit(json.dumps(payload, sort_keys=True), args.out)
        return 0 if witness is not None else 1
    if args.n is None:
        raise SystemExit("oracle needs --instance or --n")
    pts = sample_points(args.n, args.d, args.seed, args.p)
    proc = build_process(pts, cutoff=cube_diameter(args.d, args.p),
                         K=None if args.colours else args.K,
                         n_colours=args.colours, colour_seed=args.seed + 1)
    if args.hitting:
        radius, witness = _oracle.exact_hitting_rainbow(proc, args.target)
        payload = {"target": args.target, "n": args.n, "radius": radius,
                   "witness": [[i + 1, j + 1, c] for (i, j, c) in witness] if witness else None}
    else:
        witness = _oracle.rainbow_witness_at(proc, proc.cutoff, args.target)
        payload = {"target": args.target, "n": args.n, "feasible": witness is not None,
                   "witness": [[i + 1, j + 1, c] for (i, j, c) in witness] if witness else None}
    _emit(json.dumps(json_safe(payload), sort_keys=True), args.out)
    return 0


def _cmd_experiment(args) -> int:
    ns = tuple(int(x) for x in args.ns.split(",") if x)
    modes = tuple(m for m in args.modes.split(",") if m)
    config = _harness.ExperimentConfig(kind=args.kind, ns=ns, trials=args.trials,
                                       d=args.d, p=args.p, K=args.K,
                                       epsilon=args.epsilon,
                                       master_seed=args.seed, threads=args.threads,
                                       modes=modes, include_rainbow=args.rainbow)
    records = _harness.run_trials(config)
    csv_text = _harness.records_to_csv(records)
    json_text = _harness.records_to_json(records)
    if args.out:
        with open(args.out + ".csv", "w") as fh:
            fh.write(csv_text)
        with open(args.out + ".json", "w") as fh:
            fh.write(json_text)
        sys.stdout.write(f"wrote {args.out}.csv and {args.out}.json ({len(records)} trials)\n")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_lawcheck(args) -> int:
    alphas = tuple(float(x) for x in args.alphas.split(",") if x)
    records, rows = _harness.min_degree_law_experiment(
        args.n, args.trials, d=args.d, p=args.p, alphas=alphas,
        master_seed=args.seed, threads=args.threads)
    payload = {"n": args.n, "trials": args.trials, "d": args.d, "p": args.p, "rows": rows}
    text = json.dumps(json_safe(payload), sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".csv", "w") as fh:
            fh.write(_harness.records_to_csv(records))
        sys.stdout.write(f"wrote {args.out} and {args.out}.csv\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "hitting": _cmd_hitting,
    "build": _cmd_build,
    "oracle": _cmd_oracle,
    "experiment": _cmd_experiment,
    "lawcheck": _cmd_lawcheck,
}


def main(argv=None) -> int:
    """Run one subcommand.  Input the library refuses (a ValueError) is a
    usage error, as a bad flag is: argparse's usage and error lines on
    stderr, exit code 2, no traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
