"""Command-line interface.

Subcommands: simulate, optimize, membership, oracle, gen.  Exit codes:
0 success, 2 malformed input, 3 numerical failure, 4 oracle disagreement.
The resolved configuration (defaults filled in) is echoed to stderr before
any work runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .adversarial import BRUTE_FORCE_MAX_N, is_tc_adversarial, is_tc_adversarial_bruteforce
from .architecture import DEFAULT_Z0, parse_arch
from .channel import Rng, read_channel_json, write_channel_json
from .errors import InputError, NumericalFailure
from .experiment import (
    DEFAULT_SIZES,
    DEFAULT_TRIALS,
    SCENARIO_TABLE,
    SCENARIOS,
    ExperimentConfig,
    mix64,
    oracle_mix,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from .optimize import optimize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_DISAGREEMENT = 4


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every subcommand and its flags."""
    parser = argparse.ArgumentParser(
        prog="bdris",
        description="Optimize and simulate beyond-diagonal RIS architectures.",
    )
    parser.add_argument("--version", action="version", version=f"bdris {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo sweep and write trial records as CSV")
    sim.add_argument("--scenario", required=True, choices=SCENARIOS, help="channel generator")
    sim.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES),
                     help="comma-separated element counts")
    sim.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="trials per size")
    sim.add_argument("--arch", default="sc,tc",
                     help="comma-separated architectures: sc, tc, fc, gc:k, gc:I=2,5")
    sim.add_argument("--seed", type=int, default=0, help="base seed for derived trial seeds")
    sim.add_argument("--z0", type=float, default=DEFAULT_Z0, help="reference impedance")
    sim.add_argument("--q", type=int, default=None,
                     help="swap extent for tc_adversarial (odd; default swaps all pairs)")
    sim.add_argument("--group-size", type=int, default=None,
                     help="generator group size (default 2 favorable, 4 adversarial)")
    sim.add_argument("--out", required=True, help="records CSV path")
    sim.add_argument("--summary", default=None, help="also write per-cell aggregates here")
    sim.add_argument("--check-membership", action="store_true",
                     help="record adversarial-set membership per trial")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker cap (default $BDRIS_THREADS or 1); trials run in order on one thread")

    opt = sub.add_parser("optimize", help="optimize one channel file for one architecture")
    opt.add_argument("--arch", required=True, help="sc, tc, fc, gc:k, or gc:I=2,5")
    opt.add_argument("--channels", required=True, help="channel JSON file")
    opt.add_argument("--z0", type=float, default=DEFAULT_Z0)
    opt.add_argument("--emit-matrices", action="store_true",
                     help="include susceptance and scattering matrices in the output")

    mem = sub.add_parser("membership", help="report adversarial-set membership for a channel file")
    mem.add_argument("--channels", required=True, help="channel JSON file")
    mem.add_argument("--brute-force", action="store_true",
                     help="cross-check against cut-set enumeration (n <= 16)")

    orc = sub.add_parser("oracle", help="compare direct membership against brute force on random pairs")
    orc.add_argument("--n", type=int, required=True, help="element count (<= 16)")
    orc.add_argument("--trials", type=int, required=True)
    orc.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("gen", help="generate one channel pair and write it as JSON")
    gen.add_argument("--scenario", required=True, choices=SCENARIOS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--q", type=int, default=None, help="swap extent for tc_adversarial")
    gen.add_argument("--group-size", type=int, default=None)
    gen.add_argument("--out", required=True, help="channel JSON path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/--version/bad flags
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    handlers = {
        "simulate": _cmd_simulate,
        "optimize": _cmd_optimize,
        "membership": _cmd_membership,
        "oracle": _cmd_oracle,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"bdris: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"bdris: i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailure as exc:
        print(f"bdris: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _cmd_simulate(args) -> int:
    sizes = _parse_int_list(args.sizes, "--sizes")
    archs = _parse_arch_list(args.arch)
    config = ExperimentConfig(
        scenario=args.scenario,
        sizes=sizes,
        trials=args.trials,
        archs=archs,
        seed=args.seed,
        z0=args.z0,
        q_override=args.q,
        group_size=args.group_size,
        check_membership=args.check_membership,
    )
    threads = args.threads if args.threads is not None else _default_threads()
    _echo_config({
        "command": "simulate", "scenario": config.scenario, "sizes": list(config.sizes),
        "trials": config.trials, "archs": list(config.archs), "seed": config.seed,
        "z0": config.z0, "q": config.q_override, "group_size": config.group_size,
        "check_membership": config.check_membership, "threads": threads,
        "out": args.out, "summary": args.summary,
    })
    records = run_experiment(config, threads)
    with open(args.out, "w", newline="\n") as fp:
        write_records_csv(records, fp)
    if args.summary:
        with open(args.summary, "w", newline="\n") as fp:
            write_summary_csv(summarize(records), fp)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    with open(args.channels, encoding="utf-8") as fp:
        pair = read_channel_json(fp)
    spec = parse_arch(args.arch, pair.n)
    _echo_config({
        "command": "optimize", "arch": args.arch, "channels": args.channels,
        "n": pair.n, "z0": args.z0, "emit_matrices": args.emit_matrices,
    })
    result = optimize(pair, spec, args.z0)
    doc = {
        "arch": args.arch,
        "n": pair.n,
        "z0": args.z0,
        "p_r": result.p_r,
        "p_bar_full": result.p_bar_full,
        "p_bar_arch": result.p_bar_arch,
        "ratio_full": result.ratio_full,
        "residual_norm": result.residual_norm,
        "consistent": result.consistent,
    }
    if args.emit_matrices:
        doc["b_matrix"] = [[float(v) for v in row] for row in result.b_matrix.matrix]
        doc["theta"] = [[[float(v.real), float(v.imag)] for v in row] for row in result.theta.matrix]
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_membership(args) -> int:
    with open(args.channels, encoding="utf-8") as fp:
        pair = read_channel_json(fp)
    _echo_config({
        "command": "membership", "channels": args.channels, "n": pair.n,
        "brute_force": args.brute_force,
    })
    report = is_tc_adversarial(pair)
    doc = json.loads(report.to_json())
    code = EXIT_OK
    if args.brute_force:
        brute = is_tc_adversarial_bruteforce(pair)
        doc["in_a_bruteforce"] = brute
        if brute != report.in_a:
            code = EXIT_DISAGREEMENT
    print(json.dumps(doc))
    return code


def _cmd_oracle(args) -> int:
    if args.trials < 1:
        raise InputError(f"trials must be positive, got {args.trials}")
    _echo_config({"command": "oracle", "n": args.n, "trials": args.trials, "seed": args.seed})
    if not 1 <= args.n <= BRUTE_FORCE_MAX_N:
        raise InputError(f"oracle runs need 1 <= n <= {BRUTE_FORCE_MAX_N}, got {args.n}")
    mix = oracle_mix(args.n)
    disagreements = 0
    for t in range(args.trials):
        scenario, group_size = mix[t % len(mix)]
        pair, _ = scenario.draw(args.n, Rng(mix64(args.seed, 0, t)), group_size)
        direct = is_tc_adversarial(pair).in_a
        brute = is_tc_adversarial_bruteforce(pair)
        if direct != brute:
            disagreements += 1
    print(f"trials={args.trials} disagreements={disagreements}")
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _cmd_gen(args) -> int:
    _echo_config({
        "command": "gen", "scenario": args.scenario, "n": args.n, "seed": args.seed,
        "q": args.q, "group_size": args.group_size, "out": args.out,
    })
    pair, _ = SCENARIO_TABLE[args.scenario].draw(args.n, Rng(args.seed), args.group_size, args.q)
    with open(args.out, "w", newline="\n") as fp:
        write_channel_json(pair, fp)
    return EXIT_OK


def _parse_arch_list(text: str) -> tuple[str, ...]:
    """Architecture labels of a comma-separated list.

    A bare integer continues the cut list of the gc:I= label before it, so
    "sc,gc:I=2,5,tc" names three architectures.
    """
    archs: list[str] = []
    for part in (p.strip() for p in text.split(",")):
        if not part:
            continue
        if archs and archs[-1].startswith("gc:I=") and part.lstrip("+-").isdigit():
            archs[-1] += "," + part
        else:
            archs.append(part)
    return tuple(archs)


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"{flag} must be a comma-separated integer list, got {text!r}") from exc
    if not values:
        raise InputError(f"{flag} must name at least one value")
    return values


def _default_threads() -> int:
    raw = os.environ.get("BDRIS_THREADS", "")
    if not raw:
        return 1
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"BDRIS_THREADS must be an integer, got {raw!r}") from exc


def _echo_config(doc: dict) -> None:
    print(json.dumps(doc), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
