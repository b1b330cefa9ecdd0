"""Command-line surface: ca, cvp, s5, do1, derand and bench subcommands.

Results go to stdout; meters and status go to stderr.  Exit codes: 0 on
success, 1 on internal failure, 2 on usage or validation errors.  Every
subcommand takes ``--config FILE`` naming a JSON object whose keys mirror
the flag names exactly (e.g. ``"rows"``, ``"max-attempts"``); explicit
flags win over config values, config values win over defaults, and a key
that is not a flag of the subcommand is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict

from . import automata, bench, derand, do1, s5
from .circuits import cvp
from .meters import CostMeter
from .netlist import parse_assignment, parse_netlist

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


def _config_value(action: argparse.Action, key: str, value):
    """``value`` as ``--key`` would read it on the command line; on/off flags take only JSON booleans."""
    shown = json.dumps(value)
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false, not {shown}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r} must be a string or a number, not {shown}")
    try:
        value = (action.type or str)(str(value))
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid {action.type.__name__} value {shown}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {shown} is not one of {', '.join(action.choices)}")
    return value


def _config_values(parser: argparse.ArgumentParser, path: str) -> dict:
    """Map a JSON config's keys, spelt like the flags without ``--``, to typed values by dest.

    A key that is neither a flag of the subcommand nor one of its
    ``config_only`` keys (bench's ``cases``) is an error, and so is a value
    the flag itself would not accept.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("config file nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {opt[2:]: a for opt, a in parser._option_string_actions.items() if opt.startswith("--")}
    del actions["config"], actions["help"]
    config_only = parser.get_default("config_only")
    unknown = sorted(set(doc) - set(actions) - set(config_only))
    if unknown:
        allowed = ", ".join(sorted([*actions, *config_only])) or "none"
        raise ValueError(f"unknown config key {unknown[0]!r} for {parser.prog} (allowed: {allowed})")
    return {
        key.replace("-", "_"): value if key in config_only else _config_value(actions[key], key, value)
        for key, value in doc.items()
    }


def _first_given(args, dests) -> str | None:
    """The flag spelling of the first of ``dests`` set by a flag or a config key, else None."""
    return next((f"--{dest.replace('_', '-')}" for dest in dests if getattr(args, dest) is not None), None)


def _print_meter(meter: CostMeter, **extras) -> None:
    tail = "".join(f" {k}={v}" for k, v in extras.items())
    print(f"meter: work={meter.work} depth={meter.depth}{tail}", file=sys.stderr)


def cmd_ca(args) -> int:
    if args.rows is not None and args.row is not None:
        raise ValueError("--rows and --row cannot be combined")
    tape = automata.parse_tape(args.tape)
    if args.cell is not None and args.row is None:
        raise ValueError("--cell requires --row")
    if args.cell is not None and args.k is not None:
        raise ValueError("--k cannot be combined with --cell")
    if args.row is not None and args.row < 0:
        raise ValueError("--row must be >= 0")
    if args.cell is not None:
        print(automata.cell_at(args.rule, tape, args.row, args.cell))
        return EXIT_OK
    rows = 1 if args.rows is None else args.rows
    if args.row is None and rows < 1:
        raise ValueError("--rows must be >= 1")
    steps = rows if args.row is None else args.row
    meter = CostMeter()
    if args.k is None:
        rounds = automata.plain_rounds(tape, args.rule, steps, meter)
    else:
        rounds = automata.compiled_rounds(tape, args.rule, steps, args.k, meter)
    final = tape
    for final in rounds:  # --rows prints every round, --row only the last
        if args.row is None:
            print(automata.format_tape(final))
    if args.row is not None:
        print(automata.format_tape(final))
    _print_meter(meter, **({} if args.k is None else {"table_size": 1 << (2 * args.k + 1)}))
    return EXIT_OK


def cmd_cvp(args) -> int:
    with open(args.netlist, "r", encoding="utf-8") as fh:
        circuit = parse_netlist(fh.read())
    bits = parse_assignment(args.assignment, circuit.n_inputs)
    print(cvp(circuit, bits))
    return EXIT_OK


def cmd_s5(args) -> int:
    if args.words is not None:
        given = _first_given(args, ("n", "seed"))
        if given is not None:
            raise ValueError(f"--words and {given} cannot be combined")
        with open(args.words, "r", encoding="utf-8") as fh:
            word = s5.parse_words(fh.read())
    else:
        word = s5.random_word(0 if args.seed is None else args.seed, 16 if args.n is None else args.n)
    meter = CostMeter()
    if args.fold == "tree":
        product = s5.fold_tree(word, meter)
    else:
        product = s5.fold_serial(word, meter)
    print(s5.format_perm(product))
    _print_meter(meter)
    return EXIT_OK


def cmd_do1(args) -> int:
    if args.exact_oracle and args.noise is not None:
        raise ValueError("--exact-oracle and --noise cannot be combined")
    if not args.extract and (args.exact_oracle or args.noise is not None):
        raise ValueError(f"{'--exact-oracle' if args.exact_oracle else '--noise'} needs --extract")
    if args.seed is not None and args.noise is None:
        raise ValueError("--seed needs --noise")
    with open(args.netlist, "r", encoding="utf-8") as fh:
        circuit = parse_netlist(fh.read())
    bits = parse_assignment(args.assignment, circuit.n_inputs)
    config = do1.CircuitConfig(circuit, bits)
    d1 = do1.depth_of_one(config)
    if not args.extract:
        print(d1)
        return EXIT_OK
    if args.noise is not None:
        eps = args.noise
        oracle = do1.NoisyOracle(do1.optimal_value, eps, args.seed or 0)
    elif args.exact_oracle:
        eps = 1.0
        oracle = do1.optimal_value
    else:
        raise ValueError("--extract needs --exact-oracle or --noise EPS")
    meter = CostMeter()
    estimate = do1.extract_depth_of_one(config, oracle, meter)
    print(estimate)
    ok, detail = do1.bracket(estimate, d1, eps)
    status = "ok" if ok else "VIOLATED"
    print(f"bracket {status}: d1={d1} estimate={estimate} probes={meter.work} ({detail})", file=sys.stderr)
    return EXIT_OK if ok else EXIT_INTERNAL


def cmd_derand(args) -> int:
    p = 0.3 if args.p is None else args.p
    search = {"n": 8, "vocab": 2, "delta_all": 0.5, "rng_seed": 0, "max_attempts": 32}
    if args.bound_only:
        given = _first_given(args, search)
        if given is not None:
            raise ValueError(f"--bound-only and {given} cannot be combined")
        print(derand.hoeffding_k(p, 0.01 if args.delta is None else args.delta))
        return EXIT_OK
    if args.delta is not None:
        raise ValueError("--delta needs --bound-only")
    n, vocab, delta_all, rng_seed, max_attempts = (
        default if getattr(args, dest) is None else getattr(args, dest) for dest, default in search.items()
    )
    decider = derand.SimulatedDecider(derand.word_parity, p)
    result = derand.find_universal_seeds(decider, n, vocab, delta_all, rng_seed, max_attempts)
    print(
        json.dumps(
            {
                "success": result.success,
                "k": result.k,
                "attempts": result.attempts,
                "per_attempt_errors": result.per_attempt_errors,
                "seeds": list(result.bundle.seeds) if result.bundle else None,
            },
            sort_keys=True,
        )
    )
    if result.success:
        print(f"found universal bundle of {result.k} seeds in {result.attempts} attempts", file=sys.stderr)
        return EXIT_OK
    print(f"no universal bundle in {result.attempts} attempts", file=sys.stderr)
    return EXIT_INTERNAL


def cmd_bench(args) -> int:
    # no "cases" key at all runs the default sweep; a present but non-array one is refused by load_suite
    cases = bench.load_suite({"cases": args.cases}) if hasattr(args, "cases") else bench.default_suite()
    csv = "-" if args.csv is None else args.csv
    if csv != "-" and args.report is not None and os.path.realpath(csv) == os.path.realpath(args.report):
        raise ValueError(f"--csv and --report name the same file {csv!r}")
    with contextlib.ExitStack() as stack:
        # open both outputs before the sweep, so an unwritable path exits 2 before any case runs
        def output(path):
            return sys.stdout if path == "-" else stack.enter_context(open(path, "w", encoding="utf-8"))

        csv_out, report_out = output(csv), None if args.report is None else output(args.report)
        records = bench.run_suite(cases)
        csv_out.write(bench.emit_csv(records))
        if report_out is not None:
            report_out.write(bench.emit_report(records) + ("\n" if args.report == "-" else ""))
    # an error record keeps no params, so name each failed case as a case object load_suite reads back
    failed = [(idx, case, r.aux["error"]) for idx, (case, r) in enumerate(zip(cases, records)) if "error" in r.aux]
    for idx, case, slug in failed:
        print(f"failed case #{idx} ({slug}): {json.dumps(asdict(case))}", file=sys.stderr)
    print(f"ran {len(records)} cases ({len(failed)} errors)", file=sys.stderr)
    return EXIT_INTERNAL if failed else EXIT_OK


# Every optional flag parses to None when absent and its command applies the default, so main
# fills exactly the unset flags from --config, and a misused flag is refused from either source.
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="depthbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, *config_only):
        p.add_argument("--config", help="JSON config; keys mirror flag names")
        p.set_defaults(func=func, subparser=p, config_only=config_only)

    p_ca = sub.add_parser("ca", help="evolve an elementary cellular automaton")
    p_ca.add_argument("rule", type=int, help="rule number 0..255")
    p_ca.add_argument("tape", help="initial tape as a 0/1 string")
    p_ca.add_argument("--rows", type=int, help="number of rows to evolve and print")
    p_ca.add_argument("--row", type=int, help="print only the tape after this many rows")
    p_ca.add_argument("--cell", type=int, help="with --row: print one cell on the centered light-cone frame")
    p_ca.add_argument("--k", type=int, help="advance k rows per compiled lookup round")
    add_common(p_ca, cmd_ca)

    p_cvp = sub.add_parser("cvp", help="evaluate a netlist circuit")
    p_cvp.add_argument("netlist", help="path to a netlist file")
    p_cvp.add_argument("assignment", nargs="?", default="", help="input bits as a 0/1 string")
    add_common(p_cvp, cmd_cvp)

    p_s5 = sub.add_parser("s5", help="fold a word of 5-point permutations")
    p_s5.add_argument("--fold", choices=("serial", "tree"), help="fold strategy")
    p_s5.add_argument("--n", type=int, help="random word length")
    p_s5.add_argument("--seed", type=int, help="random word seed")
    p_s5.add_argument("--words", help="file of 5-digit image strings, one per line")
    add_common(p_s5, cmd_s5)

    p_do1 = sub.add_parser("do1", help="depth-of-one of an alternating circuit")
    p_do1.add_argument("netlist", help="path to an alternating-circuit netlist")
    p_do1.add_argument("assignment", nargs="?", default="", help="input bits as a 0/1 string")
    p_do1.add_argument("--extract", action="store_true", default=None, help="estimate via value probes instead")
    p_do1.add_argument("--exact-oracle", action="store_true", default=None, help="probe the exact state values")
    p_do1.add_argument("--noise", type=float, help="probe values scaled by noise in [EPS, 1]")
    p_do1.add_argument("--seed", type=int, help="noise seed for --noise (default 0)")
    add_common(p_do1, cmd_do1)

    p_der = sub.add_parser("derand", help="majority-vote replication and universal-seed search")
    p_der.add_argument("--p", type=float, help="decider error bound, 0 <= p < 1/2")
    p_der.add_argument("--bound-only", action="store_true", default=None, help="print the Hoeffding replication count")
    p_der.add_argument("--delta", type=float, help="per-input failure target for --bound-only")
    p_der.add_argument("--n", type=int, help="word length for the seed search")
    p_der.add_argument("--vocab", type=int, help="token alphabet size")
    p_der.add_argument("--delta-all", type=float, help="union-bound failure target over all inputs")
    p_der.add_argument("--rng-seed", type=int, help="search randomness seed")
    p_der.add_argument("--max-attempts", type=int, help="bundle draws before giving up")
    add_common(p_der, cmd_derand)

    p_bench = sub.add_parser(
        "bench", help="run the default sweep, or the cases of a --config suite; exit 1 if a case fails"
    )
    p_bench.add_argument("--csv", help="CSV output path, or - for stdout")
    p_bench.add_argument("--report", help="text report path, or - for stdout")
    add_common(p_bench, cmd_bench, "cases")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process shares, built on the first call."""
    return build_parser()


# main and _config_values only read the shared parser: they never call set_defaults, add an
# action or change one, so each call parses into a fresh Namespace and leaves nothing behind.
def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            for dest, value in _config_values(args.subparser, args.config).items():
                if getattr(args, dest, None) is None:
                    setattr(args, dest, value)
        return args.func(args)
    except SystemExit as exc:  # argparse exits itself on usage errors and --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
