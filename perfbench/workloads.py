"""The benchmark's four workloads: inputs, ops and the untimed checks of each op.

``BUILDERS[workload](seed, rep, workdir)`` is a repetition's set-up: it
draws every input from (seed, rep), writes the netlists that CLI ops read
and returns the fixed op list.  An op sees the program only through the
public functions of depthbench's modules, looked up at call time so that
traced repetitions see the wrapped versions.  ``Op.check`` runs after the
repetition's timing ends and returns a ``Failure`` or None.  Why each
workload exists is in WORKLOADS.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from depthbench import automata, bench, circuits, cli, derand, do1, netlist, s5
from depthbench.meters import CostMeter

DEFAULT_SEED = 0

# sha256 of the default sweep's CSV (shipped seeds) with the wall_ns column
# removed: the meter columns a speed-up must never change.
SWEEP_DIGEST = "514787fb6b6a25b46656795d59d0af8c3959c173d766e2084d2f9cdbee7e23d2"

# ROADMAP item 2: passes validate_alternating, yet --extract reports
# estimate 0 against a true depth-of-one of 2 and exits 1.
ITEM2_NETLIST = "input 0\ninput 1\nand 2 0\nor 3 2 1\noutput 3\n"
ITEM2_BITS = "01"

NOISE_EPS = 0.5
CA_RULES = (30, 54, 90, 110, 150, 184)


@dataclass(frozen=True)
class Failure:
    """A failed op.  ``silent`` marks a wrong answer the program reported as success."""

    message: str
    silent: bool


def wrong(message: str) -> Failure:
    return Failure(message, True)


def reported(message: str) -> Failure:
    return Failure(message, False)


@dataclass
class Op:
    label: str  # unique within a repetition: results are keyed by it
    run: Callable[[dict], Any]  # receives the results of the repetition's earlier ops
    check: Callable[[Any, dict], Failure | None]


def derive(seed: int, rep: int, *tags) -> int:
    """A 31-bit seed that depends only on (workload seed, repetition, tags)."""
    digest = hashlib.sha256(repr((seed, rep) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _bits(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.getrandbits(1) for _ in range(n))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``depthbench ARGV`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failure(result: tuple[int, str, str]) -> Failure | None:
    code, _out, err = result
    if code != 0:
        return reported(f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}")
    return None


def _meter_line(err: str) -> dict[str, int]:
    line = next(ln for ln in err.splitlines() if ln.startswith("meter:"))
    return {k: int(v) for k, v in (item.split("=") for item in line.split()[1:])}


def _ca_identities(tape, rule: int, rows: int, k: int, out, meter: CostMeter) -> Failure | None:
    """Compiled tape equals the plain one; both meters match their closed forms."""
    plain_meter = CostMeter()
    plain = automata.evolve(tape, rule, rows, plain_meter)
    width = len(tape)
    if (plain_meter.work, plain_meter.depth) != (width * rows, rows):
        return wrong(f"plain meter {plain_meter} != work {width * rows} depth {rows}")
    if tuple(out) != plain:
        return wrong("compiled tape differs from plain evolution")
    rounds = math.ceil(rows / k)
    if (meter.work, meter.depth) != (width * rounds, rounds):
        return wrong(f"compiled meter {meter} != work {width * rounds} depth {rounds}")
    return None


def _bracket(estimate: int, d1: int, eps: float, probes: int, n_gates: int) -> Failure | None:
    """The extraction guarantee, and (n+1)(m+1) probes when not depth-zero."""
    if estimate == 0:
        return None if d1 == 0 and probes == 0 else wrong(f"estimate 0 but d1={d1} probes={probes}")
    if eps == 1.0:
        ok = estimate <= d1 < 2 * estimate
    else:
        ok = eps * estimate <= d1 <= (2 / eps) * estimate
    if not ok:
        return wrong(f"bracket violated: estimate={estimate} d1={d1} eps={eps}")
    m = (n_gates - 1).bit_length() if n_gates > 1 else 0
    if probes != (n_gates + 1) * (m + 1):
        return wrong(f"{probes} probes, expected {(n_gates + 1) * (m + 1)}")
    return None


# ---------------------------------------------------------------- sweep


def strip_wall(csv_text: str) -> str:
    """The CSV without its wall_ns column: the part reruns must reproduce."""
    return "\n".join(",".join(p[:6] + p[7:]) for p in (ln.split(",", 7) for ln in csv_text.splitlines()))


def meter_digest(csv_text: str) -> str:
    return hashlib.sha256(strip_wall(csv_text).encode()).hexdigest()


def _check_case(case: bench.BenchCase) -> Callable[[Any, dict], Failure | None]:
    def check(r: bench.BenchRecord, results: dict) -> Failure | None:
        if "error" in r.aux:
            return reported(f"error={r.aux['error']}")
        size, fam, solver = case.size, case.family, case.solver
        if fam == "ca":
            width = int(case.params.get("width", 64))
            rounds = size if solver == "plain" else math.ceil(size / int(solver[len("compiled-k"):]))
            expect = (width * rounds, rounds)
        elif fam == "cvp":
            if solver == "serial":
                expect = (size, size)
            else:
                c = circuits.random_circuit(case.seed, 4, size, 3, 0.2)
                expect = (size, len(circuits.topo_layers(c)))
                serial = results[f"cvp/serial/{size}"]
                if serial.aux.get("out") != r.aux.get("out"):
                    return wrong("cvp serial and layered outputs differ")
        elif fam == "s5":
            expect = (size - 1, size - 1 if solver == "serial" else math.ceil(math.log2(size)))
            if solver == "tree" and results[f"s5/serial/{size}"].aux.get("product") != r.aux.get("product"):
                return wrong("s5 serial and tree products differ")
        elif fam == "do1":
            if solver == "serial":
                expect = (size, size)
            else:
                probes = r.aux["probes"]
                expect = (probes, 1 if probes else 0)
                failure = _bracket(r.aux["estimate"], r.aux["d1"], 1.0, probes, size)
                if failure:
                    return failure
        else:
            if not r.aux.get("found"):
                return reported(f"no universal bundle in {r.aux.get('attempts')} attempts")
            p, vocab = float(case.params.get("p", 0.3)), int(case.params.get("vocab", 2))
            decider = derand.SimulatedDecider(derand.word_parity, p)
            again = derand.find_universal_seeds(
                decider, size, vocab, float(case.params.get("delta_all", 0.5)), rng_seed=case.seed,
                max_attempts=int(case.params.get("max_attempts", 16)),
            )
            if again.bundle is None or derand.count_bundle_errors(decider, again.bundle, size, vocab) != 0:
                return wrong("found bundle does not re-check to zero errors")
            expect = (again.attempts * vocab**size * again.k, again.attempts)
        if (r.work, r.depth) != expect:
            return wrong(f"meter work={r.work} depth={r.depth}, expected {expect}")
        return None

    return check


def build_sweep(seed: int, rep: int, workdir: Path) -> list[Op]:
    """Every default-suite case through run_case, then one CSV/report round trip."""
    cases = bench.default_suite()
    shipped = seed == DEFAULT_SEED and rep == 0
    if not shipped:
        for case in cases:  # both solvers of a (family, size) pair share inputs
            case.seed = derive(seed, rep, "sweep", case.family, case.size)
    ops = [
        Op(f"{c.family}/{c.solver}/{c.size}", lambda _r, c=c: bench.run_case(c), _check_case(c))
        for c in cases
    ]
    labels = [op.label for op in ops]

    def roundtrip(results: dict):
        csv_text = bench.emit_csv([results[label] for label in labels])
        parsed = bench.parse_csv(csv_text)
        return csv_text, parsed, bench.emit_report(parsed)

    def check_roundtrip(result, results: dict) -> Failure | None:
        csv_text, parsed, report = result
        records = [results[label] for label in labels]
        if parsed != records or bench.emit_csv(parsed) != csv_text:
            return wrong("CSV round trip changed a record")
        if report != bench.emit_report(records):
            return wrong("report from parsed CSV differs from report from records")
        if shipped and meter_digest(csv_text) != SWEEP_DIGEST:
            return wrong(f"default sweep meter digest {meter_digest(csv_text)} != recorded {SWEEP_DIGEST}")
        return None

    ops.append(Op("csv-roundtrip", roundtrip, check_roundtrip))
    return ops


# ---------------------------------------------------------------- probe

PROBE_INPUTS = 8
# (gate count, in-process extractions, CLI extractions); exact and noisy
# oracles alternate.  Most ops sit at the small end.
PROBE_MIX = ((64, 20, 8), (128, 10, 0), (256, 1, 0), (512, 1, 0))


def hot_config(seed: int, n_gates: int) -> do1.CircuitConfig:
    """A random alternating configuration that is not depth-zero.

    Hotness is decided by the first-layer scan, so the analysis cache
    stays cold for the timed extraction.
    """
    rng = random.Random(seed)
    while True:
        cfg = do1.random_alt_config(rng.getrandbits(31), PROBE_INPUTS, n_gates)
        if not do1.is_depth_zero(cfg):
            return cfg


def _extract_op(label: str, cfg: do1.CircuitConfig, noise_seed: int | None) -> Op:
    n_gates = len(circuits.logic_ids(cfg.circuit))
    eps = 1.0 if noise_seed is None else NOISE_EPS

    def run(_results):
        oracle = do1.optimal_value if noise_seed is None else do1.NoisyOracle(do1.optimal_value, eps, noise_seed)
        counting = do1.CountingOracle(oracle)
        return do1.extract_depth_of_one(cfg, counting), counting.calls

    def check(result, _results) -> Failure | None:
        estimate, probes = result
        return _bracket(estimate, do1.depth_of_one(cfg), eps, probes, n_gates)

    return Op(label, run, check)


def _cli_do1_op(label: str, path: Path, bits: str, noise_seed: int | None) -> Op:
    argv = ["do1", str(path), bits, "--extract"]
    argv += ["--exact-oracle"] if noise_seed is None else ["--noise", str(NOISE_EPS), "--seed", str(noise_seed)]
    eps = 1.0 if noise_seed is None else NOISE_EPS

    def check(result, _results) -> Failure | None:
        failure = _cli_failure(result)
        if failure:
            return failure
        _code, out, err = result
        circuit = netlist.parse_netlist(path.read_text(encoding="utf-8"))
        cfg = do1.CircuitConfig(circuit, netlist.parse_assignment(bits, circuit.n_inputs))
        if "bracket ok" not in err:
            return wrong(f"exit 0 without 'bracket ok': {err.strip()}")
        probes = int(err.split("probes=")[1].split()[0])
        return _bracket(int(out.strip()), do1.depth_of_one(cfg), eps, probes, len(circuits.logic_ids(circuit)))

    return Op(label, lambda _r: run_cli(argv), check)


def build_probe(seed: int, rep: int, workdir: Path) -> list[Op]:
    ops = []
    for n_gates, in_process, via_cli in PROBE_MIX:
        for i in range(in_process + via_cli):
            cfg = hot_config(derive(seed, rep, "probe", n_gates, i), n_gates)
            noise_seed = None if i % 2 == 0 else derive(seed, rep, "noise", n_gates, i)
            oracle = "exact" if noise_seed is None else "noisy"
            if i < in_process:
                ops.append(_extract_op(f"extract/{oracle}/{n_gates}/{i}", cfg, noise_seed))
            else:
                path = workdir / f"probe-{rep}-{n_gates}-{i}.net"
                path.write_text(netlist.format_netlist(cfg.circuit), encoding="utf-8")
                bits = "".join(map(str, cfg.bits))
                ops.append(_cli_do1_op(f"cli-do1/{oracle}/{n_gates}/{i}", path, bits, noise_seed))
    item2 = workdir / f"probe-{rep}-item2.net"
    item2.write_text(ITEM2_NETLIST, encoding="utf-8")
    ops.append(_cli_do1_op("cli-do1/exact/item2", item2, ITEM2_BITS, None))
    return ops


# ---------------------------------------------------------------- ca-compile

CA_WIDTH = 128
# (k, in-process evolve_compiled ops, CLI ops); row counts are never
# multiples of k, so every op also compiles a remainder table.
CA_MIX = ((4, 20, 4), (5, 8, 1), (6, 1, 0))


def _rows(rng: random.Random, k: int) -> int:
    return rng.choice([r for r in range(k + 1, 4 * k) if r % k])


def _compiled_op(label: str, tape, rule: int, rows: int, k: int) -> Op:
    def run(_results):
        meter = CostMeter()
        return automata.evolve_compiled(tape, rule, rows, k, meter), meter

    def check(result, _results) -> Failure | None:
        out, meter = result
        return _ca_identities(tape, rule, rows, k, out, meter)

    return Op(label, run, check)


def _cli_ca_op(label: str, tape, rule: int, rows: int, k: int) -> Op:
    argv = ["ca", str(rule), automata.format_tape(tape), "--rows", str(rows), "--k", str(k)]

    def check(result, _results) -> Failure | None:
        failure = _cli_failure(result)
        if failure:
            return failure
        _code, out, err = result
        reached = list(range(k, rows, k)) + [rows]
        expect = [automata.format_tape(automata.evolve(tape, rule, r)) for r in reached]
        if out.splitlines() != expect:
            return wrong("printed rounds differ from plain evolution")
        meter = _meter_line(err)
        if (meter["work"], meter["depth"]) != (len(tape) * len(reached), len(reached)):
            return wrong(f"meter line {meter} != {len(reached)} rounds of width {len(tape)}")
        return None

    return Op(label, lambda _r: run_cli(argv), check)


def build_ca_compile(seed: int, rep: int, workdir: Path) -> list[Op]:
    ops = []
    for k, in_process, via_cli in CA_MIX:
        for i in range(in_process + via_cli):
            rng = random.Random(derive(seed, rep, "ca", k, i))
            tape, rule, rows = _bits(rng, CA_WIDTH), rng.choice(CA_RULES), _rows(rng, k)
            if i < in_process:
                ops.append(_compiled_op(f"evolve_compiled/k{k}/{i}", tape, rule, rows, k))
            else:
                ops.append(_cli_ca_op(f"cli-ca/k{k}/{i}", tape, rule, rows, k))
    return ops


# ---------------------------------------------------------------- scale

SCALE_INPUTS = 32
# Counts are chosen so that op_p50_ms falls on the 2048-gate round trip
# and op_p90_ms on the 8192-gate ones, not on a step between two op
# kinds, where it would jump from run to run.
SCALE_GATES = (2048, 8192, 8192)
SCALE_WORDS = (1 << 14, 1 << 15, 1 << 16)
SCALE_TAPE = 1024
SCALE_CA = ((0, 48), (2, 128), (3, 96))  # (k, rows); k = 0 is plain evolve
SEARCH_N, SEARCH_P = 10, 0.2


def _eval_ops(c: circuits.Circuit, bits, n_gates: int, tag: str) -> list[Op]:
    def run_with(solver):
        def run(_results):
            meter = CostMeter()
            return getattr(circuits, solver)(c, bits, meter), meter

        return run

    def check_serial(result, _results) -> Failure | None:
        _values, meter = result
        return None if (meter.work, meter.depth) == (n_gates, n_gates) else wrong(f"serial meter {meter}")

    def check_layered(result, results) -> Failure | None:
        values, meter = result
        if values != results[f"eval_serial/{tag}"][0]:
            return wrong("eval_layered values differ from eval_serial")
        layers = len(circuits.topo_layers(c))
        return None if (meter.work, meter.depth) == (n_gates, layers) else wrong(f"layered meter {meter}")

    def roundtrip(_results):
        text = netlist.format_netlist(c)
        return text, netlist.parse_netlist(text)

    def check_roundtrip(result, _results) -> Failure | None:
        text, parsed = result
        return None if parsed == c and netlist.format_netlist(parsed) == text else wrong("netlist round trip")

    return [
        Op(f"eval_serial/{tag}", run_with("eval_serial"), check_serial),
        Op(f"eval_layered/{tag}", run_with("eval_layered"), check_layered),
        Op(f"netlist-roundtrip/{tag}", roundtrip, check_roundtrip),
    ]


def _fold_ops(word, n: int) -> list[Op]:
    def run_with(solver):
        def run(_results):
            meter = CostMeter()
            return getattr(s5, solver)(word, meter), meter

        return run

    def check_serial(result, _results) -> Failure | None:
        _product, meter = result
        return None if (meter.work, meter.depth) == (n - 1, n - 1) else wrong(f"fold_serial meter {meter}")

    def check_tree(result, results) -> Failure | None:
        product, meter = result
        if product != results[f"fold_serial/{n}"][0]:
            return wrong("fold_tree product differs from fold_serial")
        depth = math.ceil(math.log2(n))
        return None if (meter.work, meter.depth) == (n - 1, depth) else wrong(f"fold_tree meter {meter}")

    return [Op(f"fold_serial/{n}", run_with("fold_serial"), check_serial),
            Op(f"fold_tree/{n}", run_with("fold_tree"), check_tree)]


def _plain_op(tape, rule: int, rows: int) -> Op:
    def run(_results):
        meter = CostMeter()
        return automata.evolve(tape, rule, rows, meter), meter

    def check(result, _results) -> Failure | None:
        _out, meter = result
        width = len(tape)
        return None if (meter.work, meter.depth) == (width * rows, rows) else wrong(f"plain meter {meter}")

    return Op(f"evolve/{rows}", run, check)


def _search_op(rng_seed: int) -> Op:
    decider = derand.SimulatedDecider(derand.word_parity, SEARCH_P)

    def run(_results):
        return derand.find_universal_seeds(decider, SEARCH_N, 2, 0.5, rng_seed)

    def check(result, _results) -> Failure | None:
        if not result.success:
            return reported(f"no universal bundle in {result.attempts} attempts")
        if derand.count_bundle_errors(decider, result.bundle, SEARCH_N, 2) != 0:
            return wrong("found bundle does not re-check to zero errors")
        return None

    return Op(f"find_universal_seeds/{SEARCH_N}", run, check)


def build_scale(seed: int, rep: int, workdir: Path) -> list[Op]:
    ops = []
    for j, n_gates in enumerate(SCALE_GATES):
        c = circuits.random_circuit(derive(seed, rep, "circuit", j), SCALE_INPUTS, n_gates)
        bits = _bits(random.Random(derive(seed, rep, "bits", j)), SCALE_INPUTS)
        ops += _eval_ops(c, bits, n_gates, f"{n_gates}.{j}")
    for n in SCALE_WORDS:
        ops += _fold_ops(s5.random_word(derive(seed, rep, "word", n), n), n)
    for k, rows in SCALE_CA:
        rng = random.Random(derive(seed, rep, "tape", k))
        tape, rule = _bits(rng, SCALE_TAPE), rng.choice(CA_RULES)
        ops.append(_plain_op(tape, rule, rows) if k == 0 else _compiled_op(f"evolve_compiled/k{k}", tape, rule, rows, k))
    ops.append(_search_op(derive(seed, rep, "search")))
    return ops


BUILDERS: dict[str, Callable[[int, int, Path], list[Op]]] = {
    "sweep": build_sweep,
    "probe": build_probe,
    "ca-compile": build_ca_compile,
    "scale": build_scale,
}
