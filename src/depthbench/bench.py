"""Scaling suite: run serial and parallel solvers across sizes, emit CSV + report.

Each family is one ``Family`` record in ``FAMILIES``.  Records carry (work,
depth) from the solver's meter plus wall time; only wall time is allowed to
vary between reruns with the same seeds, so the CSV minus its wall_ns
column is byte-reproducible.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from typing import Callable

from . import automata, derand, do1, s5
from .circuits import eval_layered, eval_serial, random_circuit, stdlib_draws
from .meters import CostMeter

CASE_KEYS = ("family", "size", "solver", "seed", "params")

CSV_HEADER = "family,size,solver,seed,work,depth,wall_ns,aux"


class BenchError(ValueError):
    """A case names a family/solver/parameter the harness cannot run."""


@dataclass
class BenchCase:
    family: str
    size: int
    solver: str
    seed: int
    params: dict = field(default_factory=dict)


@dataclass
class BenchRecord:
    family: str
    size: int
    solver: str
    seed: int
    work: int
    depth: int
    wall_ns: int
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Family:
    """Everything the harness knows of one family; ``FAMILIES`` maps each name to its record."""

    params: dict[str, int | float]  # each param's default; a param takes the type of its default
    solvers: str  # a case's solver must fully match this pattern
    run: Callable[[BenchCase, dict, CostMeter], dict]  # generates and solves a matched case; returns its aux
    sweep: tuple[tuple[int, ...], tuple[str, ...], int, dict]  # ``default_suite``: (sizes, solvers, seed, params)
    columns: dict[str, Callable[[BenchRecord], str]] = field(default_factory=dict)  # report header -> cell


def _checked(key: str, value, want: type):
    """``value`` as ``want``: a str, an int or a number (a float, or an int within float range)
    as ``want`` is str, int or float; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
        name = {str: "a string", int: "an integer", float: "a number"}[want]
        raise BenchError(f"{key!r} must be {name}, not {value!r}")
    try:
        return want(value)
    except OverflowError:  # an int past float range, maybe too long to format
        raise BenchError(f"{key!r} must be a number within float range") from None


def family_params(family: str, params: dict) -> dict:
    """``params`` over ``family``'s defaults; an unknown key, a mistyped value or an
    int past float range for a float param raises ``BenchError``."""
    defaults = FAMILIES[family].params
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise BenchError(f"unknown {family} param {unknown[0]!r} (allowed: {', '.join(defaults) or 'none'})")
    return {**defaults, **{key: _checked(key, value, type(defaults[key])) for key, value in params.items()}}


def _random_bits(seed, n: int) -> tuple[int, ...]:
    """n bits, each the draws of ``randint(0, 1)`` on ``random.Random(seed)`` made as ``stdlib_draws``' ``below(2)``.

    ``tests/test_bench.py::test_random_bits_match_randint`` pins them.
    """
    below = stdlib_draws(random.Random(seed))[0]
    return tuple(below(2) for _ in range(n))


def _run_ca(case: BenchCase, params: dict, meter: CostMeter) -> dict:
    rule = params["rule"]
    tape = _random_bits(case.seed, params["width"])
    if case.solver == "plain":
        automata.evolve(tape, rule, case.size, meter)
        return {"table_size": 8}
    k = int(case.solver[len("compiled-k"):])
    automata.evolve_compiled(tape, rule, case.size, k, meter)
    return {"table_size": 1 << (2 * k + 1)}


def _run_cvp(case: BenchCase, params: dict, meter: CostMeter) -> dict:
    n_inputs = params["n_inputs"]
    circuit = random_circuit(case.seed, n_inputs, case.size, params["fanin_max"], params["majority_fraction"])
    bits = _random_bits(f"bits:{case.seed}", n_inputs)
    values = (eval_serial if case.solver == "serial" else eval_layered)(circuit, bits, meter)
    return {"out": values[circuit.output]}


def _run_s5(case: BenchCase, params: dict, meter: CostMeter) -> dict:
    word = s5.random_word(case.seed, case.size)
    product = (s5.fold_serial if case.solver == "serial" else s5.fold_tree)(word, meter)
    return {"product": s5.format_perm(product)}


def _run_do1(case: BenchCase, params: dict, meter: CostMeter) -> dict:
    cfg = do1.random_alt_config(case.seed, params["n_inputs"], case.size, params["fanin_max"])
    if case.solver == "serial":
        eval_serial(cfg.circuit, cfg.bits, meter)
        return {"d1": do1.depth_of_one(cfg)}
    estimate = do1.extract_depth_of_one(cfg, do1.optimal_value, meter)
    return {"d1": do1.depth_of_one(cfg), "estimate": estimate, "probes": meter.work}


def _run_derand(case: BenchCase, params: dict, meter: CostMeter) -> dict:
    decider = derand.SimulatedDecider(derand.word_parity, params["p"])
    result = derand.find_universal_seeds(
        decider, case.size, params["vocab"], params["delta_all"], case.seed, params["max_attempts"], meter
    )
    return {"k": result.k, "attempts": result.attempts, "found": int(result.success)}


# In report order.  Each ``run`` is a runner of this module that calls library functions by
# their names here, so rebinding such a name reaches every call; a library function stored in
# a record would not be rebound.
FAMILIES: dict[str, Family] = {
    "ca": Family(
        params={"rule": 110, "width": 64}, solvers=r"plain|compiled-k[1-9][0-9]*", run=_run_ca,
        sweep=((16, 32, 64), ("plain", "compiled-k1", "compiled-k2", "compiled-k3"), 101, {"rule": 110}),
        columns={"table_size": lambda r: str(r.aux.get("table_size", "-"))},
    ),
    "cvp": Family(
        params={"n_inputs": 4, "fanin_max": 3, "majority_fraction": 0.2}, solvers=r"serial|layered", run=_run_cvp,
        sweep=((8, 32, 128, 512), ("serial", "layered"), 202, {}),
    ),
    "s5": Family(
        params={}, solvers=r"serial|tree", run=_run_s5,
        sweep=((16, 64, 256, 1024), ("serial", "tree"), 303, {}),
        columns={"memorization": lambda r: f"e^({r.size} ln 120) ~ 10^{s5.memorization_log10(r.size):.1f}"},
    ),
    "do1": Family(
        params={"n_inputs": 6, "fanin_max": 3}, solvers=r"serial|probe", run=_run_do1,
        sweep=((8, 32, 128), ("serial", "probe"), 404, {}),
    ),
    "derand": Family(
        params={"p": 0.3, "vocab": 2, "delta_all": 0.5, "max_attempts": 16}, solvers=r"search", run=_run_derand,
        sweep=((4, 6, 8), ("search",), 505, {"p": 0.3}),
    ),
}


def _error_slug(exc: Exception) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", f"{type(exc).__name__}_{exc}").strip("_")


def run_case(case: BenchCase) -> BenchRecord:
    """Run one case; any failure becomes an error record, with no work or depth, instead of propagating."""
    start = time.perf_counter_ns()
    meter = CostMeter()
    try:
        family = FAMILIES.get(case.family)
        if family is None:
            raise BenchError(f"unsupported family {case.family!r}")
        params = family_params(case.family, case.params)
        if not re.fullmatch(family.solvers, case.solver):
            raise BenchError(f"unsupported {case.family} solver {case.solver!r}")
        aux = family.run(case, params, meter)
        work, depth = meter.work, meter.depth
    except Exception as exc:
        work, depth, aux = 0, 0, {"error": _error_slug(exc)}
    wall = time.perf_counter_ns() - start
    return BenchRecord(case.family, case.size, case.solver, case.seed, work, depth, wall, aux)


def run_suite(cases: list[BenchCase]) -> list[BenchRecord]:
    """Run every case in order; error records keep the suite going."""
    return [run_case(c) for c in cases]


def _check_text(what: str, text) -> None:
    """A CSV text field must be a str and hold no separator: ``,``, ``;``, ``=`` or a line break."""
    if not isinstance(text, str):
        raise ValueError(f"{what} {text!r} must be a str")
    if any(sep in text for sep in ",;=") or "".join(text.splitlines()) != text:
        raise ValueError(f"{what} {text!r} holds a CSV separator (',', ';', '=' or a line break)")


def _parse_aux_value(s: str) -> int | str:
    """Quoted text is a str; an int only if it reads back to the same text,
    so leading-zero strings like "01234" stay str."""
    if len(s) >= 2 and s.startswith('"') and s.endswith('"'):
        return s[1:-1]
    try:
        if str(int(s)) == s:
            return int(s)
    except ValueError:
        pass
    return s


def _format_aux_value(v: int | str) -> str:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"aux value {v!r} must be an int or a str")
    if isinstance(v, int):
        return str(v)
    _check_text("aux value", v)
    if _parse_aux_value(v) != v:
        return f'"{v}"'  # protect strings that would read back as ints or lose their quotes
    return v


def emit_csv(records: list[BenchRecord]) -> str:
    """Fixed-header CSV; aux is a semicolon-joined key=value list.

    The family, the solver and every aux key must be a str, the size, seed,
    work, depth and wall_ns an int, the aux a dict, an aux value an int or a
    str, no int a bool, and no text field may hold a separator: anything
    else raises ``ValueError``, so ``parse_csv`` reads back every record
    emitted.
    """
    lines = [CSV_HEADER]
    for r in records:
        _check_text("family", r.family)
        _check_text("solver", r.solver)
        for name in ("size", "seed", "work", "depth", "wall_ns"):
            value = getattr(r, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} {value!r} must be an int")
        if not isinstance(r.aux, dict):
            raise ValueError(f"aux {r.aux!r} must be a dict")
        for k in r.aux:
            _check_text("aux key", k)
        aux = ";".join(f"{k}={_format_aux_value(v)}" for k, v in r.aux.items())
        lines.append(f"{r.family},{r.size},{r.solver},{r.seed},{r.work},{r.depth},{r.wall_ns},{aux}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[BenchRecord]:
    """Inverse of ``emit_csv``: every field round-trips exactly, aux ints and strings included."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header: expected {CSV_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        family, size, solver, seed, work, depth, wall_ns, aux_text = parts
        aux = {}
        if aux_text:
            for item in aux_text.split(";"):
                key, _, value = item.partition("=")
                aux[key] = _parse_aux_value(value)
        records.append(
            BenchRecord(family, int(size), solver, int(seed), int(work), int(depth), int(wall_ns), aux)
        )
    return records


def emit_report(records: list[BenchRecord]) -> str:
    """Plain-text depth-vs-size tables per family, built only from record fields.

    Regenerating the report from ``parse_csv(emit_csv(records))`` yields
    byte-identical text.  Families with no records still get a section.
    """
    by_family: dict[str, list[BenchRecord]] = {fam: [] for fam in FAMILIES}
    for r in records:
        by_family.setdefault(r.family, []).append(r)
    sections = ["work/depth scaling report", ""]
    for family, rows in by_family.items():
        sections.append(f"== family {family} ==")
        if not rows:
            sections.append("(no records)")
            sections.append("")
            continue
        extra = FAMILIES[family].columns if family in FAMILIES else {}
        header = ["size", "solver", "work", "depth", *extra]
        table = [header]
        for r in rows:
            if "error" in r.aux:
                table.append([str(r.size), r.solver, "ERROR", r.aux["error"]] + ["-"] * len(extra))
            else:
                table.append([str(r.size), r.solver, str(r.work), str(r.depth)] + [cell(r) for cell in extra.values()])
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        for row in table:
            sections.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        sections.append("")
    return "\n".join(sections)


def _case_from(entry: dict) -> BenchCase:
    if not isinstance(entry, dict):
        raise TypeError(f"case must be a JSON object, not {entry!r}")
    unknown = sorted(set(entry) - set(CASE_KEYS))
    if unknown:
        raise BenchError(f"unknown case key {unknown[0]!r} (allowed: {', '.join(CASE_KEYS)})")
    missing = [key for key in ("family", "size", "solver") if key not in entry]
    if missing:
        raise BenchError(f"missing key {missing[0]!r}")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise TypeError(f"'params' must be a JSON object, not {params!r}")
    case = BenchCase(entry["family"], entry["size"], entry["solver"], entry.get("seed", 0), dict(params))
    for key, want in (("family", str), ("size", int), ("solver", str), ("seed", int)):
        _checked(key, getattr(case, key), want)
    _check_text("family", case.family)
    _check_text("solver", case.solver)
    if case.family in FAMILIES:  # unknown families stay run-time error records
        family_params(case.family, case.params)
    return case


def load_suite(doc: dict) -> list[BenchCase]:
    """Build cases from a suite JSON document: {"cases": [{family, size, solver, ...}]}.

    A missing or unknown case key, a param its family does not take, a
    mistyped value or a CSV separator in the family or solver raises
    ``ValueError`` naming the case index and the key.
    """
    if "cases" not in doc or not isinstance(doc["cases"], list):
        raise ValueError("suite config needs a 'cases' array")
    cases = []
    for idx, entry in enumerate(doc["cases"]):
        try:
            cases.append(_case_from(entry))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad suite case #{idx}: {exc}") from None
    return cases


def default_suite() -> list[BenchCase]:
    """The standard 37-case sweep that ``depthbench bench`` runs when given no suite ``cases``."""
    return [
        BenchCase(name, size, solver, seed, dict(params))
        for name, family in FAMILIES.items()
        for sizes, solvers, seed, params in [family.sweep]
        for size in sizes
        for solver in solvers
    ]
