"""Boolean circuits with unbounded fan-in AND/OR/NOT/MAJORITY gates.

A gate's id is its position in the gate list, inputs first.  Evaluation
comes in two styles — gate-at-a-time (serial) and layer-at-a-time
(parallel) — that run one layer loop and differ only in the CostMeter
rounds charged per layer.  Input and constant gates are free: they sit at
depth 0 and are never charged as work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

from .meters import CostMeter


class CircuitError(ValueError):
    """Malformed circuit structure or a mismatched assignment."""


class GateKind(Enum):
    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    AND = "and"
    OR = "or"
    NOT = "not"
    MAJORITY = "maj"

    # Members are singletons compared by identity; Enum's default hashes the name in Python code
    __hash__ = object.__hash__


TERMINALS = frozenset({GateKind.INPUT, GateKind.CONST0, GateKind.CONST1})
_FANIN = frozenset({GateKind.AND, GateKind.OR, GateKind.MAJORITY})  # the logic kinds of one or more feeds


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """A gate's kind and the ids it reads; its own id is its position in ``Circuit.gates``.

    Slotted, so a gate is two pointers and no ``__dict__``; ``__init__``
    stores both fields through the slots' own setters, a cheaper path than
    the generated frozen ``__init__``'s ``object.__setattr__``.  A gate
    checks nothing: ``Circuit`` refuses a kind that is not a ``GateKind``
    and inputs that are not a tuple of int ids.
    """

    kind: GateKind
    inputs: tuple[int, ...] = ()

    def __init__(self, kind: GateKind, inputs: tuple[int, ...] = ()):
        _set_kind(self, kind)
        _set_inputs(self, inputs)


_set_kind, _set_inputs = Gate.kind.__set__, Gate.inputs.__set__


@dataclass(frozen=True)
class Circuit:
    """A gate list, inputs first, and one output id.

    Building one runs ``validate``, so every ``Circuit`` is well formed.
    ``n_inputs`` and ``depths`` are computed then and kept on the instance,
    and ``layers`` on first use; they are not fields, so equality and
    hashing still see only the gates and the output.
    """

    gates: tuple[Gate, ...]
    output: int

    def __post_init__(self):
        validate(self)

    @cached_property
    def n_inputs(self) -> int:
        """The length of the leading block of INPUT gates; an entry with no ``kind`` ends it (and is refused)."""
        gates = self.gates
        return next((gid for gid, g in enumerate(gates) if getattr(g, "kind", None) is not _INPUT), len(gates))

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """``gate_depths`` of this circuit, computed once."""
        return tuple(gate_depths(self))

    @cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Logic gate ids grouped by depth, computed once: layer d-1 holds the depth-d gates in id order."""
        depths = self.depths
        layers: list[list[int]] = [[] for _ in range(max(depths, default=0))]
        for gid, d in enumerate(depths):
            if d:  # terminals sit at depth 0, every logic gate at 1 or more
                layers[d - 1].append(gid)
        return tuple(map(tuple, layers))


def logic_ids(c: Circuit) -> tuple[int, ...]:
    """Ids of the non-terminal gates, ascending."""
    return tuple(gid for gid, g in enumerate(c.gates) if g.kind not in TERMINALS)


# module globals are cheaper to read than GateKind members in the per-gate loops below
_INPUT, _AND, _OR, _NOT, _MAJORITY = GateKind.INPUT, GateKind.AND, GateKind.OR, GateKind.NOT, GateKind.MAJORITY
_CONST_VALUE = {GateKind.CONST0: 0, GateKind.CONST1: 1}


def gate_value(kind: GateKind, in_vals: Sequence[int]) -> int:
    """Semantics of one logic gate.  MAJORITY is strict: ties go to 0."""
    if kind is _AND:
        return int(all(in_vals))
    if kind is _OR:
        return int(any(in_vals))
    if kind is _NOT:
        return 1 - in_vals[0]
    if kind is _MAJORITY:
        return int(2 * sum(in_vals) > len(in_vals))
    raise CircuitError(f"{kind.value} gate cannot be evaluated")


def validate(c: Circuit) -> None:
    """Raise CircuitError unless ``c`` satisfies every structural invariant; ``Circuit`` runs it when built.

    The header checks run here; the per-gate checks and the cycle check
    run in ``gate_depths``, reached through ``c.depths``.  The first fault
    wins in this order: no gates, gates that are not a tuple, an output
    that is not an int or out of range, then gate by gate: an entry with
    no ``kind`` or ``inputs`` (no ``Gate``), a kind that is not a
    ``GateKind``, inputs that are not a tuple, the input block, arity, then
    the first input id that is not an int or out of range; then a cycle.
    A bool is an int, so a bool id or output is accepted as 0 or 1.
    """
    n = len(c.gates)
    if n == 0:
        raise CircuitError("circuit has no gates")
    if type(c.gates) is not tuple:
        raise CircuitError(f"gates must be a tuple, got {type(c.gates).__name__}")
    if not isinstance(c.output, int):
        raise CircuitError(f"output id {c.output!r} is not an int")
    if not 0 <= c.output < n:
        raise CircuitError(f"output id {c.output} out of range 0..{n - 1}")
    c.depths  # the per-gate checks, then cycles


def _gate_fault(pos: int, g: Gate, n: int) -> str:
    """The message for gate ``pos``, which passed its input block and arity checks or could not run them.

    Tries the entry's fields, then the kind, then the inputs' type, then each input id in order.
    """
    try:
        kind, ins = g.kind, g.inputs
    except AttributeError:
        return f"gate {pos} {g!r} is not a Gate"
    if type(kind) is not GateKind:
        return f"gate {pos} kind {kind!r} is not a GateKind"
    if type(ins) is not tuple:
        return f"gate {pos} inputs must be a tuple, got {type(ins).__name__}"
    for i in ins:
        if not isinstance(i, int):
            return f"gate {pos} input id {i!r} is not an int"
        if not 0 <= i < n:
            return f"gate {pos} references missing gate {i}"
    raise AssertionError(f"gate {pos} has no fault")


def gate_depths(c: Circuit) -> list[int]:
    """Longest-path depth per gate: terminals 0, logic gates 1 + max over inputs.

    One pass over the gates runs the per-gate checks of ``validate`` in id
    order and gives every gate whose feeds all have smaller, already known
    depths 1 + max of them.  A kind in no kind set, inputs that are not a
    tuple, an id out of range, a ``TypeError`` from comparing or indexing
    by an id and an ``AttributeError`` from an entry with no ``kind`` or
    ``inputs`` all go to ``_gate_fault`` for their message.  A gate
    with a forward reference, or one that reads such a gate, waits until
    every gate has been checked; then an iterative DFS from each waiting
    gate in id order finds the rest, so kilogate chains do not hit the
    recursion limit, and a gray revisit reports the cycle edge.
    """
    gates, n_inputs = c.gates, c.n_inputs
    n = len(gates)
    depth = [0] * n  # n marks a waiting gate: a known depth is at most n - 1
    depth_of = depth.__getitem__
    waiting = []
    try:
        for pos, g in enumerate(gates):
            kind, ins = g.kind, g.inputs
            if ins.__class__ is not tuple:
                raise CircuitError(_gate_fault(pos, g, n))
            if kind in TERMINALS:
                if kind is _INPUT and pos >= n_inputs:
                    raise CircuitError(f"INPUT gate {pos} outside the leading input block")
                if ins:
                    raise CircuitError(f"{kind.value} gate {pos} must have no inputs")
                continue
            if kind is _NOT:
                if len(ins) != 1:
                    raise CircuitError(f"not gate {pos} needs exactly one input, got {len(ins)}")
            elif kind not in _FANIN:
                raise CircuitError(_gate_fault(pos, g, n))
            elif not ins:
                raise CircuitError(f"{kind.value} gate {pos} needs at least one input")
            top = max(ins)
            if min(ins) < 0 or top >= n:
                raise CircuitError(_gate_fault(pos, g, n))
            d = 1 + max(map(depth_of, ins))  # list indexing refuses a float id that compared fine
            if top < pos and d < n:
                depth[pos] = d
            else:
                depth[pos] = n
                waiting.append(pos)
    except (TypeError, AttributeError):  # an unhashable kind, an id that is not an int, or an entry with no fields
        raise CircuitError(_gate_fault(pos, g, n)) from None
    if waiting:
        state = [2 if d < n else 0 for d in depth]  # 0 unvisited, 1 on stack, 2 finished
        for start in waiting:
            if state[start] == 2:
                continue
            state[start] = 1
            stack = [(start, iter(gates[start].inputs))]
            while stack:
                gid, pending = stack[-1]
                advanced = False
                for iid in pending:
                    if state[iid] == 1:
                        raise CircuitError(f"cycle detected via edge {gid} -> {iid}")
                    if state[iid] == 0:
                        state[iid] = 1
                        stack.append((iid, iter(gates[iid].inputs)))
                        advanced = True
                        break
                if advanced:
                    continue
                depth[gid] = 1 + max(map(depth_of, gates[gid].inputs))
                state[gid] = 2
                stack.pop()
    return depth


def topo_layers(c: Circuit) -> list[list[int]]:
    """Logic gates grouped by depth: layer d-1 holds the depth-d gates.

    Terminals appear in no layer.  The number of layers equals the circuit
    depth, so a circuit of only INPUT/CONST gates has zero layers.  The lists
    are fresh copies of ``c.layers``.
    """
    return [list(layer) for layer in c.layers]


def check_assignment(bits: Sequence[int], n_inputs: int) -> None:
    """Raise CircuitError unless ``bits`` holds exactly ``n_inputs`` values, each the int 0 or 1 (bools included)."""
    if len(bits) != n_inputs:
        raise CircuitError(f"assignment has {len(bits)} bits, circuit has {n_inputs} inputs")
    try:
        if not bytes(bits).translate(None, b"\x00\x01"):
            return
    except (TypeError, ValueError):  # a float, a str or an int outside 0..255
        pass
    raise CircuitError("assignment bits must be 0 or 1")


def terminal_values(c: Circuit, bits: Sequence[int]) -> list[int | None]:
    """Per gate id, the input bit or constant of a terminal and None for a logic gate; checks ``bits``."""
    n_inputs = c.n_inputs
    check_assignment(bits, n_inputs)
    vals = [_CONST_VALUE.get(g.kind) for g in c.gates]
    vals[:n_inputs] = bits
    return vals


def _eval_layers(c: Circuit, bits: Sequence[int], meter: CostMeter | None, serial: bool) -> tuple[int, ...]:
    """Fill gate values layer by layer; a layer of g gates is g work in g rounds if ``serial``, else in 1.

    Gates within one layer never depend on each other, so their order cannot change any value.
    """
    meter = meter if meter is not None else CostMeter()
    vals = terminal_values(c, bits)
    get = vals.__getitem__
    gates = c.gates
    for layer in c.layers:
        for gid in layer:
            g = gates[gid]
            kind, ins = g.kind, g.inputs
            if kind is _AND:  # every kind inline, with no list per gate; gate_value is the reference definition
                vals[gid] = 0 if 0 in map(get, ins) else 1
            elif kind is _OR:
                vals[gid] = 1 if 1 in map(get, ins) else 0
            elif kind is _NOT:
                vals[gid] = 1 - vals[ins[0]]
            else:  # MAJORITY, strict: ties go to 0
                vals[gid] = 1 if 2 * sum(map(get, ins)) > len(ins) else 0
        meter.charge(len(layer), len(layer) if serial else 1)
    return tuple(vals)  # type: ignore[arg-type]


def eval_serial(c: Circuit, bits: Sequence[int], meter: CostMeter | None = None) -> tuple[int, ...]:
    """Every gate's value, one gate after another by depth then id: work = depth = logic gate count."""
    return _eval_layers(c, bits, meter, serial=True)


def eval_layered(c: Circuit, bits: Sequence[int], meter: CostMeter | None = None) -> tuple[int, ...]:
    """Every gate's value, a whole layer at a time: the same work as serial, depth = layer count."""
    return _eval_layers(c, bits, meter, serial=False)


def cvp(c: Circuit, bits: Sequence[int]) -> int:
    """Circuit value: the output gate's bit under ``bits``."""
    return eval_serial(c, bits)[c.output]


def stdlib_draws(rng: random.Random) -> tuple[Callable[[int], int], Callable[[int, int], list[int]]]:
    """``(below, sample)`` drawing from ``rng.getrandbits`` exactly as ``random.Random`` does.

    ``below(n)`` is ``rng._randbelow(n)`` for n >= 1: draw ``n.bit_length()``
    bits, redraw while the value is ``>= n``; so ``rng.choice(seq)`` is
    ``seq[below(len(seq))]`` and ``rng.randint(a, b)`` is ``a + below(b - a + 1)``.
    ``sample(n, k)`` returns ``rng.sample(range(n), k)`` for 1 <= k <= n from
    the same draws: swap-remove from an n-slot pool when n is at most
    ``sample``'s set size, else redraw an index already taken.
    ``tests/test_circuits.py::TestRandomCircuitMatchesStdlib`` pins both against ``random``.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        width = n.bit_length()
        r = getrandbits(width)
        while r >= n:
            r = getrandbits(width)
        return r

    def sample(n: int, k: int) -> list[int]:
        picked: list[int] = []
        if n <= (21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))):  # sample's setsize
            pool = list(range(n))
            for m in range(n, n - k, -1):
                width = m.bit_length()
                j = getrandbits(width)
                while j >= m:
                    j = getrandbits(width)
                picked.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            width = n.bit_length()
            for _ in range(k):
                j = getrandbits(width)
                while j >= n or j in picked:  # k is small: a list beats a set
                    j = getrandbits(width)
                picked.append(j)
        return picked

    return below, sample


def random_circuit(
    seed: int,
    n_inputs: int,
    n_gates: int,
    fanin_max: int = 3,
    majority_fraction: float = 0.25,
) -> Circuit:
    """Random DAG circuit: each gate draws distinct inputs among earlier ids.

    Deterministic in ``seed``; ``Circuit`` checks the result with ``validate`` when it is built.
    On ``rng = random.Random(seed)`` each gate makes the draws of
    ``rng.random() < majority_fraction``, then (unless MAJORITY)
    ``rng.choice((AND, OR, NOT))``, then (unless NOT)
    ``rng.randint(1, min(fanin_max, gid))`` and
    ``sorted(rng.sample(range(gid), fanin))``, through ``stdlib_draws``;
    ``tests/test_circuits.py::TestRandomCircuitMatchesStdlib`` pins the gates.
    """
    if n_inputs < 1 or n_gates < 1 or fanin_max < 1:
        raise ValueError("n_inputs, n_gates and fanin_max must all be >= 1")
    if not 0.0 <= majority_fraction <= 1.0:
        raise ValueError(f"majority_fraction {majority_fraction} outside [0, 1]")
    rng = random.Random(seed)
    rand = rng.random
    below, sample = stdlib_draws(rng)
    kinds = (_AND, _OR, _NOT)
    gates = [Gate(_INPUT)] * n_inputs
    for gid in range(n_inputs, n_inputs + n_gates):
        kind = _MAJORITY if rand() < majority_fraction else kinds[below(3)]
        fanin = 1 if kind is _NOT else 1 + below(min(fanin_max, gid))
        gates.append(Gate(kind, tuple(sorted(sample(gid, fanin)))))
    return Circuit(tuple(gates), n_inputs + n_gates - 1)
