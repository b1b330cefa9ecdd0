"""Boolean circuits with unbounded fan-in AND/OR/NOT/MAJORITY gates.

Gates are stored densely indexed with input gates first.  Evaluation comes
in two styles — gate-at-a-time (serial) and layer-at-a-time (parallel) —
that run one layer loop and differ only in the CostMeter rounds charged per
layer.  Input and constant gates are free: they sit at depth 0 and are
never charged as work.
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


@dataclass(frozen=True)
class Gate:
    id: int
    kind: GateKind
    inputs: tuple[int, ...] = ()


@dataclass(frozen=True)
class Circuit:
    """A gate list (dense ids, inputs first), input count, and one output id.

    Building one runs ``validate``, so every ``Circuit`` is well formed.
    ``depths`` is computed then and kept on the instance, and ``layers`` on
    first use; they are not fields, so equality and hashing still see only
    the gates, inputs and output.
    """

    gates: tuple[Gate, ...]
    n_inputs: int
    output: int

    def __post_init__(self):
        validate(self)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """``gate_depths`` of this circuit, computed once."""
        return tuple(gate_depths(self))

    @cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Logic gate ids grouped by depth, computed once: layer d-1 holds the depth-d gates in id order."""
        depths = self.depths
        layers: list[list[int]] = [[] for _ in range(max(depths, default=0))]
        for g, d in zip(self.gates, depths):
            if d:  # terminals sit at depth 0, every logic gate at 1 or more
                layers[d - 1].append(g.id)  # the gate's own id object: kept layers add no new ints
        return tuple(map(tuple, layers))


def logic_ids(c: Circuit) -> tuple[int, ...]:
    """Ids of the non-terminal gates, ascending."""
    return tuple(g.id for g in c.gates if g.kind not in TERMINALS)


# module globals are cheaper to read than GateKind members in the per-gate loops below
_INPUT, _AND, _OR, _NOT, _MAJORITY = GateKind.INPUT, GateKind.AND, GateKind.OR, GateKind.NOT, GateKind.MAJORITY


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

    The three header checks run here; the per-gate checks and the cycle
    check run in ``gate_depths``, reached through ``c.depths``.  The first
    fault wins in this order: no gates, output range, ``n_inputs`` range,
    then gate by gate id, input block, arity and references, then a cycle.
    """
    n = len(c.gates)
    if n == 0:
        raise CircuitError("circuit has no gates")
    if not 0 <= c.output < n:
        raise CircuitError(f"output id {c.output} out of range 0..{n - 1}")
    if not 0 <= c.n_inputs <= n:
        raise CircuitError(f"n_inputs {c.n_inputs} out of range")
    c.depths  # the per-gate checks, then cycles


def gate_depths(c: Circuit) -> list[int]:
    """Longest-path depth per gate: terminals 0, logic gates 1 + max over inputs.

    One pass over the gates runs the per-gate checks of ``validate`` in id
    order and gives every gate whose feeds all have smaller, already known
    depths 1 + max of them.  A gate with a forward reference, or one that
    reads such a gate, waits until every gate has been checked; then an
    iterative DFS from each waiting gate in id order finds the rest, so
    kilogate chains do not hit the recursion limit, and a gray revisit
    reports the cycle edge.
    """
    gates, n_inputs = c.gates, c.n_inputs
    n = len(gates)
    depth = [0] * n  # n marks a waiting gate: a known depth is at most n - 1
    depth_of = depth.__getitem__
    waiting = []
    for pos, g in enumerate(gates):
        kind, ins = g.kind, g.inputs
        if g.id != pos:
            raise CircuitError(f"gate ids must be dense: position {pos} holds id {g.id}")
        if (pos < n_inputs) != (kind is _INPUT):
            if pos < n_inputs:
                raise CircuitError(f"ids 0..{n_inputs - 1} must be INPUT gates, id {pos} is {kind.value}")
            raise CircuitError(f"INPUT gate {pos} outside the leading input block")
        if kind in TERMINALS:
            if ins:
                raise CircuitError(f"{kind.value} gate {pos} must have no inputs")
            continue
        if kind is _NOT:
            if len(ins) != 1:
                raise CircuitError(f"not gate {pos} needs exactly one input, got {len(ins)}")
        elif not ins:
            raise CircuitError(f"{kind.value} gate {pos} needs at least one input")
        top = max(ins)
        if min(ins) < 0 or top >= n:
            raise CircuitError(f"gate {pos} references missing gate {next(i for i in ins if not 0 <= i < n)}")
        if top < pos and (d := 1 + max(map(depth_of, ins))) < n:
            depth[pos] = d
        else:
            depth[pos] = n
            waiting.append(pos)
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
    """Raise CircuitError unless ``bits`` holds exactly ``n_inputs`` values, each 0 or 1."""
    if len(bits) != n_inputs:
        raise CircuitError(f"assignment has {len(bits)} bits, circuit has {n_inputs} inputs")
    if any(b not in (0, 1) for b in bits):
        raise CircuitError("assignment bits must be 0 or 1")


def terminal_values(c: Circuit, bits: Sequence[int]) -> list[int | None]:
    """Per gate id, the input bit or constant of a terminal and None for a logic gate; checks ``bits``."""
    check_assignment(bits, c.n_inputs)
    input_, const0, const1 = GateKind.INPUT, GateKind.CONST0, GateKind.CONST1  # enum lookups cost more than the loop
    vals: list[int | None] = [None] * len(c.gates)
    for g in c.gates:
        kind = g.kind
        if kind is input_:
            vals[g.id] = bits[g.id]
        elif kind is const0:
            vals[g.id] = 0
        elif kind is const1:
            vals[g.id] = 1
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
            if kind is _AND:  # AND, OR and NOT inline; gate_value is their reference definition
                vals[gid] = 0 if 0 in map(get, ins) else 1
            elif kind is _OR:
                vals[gid] = 1 if 1 in map(get, ins) else 0
            elif kind is _NOT:
                vals[gid] = 1 - vals[ins[0]]
            else:
                vals[gid] = gate_value(kind, [vals[i] for i in ins])
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
    gates = [Gate(i, _INPUT) for i in range(n_inputs)]
    for gid in range(n_inputs, n_inputs + n_gates):
        kind = _MAJORITY if rand() < majority_fraction else kinds[below(3)]
        fanin = 1 if kind is _NOT else 1 + below(min(fanin_max, gid))
        gates.append(Gate(gid, kind, tuple(sorted(sample(gid, fanin)))))
    return Circuit(tuple(gates), n_inputs, n_inputs + n_gates - 1)
