"""Boolean circuits with unbounded fan-in AND/OR/NOT/MAJORITY gates.

Gates are stored densely indexed with input gates first.  Evaluation comes
in two styles — gate-at-a-time in topological order (serial) and
layer-at-a-time (parallel) — and both charge a CostMeter so the work/depth
contrast is measurable.  Input and constant gates are free: they sit at
depth 0 and are never charged as work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

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


TERMINALS = frozenset({GateKind.INPUT, GateKind.CONST0, GateKind.CONST1})


@dataclass(frozen=True)
class Gate:
    id: int
    kind: GateKind
    inputs: tuple[int, ...] = ()


@dataclass(frozen=True)
class Circuit:
    """A gate list (dense ids, inputs first), input count, and one output id.

    ``depths`` is computed on first use and kept on the instance; it is not
    a field, so equality and hashing still see only the gates, the input
    count and the output.
    """

    gates: tuple[Gate, ...]
    n_inputs: int
    output: int

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """``gate_depths`` of this circuit; raises CircuitError on every access if cyclic."""
        return tuple(gate_depths(self))


def logic_ids(c: Circuit) -> tuple[int, ...]:
    """Ids of the non-terminal gates, ascending."""
    return tuple(g.id for g in c.gates if g.kind not in TERMINALS)


def gate_value(kind: GateKind, in_vals: Sequence[int]) -> int:
    """Semantics of one logic gate.  MAJORITY is strict: ties go to 0."""
    if kind is GateKind.AND:
        return int(all(in_vals))
    if kind is GateKind.OR:
        return int(any(in_vals))
    if kind is GateKind.NOT:
        return 1 - in_vals[0]
    if kind is GateKind.MAJORITY:
        return int(2 * sum(in_vals) > len(in_vals))
    raise CircuitError(f"{kind.value} gate cannot be evaluated")


def validate(c: Circuit) -> None:
    """Raise CircuitError unless ``c`` satisfies every structural invariant."""
    n = len(c.gates)
    if n == 0:
        raise CircuitError("circuit has no gates")
    if not 0 <= c.output < n:
        raise CircuitError(f"output id {c.output} out of range 0..{n - 1}")
    if not 0 <= c.n_inputs <= n:
        raise CircuitError(f"n_inputs {c.n_inputs} out of range")
    for pos, g in enumerate(c.gates):
        if g.id != pos:
            raise CircuitError(f"gate ids must be dense: position {pos} holds id {g.id}")
        if pos < c.n_inputs and g.kind is not GateKind.INPUT:
            raise CircuitError(f"ids 0..{c.n_inputs - 1} must be INPUT gates, id {pos} is {g.kind.value}")
        if pos >= c.n_inputs and g.kind is GateKind.INPUT:
            raise CircuitError(f"INPUT gate {pos} outside the leading input block")
        if g.kind in TERMINALS:
            if g.inputs:
                raise CircuitError(f"{g.kind.value} gate {g.id} must have no inputs")
        elif g.kind is GateKind.NOT:
            if len(g.inputs) != 1:
                raise CircuitError(f"not gate {g.id} needs exactly one input, got {len(g.inputs)}")
        elif not g.inputs:
            raise CircuitError(f"{g.kind.value} gate {g.id} needs at least one input")
        for iid in g.inputs:
            if not 0 <= iid < n:
                raise CircuitError(f"gate {g.id} references missing gate {iid}")
    c.depths  # raises on cycles


def gate_depths(c: Circuit) -> list[int]:
    """Longest-path depth per gate: terminals 0, logic gates 1 + max over inputs.

    Iterative DFS so kilogate chains do not hit the recursion limit; a gray
    revisit reports the cycle edge.
    """
    n = len(c.gates)
    depth: list[int] = [0] * n
    state = [0] * n  # 0 unvisited, 1 on stack, 2 finished
    for start in range(n):
        if state[start] == 2:
            continue
        state[start] = 1
        stack = [(start, iter(c.gates[start].inputs))]
        while stack:
            gid, pending = stack[-1]
            advanced = False
            for iid in pending:
                if not 0 <= iid < n:
                    raise CircuitError(f"gate {gid} references missing gate {iid}")
                if state[iid] == 1:
                    raise CircuitError(f"cycle detected via edge {gid} -> {iid}")
                if state[iid] == 0:
                    state[iid] = 1
                    stack.append((iid, iter(c.gates[iid].inputs)))
                    advanced = True
                    break
            if advanced:
                continue
            g = c.gates[gid]
            if g.kind not in TERMINALS:
                depth[gid] = 1 + max(depth[i] for i in g.inputs)
            state[gid] = 2
            stack.pop()
    return depth


def topo_layers(c: Circuit) -> list[list[int]]:
    """Logic gates grouped by depth: layer d-1 holds the depth-d gates.

    Terminals appear in no layer.  The number of layers equals the circuit
    depth, so a circuit of only INPUT/CONST gates has zero layers.
    """
    depths = c.depths
    layers: list[list[int]] = [[] for _ in range(max(depths, default=0))]
    for g in c.gates:
        if g.kind not in TERMINALS:
            layers[depths[g.id] - 1].append(g.id)
    return layers


def check_assignment(bits: Sequence[int], n_inputs: int) -> None:
    """Raise CircuitError unless ``bits`` holds exactly ``n_inputs`` values, each 0 or 1."""
    if len(bits) != n_inputs:
        raise CircuitError(f"assignment has {len(bits)} bits, circuit has {n_inputs} inputs")
    if any(b not in (0, 1) for b in bits):
        raise CircuitError("assignment bits must be 0 or 1")


def _seed_values(c: Circuit, bits: Sequence[int]) -> list[int | None]:
    check_assignment(bits, c.n_inputs)
    vals: list[int | None] = [None] * len(c.gates)
    for g in c.gates:
        if g.kind is GateKind.INPUT:
            vals[g.id] = bits[g.id]
        elif g.kind is GateKind.CONST0:
            vals[g.id] = 0
        elif g.kind is GateKind.CONST1:
            vals[g.id] = 1
    return vals


def eval_serial(c: Circuit, bits: Sequence[int], meter: CostMeter | None = None) -> tuple[int, ...]:
    """Evaluate one gate after another in topological order (by depth, then id).

    Charges work = depth = number of logic gates: pure sequential cost.
    Returns the full value vector, one bit per gate id.
    """
    meter = meter if meter is not None else CostMeter()
    layers = topo_layers(c)
    vals = _seed_values(c, bits)
    for layer in layers:
        for gid in layer:
            g = c.gates[gid]
            vals[gid] = gate_value(g.kind, [vals[i] for i in g.inputs])
            meter.charge(1, 1)
    return tuple(vals)  # type: ignore[arg-type]


def eval_layered(c: Circuit, bits: Sequence[int], meter: CostMeter | None = None) -> tuple[int, ...]:
    """Evaluate whole layers at a time: same work as serial, depth = layer count.

    Gates within one layer never depend on each other, so the order inside a
    layer (or running a layer concurrently) cannot change any value.
    """
    meter = meter if meter is not None else CostMeter()
    vals = _seed_values(c, bits)
    for layer in topo_layers(c):
        for gid in layer:
            g = c.gates[gid]
            vals[gid] = gate_value(g.kind, [vals[i] for i in g.inputs])
        meter.charge(len(layer), 1)
    return tuple(vals)  # type: ignore[arg-type]


def cvp(c: Circuit, bits: Sequence[int]) -> int:
    """Circuit value: the output gate's bit under ``bits``."""
    return eval_serial(c, bits)[c.output]


def random_circuit(
    seed: int,
    n_inputs: int,
    n_gates: int,
    fanin_max: int = 3,
    majority_fraction: float = 0.25,
) -> Circuit:
    """Random DAG circuit: each gate draws distinct inputs among earlier ids.

    Deterministic in ``seed``; the result always satisfies ``validate``.
    """
    if n_inputs < 1 or n_gates < 1 or fanin_max < 1:
        raise ValueError("n_inputs, n_gates and fanin_max must all be >= 1")
    if not 0.0 <= majority_fraction <= 1.0:
        raise ValueError(f"majority_fraction {majority_fraction} outside [0, 1]")
    rng = random.Random(seed)
    gates = [Gate(i, GateKind.INPUT) for i in range(n_inputs)]
    for gid in range(n_inputs, n_inputs + n_gates):
        if rng.random() < majority_fraction:
            kind = GateKind.MAJORITY
        else:
            kind = rng.choice((GateKind.AND, GateKind.OR, GateKind.NOT))
        fanin = 1 if kind is GateKind.NOT else rng.randint(1, min(fanin_max, gid))
        inputs = tuple(sorted(rng.sample(range(gid), fanin)))
        gates.append(Gate(gid, kind, inputs))
    return Circuit(tuple(gates), n_inputs, n_inputs + n_gates - 1)
