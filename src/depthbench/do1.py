"""Depth-of-one over alternating circuits, and the forced-choice environment.

An alternating circuit is monotone: only AND/OR logic gates, and no gate
feeds a gate of its own kind.  The depth-of-one of a configuration
(circuit plus input assignment) is the maximum gate depth among *hot*
gates — gates outputting 1 — or 0 when everything is cold.

The environment pits such a configuration against a single chain of known
depth.  The first action commits to one side; from then on the agent may
select at most one unchosen gate per step on that side, for a horizon of
``max(chain_len, gate count)`` steps total.  The terminal reward is the
deepest chosen depth if every chosen gate is hot, else 0.  Probing an
exact (or multiplicatively noisy) state-value oracle against the
post-choice states of chains of length 1, 2, 4, ... recovers a factor-2
bracket on depth-of-one without ever running the circuit serially.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Collection, NamedTuple, Sequence

from .circuits import (
    TERMINALS,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    check_assignment,
    eval_serial,
    gate_value,
    logic_ids,
    validate,
)
from .netlist import format_netlist, parse_assignment, parse_netlist


class AlternationError(CircuitError):
    """Monotonicity/alternation violation; offending edges in ``.edges``."""

    def __init__(self, message: str, edges: Sequence[tuple[int, int]] = ()):
        super().__init__(message)
        self.edges = tuple(edges)


def validate_alternating(c: Circuit) -> None:
    """Check ``c`` is a valid circuit of AND/OR gates with no same-kind edge."""
    validate(c)
    bad_kinds = [g.id for g in c.gates if g.kind not in TERMINALS and g.kind not in (GateKind.AND, GateKind.OR)]
    if bad_kinds:
        raise AlternationError(f"only and/or logic gates allowed, got other kinds at gates {bad_kinds}")
    bad_edges = [
        (g.id, iid)
        for g in c.gates
        if g.kind in (GateKind.AND, GateKind.OR)
        for iid in g.inputs
        if c.gates[iid].kind is g.kind
    ]
    if bad_edges:
        listing = ", ".join(f"{a}<-{b}" for a, b in bad_edges)
        raise AlternationError(f"alternation violated on edges: {listing}", bad_edges)


class Analysis(NamedTuple):
    """What a configuration's evaluation says about depth-of-one."""

    hot: frozenset[int]
    depth_of_one: int
    deepest_hot: int | None  # lowest id among the hot gates at depth_of_one


@dataclass(frozen=True)
class CircuitConfig:
    """An alternating circuit fixed together with its input bits.

    ``logic_gates`` and ``analysis`` are computed on first use and kept on
    the instance; they are not fields, so equality and hashing still see
    only the circuit and the bits.
    """

    circuit: Circuit
    bits: tuple[int, ...]

    def __post_init__(self):
        validate_alternating(self.circuit)
        check_assignment(self.bits, self.circuit.n_inputs)

    @cached_property
    def logic_gates(self) -> frozenset[int]:
        return frozenset(logic_ids(self.circuit))

    @cached_property
    def analysis(self) -> Analysis:
        values = eval_serial(self.circuit, self.bits)
        depths = self.circuit.depths
        hot = frozenset(i for i in self.logic_gates if values[i])
        d = max((depths[i] for i in hot), default=0)
        deepest = min((i for i in hot if depths[i] == d), default=None)
        return Analysis(hot, d, deepest)


def depth_of_one(cfg: CircuitConfig) -> int:
    """Max gate depth among hot gates; 0 when no gate outputs 1."""
    return cfg.analysis.depth_of_one


def _terminal_value(gate: Gate, bits: Sequence[int]) -> int:
    if gate.kind is GateKind.INPUT:
        return bits[gate.id]
    return 1 if gate.kind is GateKind.CONST1 else 0


def is_depth_zero(cfg: CircuitConfig) -> bool:
    """True iff depth-of-one is 0, decided by scanning only the first layer.

    Any hot gate sits above a hot depth-1 gate — a hot AND forces all its
    feeds hot, and a hot OR either is first-layer itself or (because OR
    gates never mix terminal and gate feeds; see ``random_alt_circuit``)
    has a hot gate feed — so checking the gates fed entirely by terminals
    settles the question without a full evaluation.
    """
    c = cfg.circuit
    for g in c.gates:
        if g.kind in TERMINALS:
            continue
        if all(c.gates[i].kind in TERMINALS for i in g.inputs):
            in_vals = [_terminal_value(c.gates[i], cfg.bits) for i in g.inputs]
            if gate_value(g.kind, in_vals):
                return False
    return True


def make_chain(k: int) -> Circuit:
    """Alternating chain of k gates over one constant-1; gate j has depth j."""
    if k < 1:
        raise ValueError("chain length must be >= 1")
    gates = [Gate(0, GateKind.CONST1)]
    for j in range(1, k + 1):
        kind = GateKind.OR if j % 2 else GateKind.AND
        gates.append(Gate(j, kind, (j - 1,)))
    return Circuit(tuple(gates), 0, k)


class Phase(Enum):
    FORCED_CHOICE = "forced_choice"
    SELECTING_CIRCUIT = "selecting_circuit"
    SELECTING_CHAIN = "selecting_chain"
    DONE = "done"


@dataclass(frozen=True)
class PickCircuitGate:
    gate_id: int


@dataclass(frozen=True)
class PickChainGate:
    gate_id: int


@dataclass(frozen=True)
class SelectGate:
    gate_id: int


@dataclass(frozen=True)
class Pass:
    pass


PASS = Pass()

Action = PickCircuitGate | PickChainGate | SelectGate | Pass


@dataclass(frozen=True)
class EnvState:
    """Immutable environment state; ``env_step`` returns successors."""

    config: CircuitConfig
    chain_len: int
    phase: Phase
    chosen: frozenset[int]
    t: int
    horizon: int


def env_reset(cfg: CircuitConfig, chain_len: int) -> EnvState:
    """Fresh episode: forced choice pending, t = 0, horizon = max(k, gate count)."""
    if chain_len < 1:
        raise ValueError("chain_len must be >= 1")
    horizon = max(chain_len, len(cfg.logic_gates))
    return EnvState(cfg, chain_len, Phase.FORCED_CHOICE, frozenset(), 0, horizon)


def _side_analysis(s: EnvState) -> tuple[Sequence[int], Collection[int], int]:
    """(depths, hot gates, deepest hot depth) for the side the state committed to.

    Chain gate j is hot at depth j, so the chain side needs no evaluation.
    """
    if s.phase is Phase.SELECTING_CHAIN:
        k = s.chain_len
        return range(k + 1), range(1, k + 1), k
    a = s.config.analysis
    return s.config.circuit.depths, a.hot, a.depth_of_one


def _terminal_reward(s: EnvState) -> int:
    depths, hot, _ = _side_analysis(s)
    if any(g not in hot for g in s.chosen):
        return 0
    return max((depths[g] for g in s.chosen), default=0)


def _advance(s: EnvState) -> tuple[EnvState, int, bool]:
    if s.t < s.horizon:
        return s, 0, False
    reward = _terminal_reward(s)
    return replace(s, phase=Phase.DONE), reward, True


def env_step(s: EnvState, a: Action) -> tuple[EnvState, int, bool]:
    """Apply one action.

    Returns ``(next_state, reward, done)``.  The reward is 0 everywhere
    except the transition into the terminal state.  Illegal actions —
    wrong action type for the phase, an id off the committed side, or a
    re-selection — leave the state unchanged with zero reward rather than
    raising.
    """
    if s.phase is Phase.DONE:
        return s, 0, True
    if s.phase is Phase.FORCED_CHOICE:
        if isinstance(a, PickCircuitGate):
            if a.gate_id not in s.config.logic_gates:
                return s, 0, False
            nxt = replace(s, phase=Phase.SELECTING_CIRCUIT, chosen=frozenset({a.gate_id}), t=1)
        elif isinstance(a, PickChainGate):
            if not 1 <= a.gate_id <= s.chain_len:
                return s, 0, False
            nxt = replace(s, phase=Phase.SELECTING_CHAIN, chosen=frozenset({a.gate_id}), t=1)
        else:
            return s, 0, False
        return _advance(nxt)
    if isinstance(a, SelectGate):
        if s.phase is Phase.SELECTING_CIRCUIT:
            legal = a.gate_id in s.config.logic_gates
        else:
            legal = 1 <= a.gate_id <= s.chain_len
        if not legal or a.gate_id in s.chosen:
            return s, 0, False
        nxt = replace(s, chosen=s.chosen | {a.gate_id}, t=s.t + 1)
    elif isinstance(a, Pass):
        nxt = replace(s, t=s.t + 1)
    else:
        return s, 0, False
    return _advance(nxt)


def optimal_value(s: EnvState) -> int:
    """Exact optimal state value: the best achievable terminal reward.

    Before the forced choice that is ``max(chain_len, depth_of_one)``.
    After it, a single cold chosen gate pins the value to 0; otherwise the
    best completion tops up to the deepest hot gate on the committed side,
    always reachable because at least one step remains.
    """
    if s.phase is Phase.DONE:
        return 0
    if s.phase is Phase.FORCED_CHOICE:
        return max(s.chain_len, depth_of_one(s.config))
    _, hot, deepest = _side_analysis(s)
    if any(g not in hot for g in s.chosen):
        return 0
    return deepest


def oracle_policy(s: EnvState) -> Action:
    """Optimal play: commit to the deeper side, grab its deepest hot gate, pass.

    Ties at the forced choice go to the circuit.  The episode reward under
    this policy is exactly ``max(depth_of_one, chain_len)``.
    """
    if s.phase is Phase.DONE:
        raise ValueError("episode already finished")
    if s.phase is Phase.FORCED_CHOICE:
        if depth_of_one(s.config) >= s.chain_len:
            return PickCircuitGate(s.config.analysis.deepest_hot)
        return PickChainGate(s.chain_len)
    if s.phase is Phase.SELECTING_CIRCUIT:
        target = s.config.analysis.deepest_hot
    else:
        target = s.chain_len
    if target is not None and target not in s.chosen:
        return SelectGate(target)
    return PASS


@dataclass
class StepRecord:
    action: Action
    state: EnvState
    reward: int
    done: bool


@dataclass
class EpisodeResult:
    reward: int
    steps: list[StepRecord]


def rollout(cfg: CircuitConfig, chain_len: int, policy: Callable[[EnvState], Action]) -> EpisodeResult:
    """Run one full episode under ``policy`` and record every transition."""
    state = env_reset(cfg, chain_len)
    steps: list[StepRecord] = []
    total = 0
    while state.phase is not Phase.DONE:
        action = policy(state)
        nxt, reward, done = env_step(state, action)
        if nxt == state and not done:
            raise RuntimeError(f"policy returned illegal action {action!r}; episode cannot advance")
        steps.append(StepRecord(action, nxt, reward, done))
        total += reward
        state = nxt
    return EpisodeResult(total, steps)


_ACTION_TAGS = {
    PickCircuitGate: "pick_circuit",
    PickChainGate: "pick_chain",
    SelectGate: "select",
    Pass: "pass",
}


def action_to_dict(a: Action) -> dict:
    tag = _ACTION_TAGS[type(a)]
    if isinstance(a, Pass):
        return {"type": tag}
    return {"type": tag, "gate": a.gate_id}


def action_from_dict(d: dict) -> Action:
    tag = d.get("type")
    for cls, name in _ACTION_TAGS.items():
        if name == tag:
            return cls() if cls is Pass else cls(d["gate"])
    raise ValueError(f"unknown action type {tag!r}")


def state_obs(s: EnvState) -> dict:
    """The observable part of a state, as plain JSON-friendly data."""
    return {
        "phase": s.phase.value,
        "chosen": sorted(s.chosen),
        "t": s.t,
        "horizon": s.horizon,
        "chain_len": s.chain_len,
    }


def episode_to_jsonl(cfg: CircuitConfig, chain_len: int, result: EpisodeResult) -> str:
    """One JSON line per step, preceded by a header that makes replay self-contained."""
    header = {
        "netlist": format_netlist(cfg.circuit),
        "assignment": "".join(str(b) for b in cfg.bits),
        "chain_len": chain_len,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for rec in result.steps:
        lines.append(
            json.dumps(
                {
                    "action": action_to_dict(rec.action),
                    "obs": state_obs(rec.state),
                    "reward": rec.reward,
                    "done": rec.done,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def replay_jsonl(text: str) -> EpisodeResult:
    """Re-run a logged episode, checking each recorded observation on the way."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty episode log")
    header = json.loads(lines[0])
    circuit = parse_netlist(header["netlist"])
    bits = parse_assignment(header["assignment"], circuit.n_inputs)
    cfg = CircuitConfig(circuit, bits)
    state = env_reset(cfg, header["chain_len"])
    steps: list[StepRecord] = []
    total = 0
    for lineno, line in enumerate(lines[1:], 2):
        rec = json.loads(line)
        nxt, reward, done = env_step(state, action_from_dict(rec["action"]))
        if state_obs(nxt) != rec["obs"] or reward != rec["reward"] or done != rec["done"]:
            raise ValueError(f"replay diverged from the log at line {lineno}")
        steps.append(StepRecord(action_from_dict(rec["action"]), nxt, reward, done))
        total += reward
        state = nxt
    return EpisodeResult(total, steps)


def extract_depth_of_one(cfg: CircuitConfig, value_fn: Callable[[EnvState], float]) -> int:
    """Bracket depth-of-one from value probes alone.

    After a free first-layer scan rules out the all-cold case, the circuit
    faces chains of length 2^l for l = 0..m (where m is the smallest power
    with gate count <= 2^m).  For each length, one probe per post-choice
    state asks ``value_fn`` whether committing to the circuit can match
    committing to the chain.  With the largest chain length the circuit
    still matches being 2^(k*), the estimate is 2^(k*) — promoted to the
    full gate count when k* = m, and falling back to 1 when the circuit
    never matches.  Total probes: (gate count + 1) * (m + 1).

    With the exact ``optimal_value`` oracle the true depth-of-one d
    satisfies estimate <= d < 2 * estimate; if probes are scaled by noise
    in [eps, 1] the guarantee relaxes to eps * estimate <= d <= (2/eps) *
    estimate.
    """
    if is_depth_zero(cfg):
        return 0
    ids = logic_ids(cfg.circuit)
    n = len(ids)
    m = (n - 1).bit_length() if n > 1 else 0
    k_star: int | None = None
    for ell in range(m + 1):
        base = env_reset(cfg, 2**ell)
        chain_state, _, _ = env_step(base, PickChainGate(1))
        v_chain = value_fn(chain_state)
        best = None
        for gid in ids:
            probe_state, _, _ = env_step(base, PickCircuitGate(gid))
            v = value_fn(probe_state)
            best = v if best is None else max(best, v)
        if best >= v_chain:
            k_star = ell
    if k_star is None:
        return 1
    if k_star == m:
        return n
    return 2**k_star


class CountingOracle:
    """Wrap a value function and count how many probes it answers."""

    def __init__(self, fn: Callable[[EnvState], float]):
        self.fn = fn
        self.calls = 0

    def __call__(self, s: EnvState) -> float:
        self.calls += 1
        return self.fn(s)


class NoisyOracle:
    """Scale each exact value by independent noise drawn uniformly from [eps, 1]."""

    def __init__(self, fn: Callable[[EnvState], float], epsilon: float, seed: int = 0):
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon {epsilon} outside (0, 1]")
        self.fn = fn
        self.epsilon = epsilon
        self._rng = random.Random(seed)

    def __call__(self, s: EnvState) -> float:
        return self.fn(s) * self._rng.uniform(self.epsilon, 1.0)


def random_alt_circuit(seed: int, n_inputs: int, n_gates: int, fanin_max: int = 3) -> Circuit:
    """Random alternating circuit; AND gates mix feeds freely, OR gates do not.

    Each OR gate draws all of its feeds from a single source kind — either
    terminals or AND gates — never a mix.  A hot terminal wired straight
    into a deep, otherwise-cold OR would make that OR hot without any
    first-layer gate being hot, defeating ``is_depth_zero``'s scan; AND
    gates are immune because a hot AND forces every feed hot, including
    the gate feed that gives it its depth.
    """
    if n_inputs < 1 or n_gates < 1 or fanin_max < 1:
        raise ValueError("n_inputs, n_gates and fanin_max must all be >= 1")
    rng = random.Random(seed)
    gates = [Gate(i, GateKind.INPUT) for i in range(n_inputs)]
    by_kind: dict[GateKind, list[int]] = {GateKind.AND: [], GateKind.OR: []}
    for gid in range(n_inputs, n_inputs + n_gates):
        kind = rng.choice((GateKind.AND, GateKind.OR))
        opposite = GateKind.OR if kind is GateKind.AND else GateKind.AND
        if kind is GateKind.OR and by_kind[opposite] and rng.random() < 0.5:
            pool = list(by_kind[opposite])
        elif kind is GateKind.OR:
            pool = list(range(n_inputs))
        else:
            pool = list(range(n_inputs)) + by_kind[opposite]
        fanin = rng.randint(1, min(fanin_max, len(pool)))
        inputs = tuple(sorted(rng.sample(pool, fanin)))
        gates.append(Gate(gid, kind, inputs))
        by_kind[kind].append(gid)
    return Circuit(tuple(gates), n_inputs, n_inputs + n_gates - 1)


def random_alt_config(
    seed: int,
    n_inputs: int,
    n_gates: int,
    fanin_max: int = 3,
    require_hot: bool = False,
    max_tries: int = 64,
) -> CircuitConfig:
    """Random configuration; with ``require_hot`` redraw until depth-of-one >= 1."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        circuit = random_alt_circuit(rng.getrandbits(32), n_inputs, n_gates, fanin_max)
        bits = tuple(rng.randint(0, 1) for _ in range(n_inputs))
        cfg = CircuitConfig(circuit, bits)
        if not require_hot or depth_of_one(cfg) >= 1:
            return cfg
    raise RuntimeError(f"no hot configuration found in {max_tries} draws")
