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

import random
from dataclasses import dataclass
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
    stdlib_draws,
    terminal_values,
)


class AlternationError(CircuitError):
    """Monotonicity/alternation violation; offending edges in ``.edges``."""

    def __init__(self, message: str, edges: Sequence[tuple[int, int]] = ()):
        super().__init__(message)
        self.edges = tuple(edges)


def validate_alternating(c: Circuit) -> None:
    """Check that ``c``, valid since it was built, has only AND/OR logic gates and no same-kind edge."""
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


def is_depth_zero(cfg: CircuitConfig) -> bool:
    """True iff depth-of-one is 0, decided by scanning only the first layer.

    Any hot gate sits above a hot depth-1 gate — a hot AND forces all its
    feeds hot, and a hot OR either is first-layer itself or (because OR
    gates never mix terminal and gate feeds; see ``random_alt_circuit``)
    has a hot gate feed — so checking the gates fed entirely by terminals
    settles the question without a full evaluation.

    That OR precondition is a property of ``random_alt_circuit``'s output
    only: ``validate_alternating`` accepts an OR that mixes a hot terminal
    feed with gate feeds, and on such a circuit this can wrongly return
    True (ROADMAP item 1).
    """
    c = cfg.circuit
    vals = terminal_values(c, cfg.bits)
    for g in c.gates:
        if vals[g.id] is None:  # a logic gate
            in_vals = [vals[i] for i in g.inputs]
            if None not in in_vals and gate_value(g.kind, in_vals):
                return False
    return True


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


class EnvState(NamedTuple):
    """Immutable environment state; ``env_step`` returns successors.

    A named tuple, so states hash and compare by value (equal to a plain
    tuple of the same fields) and are cheap to build: every probe of an
    extraction is one, the chain probe from ``env_step`` and each circuit
    probe built as the same tuple ``env_step`` would return.
    """

    config: CircuitConfig
    chain_len: int
    phase: Phase
    chosen: frozenset[int]
    t: int
    horizon: int


# EnvState's own __new__ is a Python function that builds the same tuple; probe states skip that frame
_new_state = tuple.__new__


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


def _advance(s: EnvState) -> tuple[EnvState, int, bool]:
    """``s`` as ``env_step``'s successor: open before the horizon, else done with the terminal reward."""
    if s.t < s.horizon:
        return s, 0, False
    depths, hot, _ = _side_analysis(s)
    reward = 0 if any(g not in hot for g in s.chosen) else max((depths[g] for g in s.chosen), default=0)
    return EnvState(s.config, s.chain_len, Phase.DONE, s.chosen, s.t, s.horizon), reward, True


def env_step(s: EnvState, a: Action) -> tuple[EnvState, int, bool]:
    """Apply one action.

    Returns ``(next_state, reward, done)``.  A pick commits to its side and
    a select adds to it; either way, and on a pass, one step is taken.  The
    reward is 0 everywhere except the transition into the terminal state.
    Illegal actions — wrong action type for the phase, an id off the
    committed side, or a re-selection — leave the state unchanged with
    zero reward rather than raising.
    """
    if s.phase is Phase.DONE:
        return s, 0, True
    if s.phase is Phase.FORCED_CHOICE:
        if isinstance(a, PickCircuitGate):
            phase = Phase.SELECTING_CIRCUIT
        elif isinstance(a, PickChainGate):
            phase = Phase.SELECTING_CHAIN
        else:
            return s, 0, False
    elif isinstance(a, (SelectGate, Pass)):
        phase = s.phase
    else:
        return s, 0, False
    chosen = s.chosen
    if not isinstance(a, Pass):
        gid = a.gate_id
        on_side = gid in s.config.logic_gates if phase is Phase.SELECTING_CIRCUIT else 1 <= gid <= s.chain_len
        if not on_side or gid in chosen:
            return s, 0, False
        chosen = chosen | {gid}
    return _advance(EnvState(s.config, s.chain_len, phase, chosen, s.t + 1, s.horizon))


def optimal_value(s: EnvState) -> int:
    """Exact optimal state value: the best achievable terminal reward.

    Before the forced choice that is ``max(chain_len, depth_of_one)``.
    After it, a single cold chosen gate pins the value to 0; otherwise the
    best completion tops up to the deepest hot gate on the committed side,
    always reachable because at least one step remains.
    """
    phase = s.phase
    if phase is Phase.SELECTING_CIRCUIT:  # every circuit-side probe lands here
        a = s.config.analysis
        return a.depth_of_one if a.hot.issuperset(s.chosen) else 0
    if phase is Phase.DONE:
        return 0
    if phase is Phase.FORCED_CHOICE:
        return max(s.chain_len, depth_of_one(s.config))
    _, hot, deepest = _side_analysis(s)
    for g in s.chosen:  # chain side: a plain loop costs less than a generator
        if g not in hot:
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


def rollout(cfg: CircuitConfig, chain_len: int, policy: Callable[[EnvState], Action]) -> int:
    """Run one full episode under ``policy`` and return its total reward."""
    state = env_reset(cfg, chain_len)
    total = 0
    while state.phase is not Phase.DONE:
        action = policy(state)
        nxt, reward, done = env_step(state, action)
        if nxt == state and not done:
            raise RuntimeError(f"policy returned illegal action {action!r}; episode cannot advance")
        total += reward
        state = nxt
    return total


def extract_depth_of_one(cfg: CircuitConfig, value_fn: Callable[[EnvState], float]) -> int:
    """Bracket depth-of-one from value probes alone.

    After a free first-layer scan rules out the all-cold case, the circuit
    faces chains of length 2^l for l = 0..m (where m is the smallest power
    with gate count <= 2^m).  For each length, one probe per post-choice
    state asks ``value_fn`` whether committing to the circuit can match
    committing to the chain.  With the largest chain length the circuit
    still matches being 2^(k*), the estimate is 2^(k*) — promoted to the
    full gate count when k* = m, and falling back to 1 when the circuit
    never matches.  Total probes: (gate count + 1) * (m + 1), the chain probe
    first and then the gates in ascending id, each one ``value_fn`` call on the
    state ``env_step`` reaches from the length's reset state.  The chain probe
    goes through ``env_step``; each circuit probe's t = 1 ``EnvState`` is built
    directly, on the circuit side, or done when the horizon is 1 (a one-gate
    circuit at chain length 1), where the pick ends the episode.

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
    chain_pick = PickChainGate(1)
    picks = [frozenset((gid,)) for gid in ids]
    k_star: int | None = None
    for ell in range(m + 1):
        base = env_reset(cfg, 2**ell)
        v_chain = value_fn(env_step(base, chain_pick)[0])
        chain_len, horizon = base.chain_len, base.horizon
        phase = Phase.SELECTING_CIRCUIT if horizon > 1 else Phase.DONE  # the phase a pick reaches at t = 1
        probes = [value_fn(_new_state(EnvState, (cfg, chain_len, phase, chosen, 1, horizon))) for chosen in picks]
        if max(probes) >= v_chain:
            k_star = ell
    if k_star is None:
        return 1
    if k_star == m:
        return n
    return 2**k_star


def bracket(estimate: int, d1: int, eps: float) -> tuple[bool, str]:
    """Whether ``estimate`` meets ``extract_depth_of_one``'s bracket (strict at eps = 1) on ``d1``, and the check."""
    if estimate == 0:
        return d1 == 0, "estimate 0 expects depth-of-one 0"
    if eps == 1.0:
        return estimate <= d1 < 2 * estimate, f"{estimate} <= {d1} < {2 * estimate}"
    return eps * estimate <= d1 <= (2 / eps) * estimate, f"{eps * estimate:g} <= {d1} <= {2 * estimate / eps:g}"


class CountingOracle:
    """Wrap a value function and count how many probes it answers."""

    def __init__(self, fn: Callable[[EnvState], float]):
        self.fn = fn
        self.calls = 0

    def __call__(self, s: EnvState) -> float:
        self.calls += 1
        return self.fn(s)


class NoisyOracle:
    """Scale each exact value by independent noise in [eps, 1], drawn as ``Random.uniform(eps, 1.0)`` draws it."""

    def __init__(self, fn: Callable[[EnvState], float], epsilon: float, seed: int = 0):
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon {epsilon} outside (0, 1]")
        self.fn = fn
        self.epsilon = epsilon
        self._random = random.Random(seed).random

    def __call__(self, s: EnvState) -> float:
        return self.fn(s) * (self.epsilon + (1.0 - self.epsilon) * self._random())


def random_alt_circuit(seed: int, n_inputs: int, n_gates: int, fanin_max: int = 3) -> Circuit:
    """Random alternating circuit; AND gates mix feeds freely, OR gates do not.

    Each OR gate draws all of its feeds from a single source kind — either
    terminals or AND gates — never a mix.  A hot terminal wired straight
    into a deep, otherwise-cold OR would make that OR hot without any
    first-layer gate being hot, defeating ``is_depth_zero``'s scan; AND
    gates are immune because a hot AND forces every feed hot, including
    the gate feed that gives it its depth.  Like every ``Circuit``, the
    result is checked by ``validate`` when built, and it always satisfies
    ``validate_alternating``.

    On ``rng = random.Random(seed)`` each gate makes the draws of
    ``rng.choice((AND, OR))``, then for an OR with AND gates before it
    ``rng.random() < 0.5`` (true: the AND gates are its pool, false: the
    terminals), then ``rng.randint(1, min(fanin_max, len(pool)))`` and
    ``sorted(rng.sample(pool, fanin))``, where an AND gate's pool is the
    terminals followed by the OR gates, in id order.  ``stdlib_draws`` makes
    those draws and the sampled indices are mapped into the pool without
    building it; ``tests/test_do1.py::TestRandomAltCircuitMatchesStdlib``
    pins the gates.
    """
    if n_inputs < 1 or n_gates < 1 or fanin_max < 1:
        raise ValueError("n_inputs, n_gates and fanin_max must all be >= 1")
    rng = random.Random(seed)
    rand = rng.random
    below, sample = stdlib_draws(rng)
    gates = [Gate(i, GateKind.INPUT) for i in range(n_inputs)]
    ands: list[int] = []
    ors: list[int] = []
    for gid in range(n_inputs, n_inputs + n_gates):
        kind = (GateKind.AND, GateKind.OR)[below(2)]
        if kind is GateKind.AND:  # pool: terminals 0..n_inputs-1, then the OR gates
            n = n_inputs + len(ors)
            inputs = [j if j < n_inputs else ors[j - n_inputs] for j in sample(n, 1 + below(min(fanin_max, n)))]
            ands.append(gid)
        elif ands and rand() < 0.5:  # pool: the AND gates
            n = len(ands)
            inputs = [ands[j] for j in sample(n, 1 + below(min(fanin_max, n)))]
            ors.append(gid)
        else:  # pool: the terminals
            inputs = sample(n_inputs, 1 + below(min(fanin_max, n_inputs)))
            ors.append(gid)
        gates.append(Gate(gid, kind, tuple(sorted(inputs))))
    return Circuit(tuple(gates), n_inputs, n_inputs + n_gates - 1)


def random_alt_config(
    seed: int,
    n_inputs: int,
    n_gates: int,
    fanin_max: int = 3,
    require_hot: bool = False,
) -> CircuitConfig:
    """Random configuration; with ``require_hot`` redraw, up to 64 times, until depth-of-one >= 1.

    On ``rng = random.Random(seed)`` each draw is ``random_alt_circuit(rng.getrandbits(32), ...)``
    and then ``n_inputs`` bits, each the draws of ``rng.randint(0, 1)`` made as
    ``stdlib_draws``' ``below(2)``; ``tests/test_do1.py::TestRandomAltCircuitMatchesStdlib``
    pins the configurations.
    """
    rng = random.Random(seed)
    below = stdlib_draws(rng)[0]
    for _ in range(64):
        circuit = random_alt_circuit(rng.getrandbits(32), n_inputs, n_gates, fanin_max)
        bits = tuple(below(2) for _ in range(n_inputs))
        cfg = CircuitConfig(circuit, bits)
        if not require_hot or depth_of_one(cfg) >= 1:
            return cfg
    raise RuntimeError("no hot configuration found in 64 draws")
