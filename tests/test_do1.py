"""Depth-of-one, the forced-choice environment, and probe extraction."""

import gc
import hashlib
import itertools
import math
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from depthbench import circuits
from depthbench.circuits import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    eval_layered,
    eval_serial,
    gate_depths,
    logic_ids,
    topo_layers,
)
from depthbench.do1 import (
    PASS,
    AlternationError,
    CircuitConfig,
    CountingOracle,
    EnvState,
    NoisyOracle,
    Phase,
    PickChainGate,
    PickCircuitGate,
    SelectGate,
    bracket,
    depth_of_one,
    env_reset,
    env_step,
    extract_depth_of_one,
    is_depth_zero,
    optimal_value,
    oracle_policy,
    random_alt_circuit,
    random_alt_config,
    rollout,
    validate_alternating,
)
from depthbench.netlist import parse_netlist

from oracles import brute_force_value, legal_actions, memo_depths, recursive_eval
from strategies import alt_configs


def cfg_from(circuit, bits):
    return CircuitConfig(circuit, tuple(bits))


def make_chain(k: int) -> Circuit:
    """Alternating chain of k gates over one constant-1; gate j has depth j."""
    if k < 1:
        raise ValueError("chain length must be >= 1")
    gates = [Gate(0, GateKind.CONST1)]
    for j in range(1, k + 1):
        kind = GateKind.OR if j % 2 else GateKind.AND
        gates.append(Gate(j, kind, (j - 1,)))
    return Circuit(tuple(gates), 0, k)


def reference_d1(cfg):
    """Independent depth-of-one: recursive evaluator + recursive depth table."""
    values = recursive_eval(cfg.circuit, cfg.bits)
    depths = memo_depths(cfg.circuit)
    hot = [depths[i] for i in logic_ids(cfg.circuit) if values[i]]
    return max(hot, default=0)


class TestAlternation:
    def test_same_kind_edge_reported(self):
        gates = (
            Gate(0, GateKind.INPUT),
            Gate(1, GateKind.AND, (0,)),
            Gate(2, GateKind.AND, (1,)),
        )
        with pytest.raises(AlternationError) as exc_info:
            validate_alternating(Circuit(gates, 1, 2))
        assert exc_info.value.edges == ((2, 1),)
        assert "2<-1" in str(exc_info.value)

    def test_not_gate_rejected(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.NOT, (0,)))
        with pytest.raises(AlternationError, match="only and/or"):
            validate_alternating(Circuit(gates, 1, 1))

    def test_config_validates_on_construction(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.AND, (0,)), Gate(2, GateKind.AND, (1,)))
        with pytest.raises(AlternationError):
            cfg_from(Circuit(gates, 1, 2), (1,))

    def test_config_rejects_non_binary_bits(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.INPUT), Gate(2, GateKind.AND, (0, 1)))
        with pytest.raises(CircuitError, match="^assignment bits must be 0 or 1$"):
            CircuitConfig(Circuit(gates, 2, 2), (2, 1))
        with pytest.raises(CircuitError, match="^assignment has 1 bits, circuit has 2 inputs$"):
            CircuitConfig(Circuit(gates, 2, 2), (2,))

    def test_random_alt_circuits_always_alternate(self):
        for seed in range(300):
            validate_alternating(random_alt_circuit(seed, 1 + seed % 5, 1 + seed % 30))


def stdlib_random_alt_circuit(seed, n_inputs, n_gates, fanin_max=3):
    """The gates ``random_alt_circuit`` must build, drawn through Random's own methods from a built pool."""
    rng = random.Random(seed)
    gates = [Gate(i, GateKind.INPUT) for i in range(n_inputs)]
    by_kind = {GateKind.AND: [], GateKind.OR: []}
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
    return tuple(gates)


def stdlib_random_alt_config(seed, n_inputs, n_gates, fanin_max=3, require_hot=False):
    """The (gates, bits) ``random_alt_config`` must return, its bits drawn with ``randint``."""
    rng = random.Random(seed)
    for _ in range(64):
        gates = stdlib_random_alt_circuit(rng.getrandbits(32), n_inputs, n_gates, fanin_max)
        bits = tuple(rng.randint(0, 1) for _ in range(n_inputs))
        if not require_hot or depth_of_one(cfg_from(Circuit(gates, n_inputs, len(gates) - 1), bits)) >= 1:
            return gates, bits
    raise RuntimeError("no hot configuration found in 64 draws")


class TestRandomAltCircuitMatchesStdlib:
    """random_alt_circuit and random_alt_config copy Random's draws; a Python
    whose Random draws differently fails here by name, not only through the sweep digest."""

    @pytest.mark.parametrize("seed", [0, 1, 42, -1, -(2**40), 2**64, 2**64 + 1, 3**50])
    @pytest.mark.parametrize(
        "n_inputs, n_gates, fanin_max", [(1, 1, 1), (8, 64, 3), (8, 512, 3), (2, 80, 8), (4, 200, 12)]
    )
    def test_fixed_seeds(self, seed, n_inputs, n_gates, fanin_max):
        c = random_alt_circuit(seed, n_inputs, n_gates, fanin_max)
        assert c.gates == stdlib_random_alt_circuit(seed, n_inputs, n_gates, fanin_max)

    # fanin_max past 5 grows sample's set size, so small pools take the pool path
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(-(2**70), 2**70),
        n_inputs=st.integers(1, 8),
        n_gates=st.integers(1, 64),
        fanin_max=st.integers(1, 8),
    )
    def test_drawn_params(self, seed, n_inputs, n_gates, fanin_max):
        c = random_alt_circuit(seed, n_inputs, n_gates, fanin_max)
        assert c.gates == stdlib_random_alt_circuit(seed, n_inputs, n_gates, fanin_max)

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 + 1])
    @pytest.mark.parametrize("require_hot", [False, True])
    def test_configs(self, seed, require_hot):
        for n_inputs, n_gates in [(1, 1), (3, 8), (8, 64)]:
            cfg = random_alt_config(seed, n_inputs, n_gates, require_hot=require_hot)
            assert (cfg.circuit.gates, cfg.bits) == stdlib_random_alt_config(seed, n_inputs, n_gates, 3, require_hot)


class TestDepthOfOne:
    def test_chain_depths(self):
        for k in (1, 2, 3, 5, 8, 16, 64):
            chain = make_chain(k)
            cfg = cfg_from(chain, ())
            assert depth_of_one(cfg) == k
            assert memo_depths(chain)[chain.output] == k

    def test_all_cold_is_zero(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.OR, (0,)), Gate(2, GateKind.AND, (1, 0)))
        cfg = cfg_from(Circuit(gates, 1, 2), (0,))
        assert depth_of_one(cfg) == 0
        assert is_depth_zero(cfg)

    def test_partial_heat(self):
        # OR(x0) at depth 1 hot, AND(or, x1) at depth 2 cold when x1=0
        gates = (
            Gate(0, GateKind.INPUT),
            Gate(1, GateKind.INPUT),
            Gate(2, GateKind.OR, (0,)),
            Gate(3, GateKind.AND, (2, 1)),
        )
        c = Circuit(gates, 2, 3)
        assert depth_of_one(cfg_from(c, (1, 0))) == 1
        assert depth_of_one(cfg_from(c, (1, 1))) == 2
        assert depth_of_one(cfg_from(c, (0, 1))) == 0

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, seed):
        cfg = random_alt_config(seed, n_inputs=1 + seed % 6, n_gates=1 + seed % 40)
        assert depth_of_one(cfg) == reference_d1(cfg)

    def test_first_layer_scan_agrees_with_d1(self):
        for seed in range(1000):
            cfg = random_alt_config(seed, n_inputs=1 + seed % 4, n_gates=1 + seed % 12)
            assert is_depth_zero(cfg) == (depth_of_one(cfg) == 0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flip=st.integers(0, 7))
    def test_monotone_in_inputs(self, seed, flip):
        cfg = random_alt_config(seed, n_inputs=1 + seed % 8, n_gates=1 + seed % 25)
        n = cfg.circuit.n_inputs
        bits = list(cfg.bits)
        bits[flip % n] = 0
        low = depth_of_one(cfg_from(cfg.circuit, bits))
        bits[flip % n] = 1
        high = depth_of_one(cfg_from(cfg.circuit, bits))
        assert high >= low


def two_gate_cfg(bits=(1, 1)):
    """x0, x1 -> OR(x0) depth 1, AND(or, x1) depth 2."""
    gates = (
        Gate(0, GateKind.INPUT),
        Gate(1, GateKind.INPUT),
        Gate(2, GateKind.OR, (0,)),
        Gate(3, GateKind.AND, (2, 1)),
    )
    return cfg_from(Circuit(gates, 2, 3), bits)


class TestAnalysisLifetime:
    def test_config_is_freed_after_extraction(self):
        cfg = random_alt_config(23, n_inputs=4, n_gates=40, require_hot=True)
        extract_depth_of_one(cfg, optimal_value)
        ref = weakref.ref(cfg)
        del cfg
        gc.collect()
        assert ref() is None

    def test_depths_computed_once_per_circuit(self, monkeypatch):
        calls = []

        def counting(c):
            calls.append(c)
            return gate_depths(c)

        monkeypatch.setattr(circuits, "gate_depths", counting)
        c = random_alt_circuit(31, 5, 60)
        bits = (1,) * c.n_inputs  # all inputs hot: every gate is hot, so extraction analyses
        cfg = CircuitConfig(c, bits)
        assert extract_depth_of_one(cfg, optimal_value) >= 1
        assert eval_layered(c, bits) == eval_serial(c, bits)
        assert len(topo_layers(c)) == depth_of_one(cfg)
        assert len(calls) == 1 and calls[0] is c

    def test_analysed_config_equals_fresh_copy(self):
        cfg = random_alt_config(29, n_inputs=4, n_gates=30, require_hot=True)
        fresh = cfg_from(cfg.circuit, cfg.bits)
        assert depth_of_one(cfg) == reference_d1(cfg)
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert env_reset(cfg, 3) == env_reset(fresh, 3)


class TestChainSide:
    """The chain side is answered in closed form; check it against a real chain."""

    @pytest.mark.parametrize("k", range(1, 17))
    def test_values_and_rewards_match_evaluated_chain(self, k):
        chain = make_chain(k)
        values, depths = eval_serial(chain, ()), gate_depths(chain)
        hot = {j for j in range(1, k + 1) if values[j]}
        base = env_reset(two_gate_cfg(), k)
        picks = sorted({1, max(1, k // 2), k})
        for first, extra in itertools.product(picks, [None] + picks):
            actions = [PickChainGate(first)] + ([SelectGate(extra)] if extra is not None else [])
            s, done = base, False
            while not done:
                s, reward, done = env_step(s, actions.pop(0) if actions else PASS)
                if not done:
                    want = max(depths[j] for j in hot) if s.chosen <= hot else 0
                    assert optimal_value(s) == want
            want = max(depths[g] for g in s.chosen) if s.chosen <= hot else 0
            assert reward == want


class TestEnvMechanics:
    def test_reset_is_deterministic(self):
        cfg = two_gate_cfg()
        assert env_reset(cfg, 4) == env_reset(cfg, 4)

    def test_horizon_is_max_of_sides(self):
        cfg = random_alt_config(3, n_inputs=4, n_gates=10)
        assert env_reset(cfg, 4).horizon == 10
        assert env_reset(cfg, 20).horizon == 20

    def test_forced_choice_transitions(self):
        cfg = two_gate_cfg()
        s0 = env_reset(cfg, 4)
        assert (s0.phase, s0.t, s0.chosen) == (Phase.FORCED_CHOICE, 0, frozenset())
        s1, r, done = env_step(s0, PickCircuitGate(3))
        assert (s1.phase, s1.t, s1.chosen) == (Phase.SELECTING_CIRCUIT, 1, frozenset({3}))
        assert (r, done) == (0, False)
        s1c, _, _ = env_step(s0, PickChainGate(2))
        assert (s1c.phase, s1c.chosen) == (Phase.SELECTING_CHAIN, frozenset({2}))

    def test_illegal_actions_leave_state_unchanged(self):
        cfg = two_gate_cfg()
        s0 = env_reset(cfg, 4)
        for bad in (PickCircuitGate(0), PickCircuitGate(99), PickChainGate(0), PickChainGate(5), SelectGate(2), PASS):
            assert env_step(s0, bad) == (s0, 0, False)
        s1, _, _ = env_step(s0, PickCircuitGate(2))
        for bad in (PickCircuitGate(3), PickChainGate(1), SelectGate(2), SelectGate(1), SelectGate(99)):
            assert env_step(s1, bad) == (s1, 0, False)

    def test_terminal_reward_all_hot(self):
        cfg = two_gate_cfg((1, 1))  # both gates hot
        s, _, _ = env_step(env_reset(cfg, 2), PickCircuitGate(3))
        s, r, done = env_step(s, SelectGate(2))
        assert (r, done, s.phase) == (2, True, Phase.DONE)

    def test_terminal_reward_zero_if_any_cold(self):
        cfg = two_gate_cfg((1, 0))  # AND gate 3 cold
        s, _, _ = env_step(env_reset(cfg, 2), PickCircuitGate(3))
        s, r, done = env_step(s, PASS)
        assert (r, done) == (0, True)

    def test_reward_only_at_horizon(self):
        cfg = random_alt_config(11, n_inputs=3, n_gates=6)
        s = env_reset(cfg, 3)
        rewards = []
        s, r, done = env_step(s, oracle_policy(s))
        rewards.append(r)
        while not done:
            s, r, done = env_step(s, PASS)
            rewards.append(r)
        assert len(rewards) == s.horizon
        assert all(r == 0 for r in rewards[:-1])

    def test_done_steps_are_absorbing(self):
        cfg = two_gate_cfg()
        s, _, _ = env_step(env_reset(cfg, 1), PickChainGate(1))
        s, _, done = env_step(s, PASS)  # horizon = max(1, 2 logic gates) = 2
        assert done and s.phase is Phase.DONE
        assert env_step(s, PASS) == (s, 0, True)

    def test_chain_pick_then_fill(self):
        cfg = two_gate_cfg()
        s, _, _ = env_step(env_reset(cfg, 2), PickChainGate(1))
        s, r, done = env_step(s, SelectGate(2))
        assert (r, done) == (2, True)

    def test_oracle_policy_selects_an_unchosen_target(self):
        # a first pick the oracle would not make: it still grabs the chain's deepest gate next
        s, _, _ = env_step(env_reset(two_gate_cfg(), 4), PickChainGate(1))
        assert oracle_policy(s) == SelectGate(4)
        s, _, _ = env_step(s, SelectGate(4))
        assert oracle_policy(s) is PASS


class TestOptimalValue:
    def test_forced_choice_value(self):
        cfg = two_gate_cfg((1, 1))  # d1 = 2
        assert optimal_value(env_reset(cfg, 5)) == 5
        assert optimal_value(env_reset(cfg, 1)) == 2

    def test_value_zero_after_cold_pick(self):
        cfg = two_gate_cfg((1, 0))
        s, _, _ = env_step(env_reset(cfg, 2), PickCircuitGate(3))
        assert optimal_value(s) == 0

    def test_value_matches_brute_force_on_reachable_states(self):
        for seed in (0, 1, 2, 3):
            cfg = random_alt_config(seed, n_inputs=2, n_gates=4)
            for chain_len in (1, 2, 4, 6):
                root = env_reset(cfg, chain_len)
                frontier = [root]
                seen = set()
                while frontier:
                    s = frontier.pop()
                    key = (s.phase, s.chosen, s.t)
                    if key in seen:
                        continue
                    seen.add(key)
                    assert optimal_value(s) == brute_force_value(s)
                    if s.phase is not Phase.DONE:
                        for a in legal_actions(s):
                            nxt, _, _ = env_step(s, a)
                            frontier.append(nxt)


class TestOraclePolicy:
    def test_prefers_deeper_circuit(self):
        cfg = random_alt_config(7, n_inputs=4, n_gates=30, require_hot=True)
        d1 = depth_of_one(cfg)
        assert d1 >= 2
        assert rollout(cfg, 1, oracle_policy) == d1

    def test_prefers_longer_chain(self):
        cfg = two_gate_cfg((1, 1))  # d1 = 2
        assert rollout(cfg, 8, oracle_policy) == 8

    def test_tie_goes_to_circuit(self):
        cfg = two_gate_cfg((1, 1))
        s = env_reset(cfg, 2)
        assert oracle_policy(s) == PickCircuitGate(3)

    def test_episode_reward_is_max(self):
        for seed in range(30):
            cfg = random_alt_config(seed, n_inputs=3, n_gates=8)
            for chain_len in (1, 3, 7):
                want = max(depth_of_one(cfg), chain_len)
                assert rollout(cfg, chain_len, oracle_policy) == want

    def test_raises_on_done(self):
        cfg = two_gate_cfg()
        s, _, _ = env_step(env_reset(cfg, 1), PickChainGate(1))
        s, _, _ = env_step(s, PASS)
        assert s.phase is Phase.DONE
        with pytest.raises(ValueError):
            oracle_policy(s)


class TestExtraction:
    def test_zero_depth_short_circuits(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.OR, (0,)))
        cfg = cfg_from(Circuit(gates, 1, 1), (0,))
        counting = CountingOracle(optimal_value)
        assert extract_depth_of_one(cfg, counting) == 0
        assert counting.calls == 0

    def test_depth_five_chain_gives_four(self):
        cfg = cfg_from(make_chain(5), ())  # 5 gates, d1 = 5, m = 3
        counting = CountingOracle(optimal_value)
        assert extract_depth_of_one(cfg, counting) == 4
        assert counting.calls == (5 + 1) * (3 + 1)

    def test_power_of_two_chains_are_exact(self):
        for k in (1, 2, 4, 8):
            cfg = cfg_from(make_chain(k), ())
            assert extract_depth_of_one(cfg, optimal_value) == k

    def test_exact_oracle_closed_form(self):
        for seed in range(120):
            cfg = random_alt_config(seed, n_inputs=1 + seed % 4, n_gates=1 + seed % 50, require_hot=True)
            n = len(logic_ids(cfg.circuit))
            m = (n - 1).bit_length()
            d1 = reference_d1(cfg)
            want = n if math.floor(math.log2(d1)) >= m else 2 ** math.floor(math.log2(d1))
            assert extract_depth_of_one(cfg, optimal_value) == want

    def test_bracket_and_probe_budget(self):
        for seed in range(100):
            cfg = random_alt_config(seed, n_inputs=1 + seed % 5, n_gates=1 + seed % 60, require_hot=True)
            n = len(logic_ids(cfg.circuit))
            m = (n - 1).bit_length()
            counting = CountingOracle(optimal_value)
            estimate = extract_depth_of_one(cfg, counting)
            d1 = depth_of_one(cfg)
            assert estimate <= d1 < 2 * estimate
            assert counting.calls <= (n + 1) * (m + 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps_choice=st.sampled_from([0.5, 0.8]), noise_seed=st.integers(0, 999))
    def test_noisy_bracket_property(self, seed, eps_choice, noise_seed):
        cfg = random_alt_config(seed, n_inputs=1 + seed % 4, n_gates=1 + seed % 40, require_hot=True)
        oracle = NoisyOracle(optimal_value, eps_choice, noise_seed)
        estimate = extract_depth_of_one(cfg, oracle)
        d1 = depth_of_one(cfg)
        assert eps_choice * estimate <= d1 <= (2 / eps_choice) * estimate

    def test_bracket_checks_and_reports_the_inequality(self):
        assert bracket(4, 5, 1.0) == (True, "4 <= 5 < 8")
        assert bracket(4, 8, 1.0) == (False, "4 <= 8 < 8")
        assert bracket(4, 8, 0.5) == (True, "2 <= 8 <= 16")
        assert bracket(4, 1, 0.5) == (False, "2 <= 1 <= 16")
        assert bracket(3, 6, 0.3) == (True, "0.9 <= 6 <= 20")
        assert bracket(0, 0, 0.5) == (True, "estimate 0 expects depth-of-one 0")
        assert bracket(0, 2, 1.0) == (False, "estimate 0 expects depth-of-one 0")

    def test_noisy_oracle_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            NoisyOracle(optimal_value, 0.0)
        with pytest.raises(ValueError):
            NoisyOracle(optimal_value, 1.5)

    def test_single_gate_instance(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.OR, (0,)))
        cfg = cfg_from(Circuit(gates, 1, 1), (1,))  # n = 1, d1 = 1, m = 0
        assert extract_depth_of_one(cfg, optimal_value) == 1


# sha256 of ``extraction_digest``'s "seed estimate probes" lines: any change
# to an estimate, a probe count or the order in which probes consume the
# noisy oracles' draws changes it.
EXTRACTION_DIGEST = "bfa24dbd2c954acd5079959a276471fa55f3269ad5a4c2ce3781c75bfa639190"


def extraction_digest():
    h = hashlib.sha256()
    for seed in range(240):
        cfg = random_alt_config(seed, n_inputs=1 + seed % 5, n_gates=1 + seed % 40, require_hot=True)
        for oracle in (optimal_value, NoisyOracle(optimal_value, 0.5, seed), NoisyOracle(optimal_value, 0.8, seed)):
            counting = CountingOracle(oracle)
            estimate = extract_depth_of_one(cfg, counting)
            h.update(f"{seed} {estimate} {counting.calls}\n".encode())
    return h.hexdigest()


class TestExtractionPinned:
    def test_estimates_and_probe_counts_are_pinned(self):
        assert extraction_digest() == EXTRACTION_DIGEST

    def test_probe_states_in_order(self):
        """Per chain length 1, 2, 4: the chain probe, then each circuit gate in ascending id."""
        gates = two_gate_cfg().circuit.gates + (Gate(4, GateKind.OR, (3,)),)
        cfg = cfg_from(Circuit(gates, 2, 4), (1, 1))  # 3 logic gates, d1 = 3, m = 2
        seen = []

        def value_fn(s):
            seen.append((s.phase, s.chain_len, s.chosen, s.t, s.horizon))
            return optimal_value(s)

        assert extract_depth_of_one(cfg, value_fn) == 2
        chain, circuit = Phase.SELECTING_CHAIN, Phase.SELECTING_CIRCUIT
        assert seen == [
            (chain, 1, {1}, 1, 3), (circuit, 1, {2}, 1, 3), (circuit, 1, {3}, 1, 3), (circuit, 1, {4}, 1, 3),
            (chain, 2, {1}, 1, 3), (circuit, 2, {2}, 1, 3), (circuit, 2, {3}, 1, 3), (circuit, 2, {4}, 1, 3),
            (chain, 4, {1}, 1, 4), (circuit, 4, {2}, 1, 4), (circuit, 4, {3}, 1, 4), (circuit, 4, {4}, 1, 4),
        ]  # fmt: skip


def reference_probe_states(cfg):
    """The states extraction should probe, built by ``env_step`` from each length's reset state."""
    if is_depth_zero(cfg):
        return []
    ids = logic_ids(cfg.circuit)
    m = (len(ids) - 1).bit_length()
    states = []
    for ell in range(m + 1):
        base = env_reset(cfg, 2**ell)
        states.append(env_step(base, PickChainGate(1))[0])
        states.extend(env_step(base, PickCircuitGate(gid))[0] for gid in ids)
    return states


def recording_extraction(cfg):
    seen = []

    def value_fn(s):
        seen.append(s)
        return optimal_value(s)

    return extract_depth_of_one(cfg, value_fn), seen


class TestProbeStates:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_inputs=st.integers(1, 6), n_gates=st.integers(1, 40))
    def test_extraction_probes_the_states_env_step_builds(self, seed, n_inputs, n_gates):
        cfg = random_alt_config(seed, n_inputs, n_gates)
        _, seen = recording_extraction(cfg)
        assert seen == reference_probe_states(cfg)
        assert all(type(s) is EnvState for s in seen)  # a bare tuple of the same fields would compare equal

    def test_two_gate_circuit_probes_built_states_at_horizon_two(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.OR, (0,)), Gate(2, GateKind.AND, (1,)))
        cfg = cfg_from(Circuit(gates, 1, 2), (1,))  # horizon max(1, 2) = 2 at chain length 1: t = 1 stays open
        estimate, seen = recording_extraction(cfg)
        assert estimate == 2
        assert seen == reference_probe_states(cfg)
        assert all(type(s) is EnvState for s in seen)
        assert seen[1] == (cfg, 1, Phase.SELECTING_CIRCUIT, frozenset({1}), 1, 2)
        assert seen[2] == (cfg, 1, Phase.SELECTING_CIRCUIT, frozenset({2}), 1, 2)
        assert len(seen) == 6  # (2 + 1) probes at chain lengths 1 and 2

    def test_one_gate_circuit_probes_a_done_state(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.OR, (0,)))
        cfg = cfg_from(Circuit(gates, 1, 1), (1,))  # horizon max(1, 1) = 1: the pick ends the episode
        estimate, seen = recording_extraction(cfg)
        assert estimate == 1
        assert seen == reference_probe_states(cfg)
        assert seen[1] == (cfg, 1, Phase.DONE, frozenset({1}), 1, 1)


def scan_value(s):
    """``optimal_value`` as one scan of the chosen gates against the committed side's hot set."""
    if s.phase is Phase.DONE:
        return 0
    if s.phase is Phase.FORCED_CHOICE:
        return max(s.chain_len, depth_of_one(s.config))
    if s.phase is Phase.SELECTING_CHAIN:
        hot, deepest = range(1, s.chain_len + 1), s.chain_len
    else:
        hot, deepest = s.config.analysis.hot, s.config.analysis.depth_of_one
    for g in s.chosen:
        if g not in hot:
            return 0
    return deepest


class TestValueAnswers:
    def test_optimal_value_matches_the_scan_in_every_phase(self):
        for seed in range(30):
            cfg = random_alt_config(seed, n_inputs=1 + seed % 4, n_gates=1 + seed % 12)
            ids = logic_ids(cfg.circuit)
            hot = sorted(cfg.analysis.hot)
            cold = sorted(set(ids) - cfg.analysis.hot)
            for chain_len in (1, 2, 3, 8):
                sides = [  # (hot, cold, off-side) ids of the circuit, then of the chain
                    (hot, cold, [0, cfg.circuit.n_inputs - 1, 10_000]),
                    (list(range(1, chain_len + 1)), [], [0, chain_len + 1, -1]),
                ]
                choices = [frozenset()]
                for good, bad, off in sides:
                    choices += [frozenset({g}) for g in good + bad + off]
                    choices += [frozenset(good), frozenset(good[:2]), frozenset(good[:1] + bad[:1])]
                    choices += [frozenset(good[:1] + off[:1]), frozenset(bad + off)]
                for phase in Phase:
                    for chosen in choices:
                        s = EnvState(cfg, chain_len, phase, chosen, len(chosen), max(chain_len, len(ids)))
                        assert optimal_value(s) == scan_value(s), s

    @pytest.mark.parametrize("eps", [0.5, 0.8, 1.0, 1e-9])
    def test_noisy_oracle_draws_exactly_what_uniform_draws(self, eps):
        for seed in (0, 7, 2**40 + 3):
            oracle = NoisyOracle(lambda x: x, eps, seed)
            rng = random.Random(seed)
            for i in range(1000):
                x = (i * 7919) % 13
                got, want = oracle(x), x * rng.uniform(eps, 1.0)
                assert got.hex() == want.hex(), (seed, i)


class TestStateContract:
    def test_every_action_leaves_its_input_state_unchanged(self):
        cfg = two_gate_cfg()
        s0 = env_reset(cfg, 3)  # horizon 3
        s_circuit, _, _ = env_step(s0, PickCircuitGate(3))
        s_chain, _, _ = env_step(s0, PickChainGate(2))
        s_last, _, _ = env_step(s_circuit, PASS)  # the next legal step ends the episode
        s_done, _, done = env_step(s_last, PASS)
        assert done
        actions = (PickCircuitGate(2), PickCircuitGate(3), PickChainGate(1), PASS)
        actions += tuple(SelectGate(g) for g in (1, 2, 3))
        for s in (s0, s_circuit, s_chain, s_last, s_done):
            before = (s.config, s.chain_len, s.phase, frozenset(s.chosen), s.t, s.horizon)
            for a in actions:
                env_step(s, a)
                assert tuple(s) == before, (s, a)
        with pytest.raises(AttributeError):
            s0.t = 1

    def test_successors_hash_and_compare_by_value(self):
        cfg = two_gate_cfg()
        s1, _, _ = env_step(env_reset(cfg, 5), PickCircuitGate(3))
        via_select = env_step(env_step(s1, SelectGate(2))[0], PASS)[0]
        via_pass = env_step(env_step(s1, PASS)[0], SelectGate(2))[0]
        assert via_select is not via_pass
        assert via_select == via_pass and hash(via_select) == hash(via_pass)
        assert {via_select: "seen"}[via_pass] == "seen"
        assert via_select == (cfg, 5, Phase.SELECTING_CIRCUIT, frozenset({2, 3}), 3, 5)
        config, chain_len, phase, chosen, t, horizon = via_pass
        assert (phase, chosen, t) == (Phase.SELECTING_CIRCUIT, {2, 3}, 3)
        assert via_select != env_step(s1, SelectGate(2))[0]

    def test_rollout_rejects_illegal_action(self):
        cfg = two_gate_cfg()
        with pytest.raises(RuntimeError, match="illegal action PickChainGate"):
            rollout(cfg, 2, lambda s: PickChainGate(0))
        with pytest.raises(RuntimeError, match="illegal action SelectGate"):
            rollout(cfg, 4, lambda s: PickCircuitGate(3) if s.phase is Phase.FORCED_CHOICE else SelectGate(3))


class TestEnvExhaustive:
    def test_policy_equals_brute_force_small(self):
        for seed in range(24):
            n_gates = 1 + seed % 8
            cfg = random_alt_config(seed, n_inputs=1 + seed % 3, n_gates=n_gates)
            for chain_len in range(1, 9):
                root = env_reset(cfg, chain_len)
                brute = brute_force_value(root)
                policy_reward = rollout(cfg, chain_len, oracle_policy)
                assert policy_reward == brute == max(depth_of_one(cfg), chain_len)


# an OR fed by a hot input and a cold AND: the only hot gate has depth 2
ITEM1_CONFIG = CircuitConfig(
    parse_netlist("input 0\ninput 1\nand 2 0\nor 3 2 1\noutput 3\n"), (0, 1)
)


class TestStructural:
    """Guarantees over alternating circuits built gate by gate, not by ``random_alt_circuit``."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=alt_configs(), chain_len=st.integers(1, 4))
    def test_depth_value_and_policy_match_the_oracles(self, cfg, chain_len):
        d1 = depth_of_one(cfg)
        assert d1 == reference_d1(cfg)
        root = env_reset(cfg, chain_len)
        assert optimal_value(root) == brute_force_value(root) == max(d1, chain_len)
        assert rollout(cfg, chain_len, oracle_policy) == max(d1, chain_len)

    @settings(max_examples=100, deadline=None)
    @given(cfg=alt_configs(), chain_len=st.integers(1, 4))
    def test_every_terminal_reward_matches_the_oracles(self, cfg, chain_len):
        """Each reachable step into the terminal state pays what the reference evaluation says."""
        values, depths = recursive_eval(cfg.circuit, cfg.bits), memo_depths(cfg.circuit)
        frontier, seen, terminals = [env_reset(cfg, chain_len)], set(), 0
        while frontier:
            s = frontier.pop()
            for action in legal_actions(s):
                nxt, reward, done = env_step(s, action)
                if not done:
                    key = (nxt.phase, nxt.chosen, nxt.t)
                    if key not in seen:
                        seen.add(key)
                        frontier.append(nxt)
                    continue
                terminals += 1
                assert (nxt.phase, nxt.t) == (Phase.DONE, s.horizon)
                if s.phase is Phase.SELECTING_CHAIN or isinstance(action, PickChainGate):
                    want = max(nxt.chosen)  # chain gate j is hot at depth j
                elif all(values[g] == 1 for g in nxt.chosen):
                    want = max(depths[g] for g in nxt.chosen)
                else:
                    want = 0
                assert reward == want
        assert terminals > 0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: is_depth_zero misses a hot OR that mixes terminal and gate feeds",
    )
    @settings(max_examples=150, deadline=None)
    @example(cfg=ITEM1_CONFIG)
    @given(cfg=alt_configs())
    def test_first_layer_scan_and_exact_bracket(self, cfg):
        d1 = depth_of_one(cfg)
        assert is_depth_zero(cfg) == (d1 == 0)
        ok, check = bracket(extract_depth_of_one(cfg, optimal_value), d1, 1.0)
        assert ok, check


def test_random_alt_config_deterministic():
    a = random_alt_config(5, n_inputs=3, n_gates=9)
    b = random_alt_config(5, n_inputs=3, n_gates=9)
    assert a == b
