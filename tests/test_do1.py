"""Depth-of-one, the forced-choice environment, and probe extraction."""

import gc
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

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
    depth_of_one,
    env_reset,
    env_step,
    episode_to_jsonl,
    extract_depth_of_one,
    is_depth_zero,
    make_chain,
    optimal_value,
    oracle_policy,
    random_alt_circuit,
    random_alt_config,
    replay_jsonl,
    rollout,
    validate_alternating,
)

from oracles import brute_force_value, legal_actions, memo_depths, recursive_eval


def cfg_from(circuit, bits):
    return CircuitConfig(circuit, tuple(bits))


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
        result = rollout(cfg, 1, oracle_policy)
        assert result.reward == d1

    def test_prefers_longer_chain(self):
        cfg = two_gate_cfg((1, 1))  # d1 = 2
        assert rollout(cfg, 8, oracle_policy).reward == 8

    def test_tie_goes_to_circuit(self):
        cfg = two_gate_cfg((1, 1))
        s = env_reset(cfg, 2)
        assert oracle_policy(s) == PickCircuitGate(3)

    def test_episode_reward_is_max(self):
        for seed in range(30):
            cfg = random_alt_config(seed, n_inputs=3, n_gates=8)
            for chain_len in (1, 3, 7):
                want = max(depth_of_one(cfg), chain_len)
                assert rollout(cfg, chain_len, oracle_policy).reward == want

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

    def test_noisy_oracle_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            NoisyOracle(optimal_value, 0.0)
        with pytest.raises(ValueError):
            NoisyOracle(optimal_value, 1.5)

    def test_single_gate_instance(self):
        gates = (Gate(0, GateKind.INPUT), Gate(1, GateKind.OR, (0,)))
        cfg = cfg_from(Circuit(gates, 1, 1), (1,))  # n = 1, d1 = 1, m = 0
        assert extract_depth_of_one(cfg, optimal_value) == 1


class TestEnvExhaustive:
    def test_policy_equals_brute_force_small(self):
        for seed in range(24):
            n_gates = 1 + seed % 8
            cfg = random_alt_config(seed, n_inputs=1 + seed % 3, n_gates=n_gates)
            for chain_len in range(1, 9):
                root = env_reset(cfg, chain_len)
                brute = brute_force_value(root)
                policy_reward = rollout(cfg, chain_len, oracle_policy).reward
                assert policy_reward == brute == max(depth_of_one(cfg), chain_len)


class TestEpisodeLog:
    def test_jsonl_round_trip(self):
        cfg = random_alt_config(19, n_inputs=3, n_gates=7, require_hot=True)
        result = rollout(cfg, 3, oracle_policy)
        text = episode_to_jsonl(cfg, 3, result)
        assert text.count("\n") == len(result.steps) + 1
        replayed = replay_jsonl(text)
        assert replayed.reward == result.reward
        assert [r.action for r in replayed.steps] == [r.action for r in result.steps]

    def test_divergent_log_detected(self):
        cfg = two_gate_cfg()
        result = rollout(cfg, 2, oracle_policy)
        text = episode_to_jsonl(cfg, 2, result)
        tampered = text.replace('"reward": 2', '"reward": 7')
        if tampered == text:
            pytest.skip("expected a terminal reward of 2 in the log")
        with pytest.raises(ValueError, match="diverged"):
            replay_jsonl(tampered)


def test_random_alt_config_deterministic():
    a = random_alt_config(5, n_inputs=3, n_gates=9)
    b = random_alt_config(5, n_inputs=3, n_gates=9)
    assert a == b
