"""Circuit model, layering, serial/layered evaluation, random generation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from depthbench.circuits import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    cvp,
    eval_layered,
    eval_serial,
    gate_depths,
    gate_value,
    logic_ids,
    random_circuit,
    topo_layers,
    validate,
)
from depthbench.meters import CostMeter

from oracles import brute_longest_path, memo_depths, random_monotone_circuit, recursive_eval


def chain3():
    gates = (
        Gate(0, GateKind.INPUT),
        Gate(1, GateKind.NOT, (0,)),
        Gate(2, GateKind.NOT, (1,)),
        Gate(3, GateKind.NOT, (2,)),
    )
    return Circuit(gates, 1, 3)


class TestMeter:
    def test_accumulates(self):
        m = CostMeter()
        m.charge(5, 2)
        m.charge(3, 1)
        assert (m.work, m.depth) == (8, 3)

    def test_rejects_bad_charges(self):
        m = CostMeter()
        with pytest.raises(ValueError):
            m.charge(-1, 0)
        with pytest.raises(ValueError):
            m.charge(1, 2)


class TestGateValue:
    def test_and_or_not(self):
        assert gate_value(GateKind.AND, [1, 1, 1]) == 1
        assert gate_value(GateKind.AND, [1, 0, 1]) == 0
        assert gate_value(GateKind.OR, [0, 0, 1]) == 1
        assert gate_value(GateKind.OR, [0, 0, 0]) == 0
        assert gate_value(GateKind.NOT, [0]) == 1
        assert gate_value(GateKind.NOT, [1]) == 0

    def test_majority_is_strict(self):
        # even fan-in tie goes to 0
        assert gate_value(GateKind.MAJORITY, [1, 0]) == 0
        assert gate_value(GateKind.MAJORITY, [1, 1, 0, 0]) == 0
        assert gate_value(GateKind.MAJORITY, [1, 1, 0]) == 1
        assert gate_value(GateKind.MAJORITY, [1]) == 1
        assert gate_value(GateKind.MAJORITY, [0]) == 0


class TestLayering:
    def test_three_gate_chain(self):
        c = chain3()
        assert topo_layers(c) == [[1], [2], [3]]
        m = CostMeter()
        eval_serial(c, (1,), m)
        assert (m.work, m.depth) == (3, 3)

    def test_inputs_only_zero_layers(self):
        c = Circuit((Gate(0, GateKind.INPUT), Gate(1, GateKind.INPUT)), 2, 1)
        assert topo_layers(c) == []
        m = CostMeter()
        assert eval_layered(c, (0, 1), m) == (0, 1)
        assert (m.work, m.depth) == (0, 0)

    def test_hundred_parallel_ands(self):
        gates = [Gate(0, GateKind.INPUT), Gate(1, GateKind.INPUT)]
        gates += [Gate(i, GateKind.AND, (0, 1)) for i in range(2, 102)]
        c = Circuit(tuple(gates), 2, 101)
        layers = topo_layers(c)
        assert len(layers) == 1 and len(layers[0]) == 100
        m = CostMeter()
        eval_layered(c, (1, 1), m)
        assert (m.work, m.depth) == (100, 1)

    def test_layer_rule_holds_everywhere(self):
        c = random_circuit(7, 4, 40, fanin_max=4)
        depths = gate_depths(c)
        for g in c.gates:
            if g.id in logic_ids(c):
                assert depths[g.id] == 1 + max(depths[i] for i in g.inputs)
        layers = topo_layers(c)
        for d, layer in enumerate(layers, 1):
            assert all(depths[gid] == d for gid in layer)
        assert sorted(gid for layer in layers for gid in layer) == list(logic_ids(c))

    def test_twelve_gate_dag_matches_path_enumeration(self):
        c = random_circuit(99, 4, 12)
        depths = gate_depths(c)
        for g in c.gates:
            assert depths[g.id] == brute_longest_path(c, g.id)
        assert c.depths == tuple(memo_depths(c))

    def test_cycle_reported_with_edge(self):
        gates = (
            Gate(0, GateKind.INPUT),
            Gate(1, GateKind.AND, (0, 2)),
            Gate(2, GateKind.OR, (1,)),
        )
        c = Circuit(gates, 1, 2)
        with pytest.raises(CircuitError, match="cycle detected via edge"):
            topo_layers(c)
        for _ in range(2):  # a failed computation is not cached
            with pytest.raises(CircuitError, match="cycle detected via edge"):
                c.depths

    def test_depths_are_not_a_field(self):
        c, twin = random_circuit(5, 3, 20), random_circuit(5, 3, 20)
        text = repr(c)
        assert c.depths is c.depths
        assert c == twin and hash(c) == hash(twin) and repr(c) == text == repr(twin)


class TestValidate:
    def test_random_circuits_always_validate(self):
        for seed in range(10_000):
            validate(random_circuit(seed, 1 + seed % 4, 1 + seed % 12))

    def test_dense_ids_enforced(self):
        c = Circuit((Gate(0, GateKind.INPUT), Gate(2, GateKind.NOT, (0,))), 1, 1)
        with pytest.raises(CircuitError, match="dense"):
            validate(c)

    def test_inputs_must_lead(self):
        c = Circuit((Gate(0, GateKind.CONST1), Gate(1, GateKind.INPUT)), 0, 1)
        with pytest.raises(CircuitError):
            validate(c)

    def test_not_arity(self):
        c = Circuit((Gate(0, GateKind.INPUT), Gate(1, GateKind.NOT, (0, 0))), 1, 1)
        with pytest.raises(CircuitError, match="exactly one input"):
            validate(c)

    def test_missing_reference(self):
        c = Circuit((Gate(0, GateKind.INPUT), Gate(1, GateKind.AND, (0, 9))), 1, 1)
        with pytest.raises(CircuitError, match="missing gate"):
            validate(c)

    def test_empty_fanin_rejected(self):
        c = Circuit((Gate(0, GateKind.INPUT), Gate(1, GateKind.AND, ())), 1, 1)
        with pytest.raises(CircuitError, match="at least one input"):
            validate(c)


class TestEval:
    def test_assignment_length_mismatch(self):
        with pytest.raises(CircuitError, match="assignment"):
            eval_serial(chain3(), (1, 0))

    def test_cvp_returns_output_bit(self):
        c = chain3()
        assert cvp(c, (1,)) == 0  # three negations of 1
        assert cvp(c, (0,)) == 1

    def test_serial_meter_counts_logic_gates(self):
        c = random_circuit(3, 4, 20)
        m = CostMeter()
        eval_serial(c, (0, 1, 0, 1), m)
        assert (m.work, m.depth) == (20, 20)

    def test_layered_meter_depth_is_layer_count(self):
        c = random_circuit(3, 4, 20)
        m = CostMeter()
        eval_layered(c, (0, 1, 0, 1), m)
        assert m.work == 20
        assert m.depth == len(topo_layers(c))
        assert m.depth <= m.work

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_inputs=st.integers(1, 4),
        n_gates=st.integers(1, 16),
        bits_seed=st.integers(0, 2**16),
    )
    def test_serial_layered_recursive_agree(self, seed, n_inputs, n_gates, bits_seed):
        c = random_circuit(seed, n_inputs, n_gates, fanin_max=4, majority_fraction=0.3)
        bits = tuple((bits_seed >> i) & 1 for i in range(n_inputs))
        serial = eval_serial(c, bits)
        layered = eval_layered(c, bits)
        assert serial == layered == recursive_eval(c, bits)

    def test_exhaustive_small_circuit(self):
        c = random_circuit(11, 3, 10, majority_fraction=0.4)
        for bits in itertools.product((0, 1), repeat=3):
            assert eval_serial(c, bits) == recursive_eval(c, bits)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_inputs=st.integers(2, 5),
        n_gates=st.integers(1, 14),
        flip=st.integers(0, 4),
        bits_seed=st.integers(0, 2**16),
    )
    def test_monotone_flip_never_drops_values(self, seed, n_inputs, n_gates, flip, bits_seed):
        c = random_monotone_circuit(seed, n_inputs, n_gates)
        bits = [(bits_seed >> i) & 1 for i in range(n_inputs)]
        flip %= n_inputs
        bits[flip] = 0
        low = eval_serial(c, tuple(bits))
        bits[flip] = 1
        high = eval_serial(c, tuple(bits))
        assert all(h >= l for h, l in zip(high, low))


class TestRandomCircuit:
    def test_deterministic_in_seed(self):
        assert random_circuit(42, 4, 12) == random_circuit(42, 4, 12)
        assert random_circuit(42, 4, 12) != random_circuit(43, 4, 12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            random_circuit(0, 0, 5)
        with pytest.raises(ValueError):
            random_circuit(0, 2, 0)
        with pytest.raises(ValueError):
            random_circuit(0, 2, 5, majority_fraction=1.5)
