"""Circuit model, layering, serial/layered evaluation, random generation."""

import dataclasses
import itertools
import random
import types

import pytest
from hypothesis import find, given, settings, strategies as st

from depthbench.circuits import (
    TERMINALS,
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
    stdlib_draws,
    topo_layers,
)
from depthbench.meters import CostMeter
from depthbench.netlist import format_netlist, parse_netlist

from oracles import (
    brute_longest_path,
    first_fault,
    is_well_formed,
    leading_inputs,
    memo_depths,
    random_monotone_circuit,
    reaches,
    recursive_eval,
)
from strategies import LOGIC_KINDS, gate_lists, wrong_typed_gate_lists


def chain3():
    gates = (
        Gate(GateKind.INPUT),
        Gate(GateKind.NOT, (0,)),
        Gate(GateKind.NOT, (1,)),
        Gate(GateKind.NOT, (2,)),
    )
    return Circuit(gates, 3)


def backward_block(seed: int, n_inputs: int, n_gates: int) -> list[Gate]:
    """Inputs, a const, then logic gates that each read 1-4 ids drawn (repeats allowed) below their own."""
    rng = random.Random(seed)
    gates = [Gate(GateKind.INPUT)] * n_inputs + [Gate(GateKind.CONST1)]
    for gid in range(len(gates), len(gates) + n_gates):
        kind = rng.choice(LOGIC_KINDS)
        arity = 1 if kind is GateKind.NOT else rng.randint(1, 4)
        gates.append(Gate(kind, tuple(rng.randrange(gid) for _ in range(arity))))
    return gates


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

    def test_charge_names_both_counts(self):
        with pytest.raises(TypeError):
            CostMeter().charge(5)  # no default depth: every charge says how many rounds it took


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


class TestGateKind:
    def test_hash_is_identity_and_agrees_with_equality(self):
        kinds = list(GateKind)
        assert len({hash(k) for k in kinds}) == len(kinds)
        for k in kinds:
            assert hash(k) == object.__hash__(k)
            assert GateKind(k.value) is k and {k: k.value}[GateKind(k.value)] == k.value
            assert (k in TERMINALS) == (k.value in ("input", "const0", "const1"))


class TestGate:
    def test_value_semantics(self):
        g = Gate(GateKind.AND, (0, 1))
        assert g == Gate(GateKind.AND, (0, 1)) and hash(g) == hash(Gate(GateKind.AND, (0, 1)))
        assert g != Gate(GateKind.OR, (0, 1)) and g != Gate(GateKind.AND, (1, 0))
        assert repr(g) == "Gate(kind=<GateKind.AND: 'and'>, inputs=(0, 1))"
        assert Gate(GateKind.INPUT) == Gate(GateKind.INPUT, ()) == Gate(kind=GateKind.INPUT, inputs=())
        assert dataclasses.fields(Gate)[1].default == ()

    def test_frozen_and_slotted(self):
        g = Gate(GateKind.NOT, (0,))
        for name, value in (("kind", GateKind.AND), ("inputs", (1,))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, value)
        with pytest.raises((AttributeError, TypeError)):  # which one depends on the Python: slots reject it either way
            g.extra = 1
        assert not hasattr(g, "__dict__") and Gate.__slots__ == ("kind", "inputs")
        assert g == Gate(GateKind.NOT, (0,))


class TestLayering:
    def test_three_gate_chain(self):
        c = chain3()
        assert topo_layers(c) == [[1], [2], [3]]
        m = CostMeter()
        eval_serial(c, (1,), m)
        assert (m.work, m.depth) == (3, 3)

    def test_inputs_only_zero_layers(self):
        c = Circuit((Gate(GateKind.INPUT), Gate(GateKind.INPUT)), 1)
        assert topo_layers(c) == []
        m = CostMeter()
        assert eval_layered(c, (0, 1), m) == (0, 1)
        assert (m.work, m.depth) == (0, 0)

    def test_hundred_parallel_ands(self):
        gates = [Gate(GateKind.INPUT), Gate(GateKind.INPUT)]
        gates += [Gate(GateKind.AND, (0, 1))] * 100
        c = Circuit(tuple(gates), 101)
        layers = topo_layers(c)
        assert len(layers) == 1 and len(layers[0]) == 100
        m = CostMeter()
        eval_layered(c, (1, 1), m)
        assert (m.work, m.depth) == (100, 1)

    def test_layer_rule_holds_everywhere(self):
        c = random_circuit(7, 4, 40, fanin_max=4)
        depths = gate_depths(c)
        for gid, g in enumerate(c.gates):
            if gid in logic_ids(c):
                assert depths[gid] == 1 + max(depths[i] for i in g.inputs)
        layers = topo_layers(c)
        for d, layer in enumerate(layers, 1):
            assert all(depths[gid] == d for gid in layer)
        assert sorted(gid for layer in layers for gid in layer) == list(logic_ids(c))

    def test_twelve_gate_dag_matches_path_enumeration(self):
        c = random_circuit(99, 4, 12)
        depths = gate_depths(c)
        for gid in range(len(c.gates)):
            assert depths[gid] == brute_longest_path(c, gid)
        assert c.depths == tuple(memo_depths(c))

    def test_long_forward_reference_chain(self):
        # gate i reads gate i + 1, so the DFS finds every depth; depth is the chain length below it
        n = 5_000
        gates = (Gate(GateKind.INPUT),) + tuple(Gate(GateKind.NOT, (i + 1,)) for i in range(1, n - 1))
        c = Circuit(gates + (Gate(GateKind.NOT, (0,)),), 1)
        assert c.depths == (0,) + tuple(range(n - 1, 0, -1))
        assert gate_depths(c) == list(c.depths)

    def test_cycle_reported_with_edge(self):
        gates = (
            Gate(GateKind.INPUT),
            Gate(GateKind.AND, (0, 2)),
            Gate(GateKind.OR, (1,)),
        )
        with pytest.raises(CircuitError, match="cycle detected via edge"):
            Circuit(gates, 2)

    def test_forward_chain_after_kilogate_block(self):
        # 3,000 gates read only earlier ids; then gate i of a chain reads gate i + 1 and one block gate (the last reads back
        # into the block), and a tail of gates reads only earlier ids, chain gates among them
        gates = backward_block(11, 8, 3_000)
        start, links = len(gates), 250
        for gid in range(start, start + links):
            gates.append(Gate(GateKind.AND, (gid - links, gid + 1) if gid < start + links - 1 else (start - 1,)))
        rng = random.Random(12)
        for gid in range(len(gates), len(gates) + 200):
            gates.append(Gate(GateKind.OR, (rng.randrange(start, gid), rng.randrange(gid))))
        c = Circuit(tuple(gates), len(gates) - 1)
        assert c.depths == tuple(memo_depths(c))
        assert max(c.depths) > links
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        assert eval_serial(c, bits) == eval_layered(c, bits) == recursive_eval(c, bits)

    def test_cycle_closed_after_kilogate_block(self):
        # the block is valid; gates 3009..3013 read forward and 3013 closes the loop back to 3010
        gates = backward_block(13, 8, 3_000)
        start = len(gates)
        for gid in range(start, start + 4):
            gates.append(Gate(GateKind.OR, (gid - 5, gid + 1)))
        gates.append(Gate(GateKind.MAJORITY, (start - 1, start + 1, 0)))
        with pytest.raises(CircuitError) as info:
            Circuit(tuple(gates), 0)
        assert str(info.value) == "cycle detected via edge 3013 -> 3010"

    def test_layers_kept_and_topo_layers_copies_them(self):
        c = random_circuit(7, 4, 40, fanin_max=4)
        assert c.layers is c.layers
        assert all(type(layer) is tuple for layer in c.layers)
        layers = topo_layers(c)
        assert layers == [list(layer) for layer in c.layers]
        layers[0].append(-1)  # a caller's edit reaches neither the kept layers nor the next copy
        assert -1 not in c.layers[0] and topo_layers(c) == [list(layer) for layer in c.layers]
        twin = random_circuit(7, 4, 40, fanin_max=4)
        assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)

    def test_depths_are_not_a_field(self):
        c, twin = random_circuit(5, 3, 20), random_circuit(5, 3, 20)
        text = repr(c)
        assert c.depths is c.depths
        assert c == twin and hash(c) == hash(twin) and repr(c) == text == repr(twin)


class TestValidate:
    def test_random_circuits_always_validate(self):
        for seed in range(10_000):
            random_circuit(seed, 1 + seed % 4, 1 + seed % 12)  # building a Circuit runs validate

    def test_inputs_must_lead(self):
        with pytest.raises(CircuitError):
            Circuit((Gate(GateKind.CONST1), Gate(GateKind.INPUT)), 1)

    def test_not_arity(self):
        with pytest.raises(CircuitError, match="exactly one input"):
            Circuit((Gate(GateKind.INPUT), Gate(GateKind.NOT, (0, 0))), 1)

    def test_missing_reference(self):
        with pytest.raises(CircuitError, match="missing gate"):
            Circuit((Gate(GateKind.INPUT), Gate(GateKind.AND, (0, 9))), 1)

    def test_empty_fanin_rejected(self):
        with pytest.raises(CircuitError, match="at least one input"):
            Circuit((Gate(GateKind.INPUT), Gate(GateKind.AND, ())), 1)


# malformed circuits an evaluator would answer silently or crash on if they could be built
MALFORMED = {
    "not-with-two-inputs": (
        ((Gate(GateKind.INPUT), Gate(GateKind.NOT, (0, 0))), 1),
        "not gate 1 needs exactly one input, got 2",
    ),
    "const1-with-an-input": (
        ((Gate(GateKind.INPUT), Gate(GateKind.CONST1, (0,))), 1),
        "const1 gate 1 must have no inputs",
    ),
    "and-with-no-inputs": (
        ((Gate(GateKind.INPUT), Gate(GateKind.AND, ())), 1),
        "and gate 1 needs at least one input",
    ),
    "stray-input": (
        ((Gate(GateKind.INPUT), Gate(GateKind.NOT, (0,)), Gate(GateKind.INPUT)), 1),
        "INPUT gate 2 outside the leading input block",
    ),
    "output-past-the-end": (
        ((Gate(GateKind.INPUT), Gate(GateKind.NOT, (0,))), 2),
        "output id 2 out of range 0..1",
    ),
}


class TestConstruction:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_circuit_refused_when_built(self, name):
        args, message = MALFORMED[name]
        with pytest.raises(CircuitError) as info:
            Circuit(*args)
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(parts=gate_lists())
    def test_built_iff_well_formed_then_evaluators_agree(self, parts):
        gates, output = parts
        if not is_well_formed(gates, output):
            with pytest.raises(CircuitError):
                Circuit(gates, output)
            return
        c = Circuit(gates, output)
        n_inputs = leading_inputs(gates)
        assert c.n_inputs == n_inputs
        for bits in itertools.product((0, 1), repeat=n_inputs):
            assert eval_serial(c, bits) == eval_layered(c, bits) == recursive_eval(c, bits)
        assert c.depths == tuple(memo_depths(c))
        text = format_netlist(c)
        assert parse_netlist(text) == c and format_netlist(parse_netlist(text)) == text

    @pytest.mark.parametrize(
        "kinds", [{GateKind.CONST0, GateKind.CONST1}, {GateKind.INPUT}], ids=["no-input", "all-input"]
    )
    def test_gate_lists_reach_both_ends_of_the_input_count(self, kinds):
        # the property above sees circuits whose derived input count is 0 and ones where it is every gate
        def has_kinds_only(parts):
            gates, output = parts
            return is_well_formed(gates, output) and {g.kind for g in gates} <= kinds

        gates, _ = find(gate_lists(), has_kinds_only, settings=settings(database=None))
        assert leading_inputs(gates) == (len(gates) if GateKind.INPUT in kinds else 0)

    @settings(max_examples=300, deadline=None)
    @given(parts=gate_lists())
    def test_error_message_is_the_first_fault(self, parts):
        gates, output = parts
        expected = first_fault(gates, output)
        assert (expected is None) == is_well_formed(gates, output)
        if expected is None:
            Circuit(gates, output)
            return
        with pytest.raises(CircuitError) as info:
            Circuit(gates, output)
        message = str(info.value)
        if expected != "cycle detected via edge":
            assert message == expected
            return
        u, arrow, v = message.removeprefix("cycle detected via edge ").split(" ")
        u, v = int(u), int(v)
        assert arrow == "->" and v in gates[u].inputs and reaches(gates, v, u)


class TestWrongTypes:
    @settings(max_examples=300, deadline=None)
    @given(parts=wrong_typed_gate_lists())
    def test_refused_with_the_first_fault_or_round_trips(self, parts):
        gates, output = parts
        expected = first_fault(gates, output)
        if expected is None:  # only a bool is accepted, as the int it is
            c = Circuit(gates, output)
            text = format_netlist(c)
            assert parse_netlist(text) == c and format_netlist(parse_netlist(text)) == text
            assert hash(c) == hash(parse_netlist(text))
            return
        with pytest.raises(CircuitError) as info:
            Circuit(gates, output)
        message = str(info.value)
        assert message.startswith("cycle detected via edge") if expected == "cycle detected via edge" else message == expected

    CASES = {
        "str-kind": (((Gate(GateKind.INPUT), Gate("and", (0,))), 1), "gate 1 kind 'and' is not a GateKind"),
        "list-inputs": (((Gate(GateKind.INPUT), Gate(GateKind.AND, [0])), 1), "gate 1 inputs must be a tuple, got list"),
        "float-id": (((Gate(GateKind.INPUT), Gate(GateKind.AND, (0, 0.0))), 1), "gate 1 input id 0.0 is not an int"),
        "float-forward-id": (
            ((Gate(GateKind.INPUT), Gate(GateKind.AND, (2.0,)), Gate(GateKind.NOT, (0,))), 1),
            "gate 1 input id 2.0 is not an int",
        ),
        "float-output": (((Gate(GateKind.INPUT), Gate(GateKind.NOT, (0,))), 1.0), "output id 1.0 is not an int"),
        "type-before-a-later-arity-fault": (
            ((Gate(GateKind.INPUT), Gate(GateKind.OR, ("0",)), Gate(GateKind.NOT, ())), 1),
            "gate 1 input id '0' is not an int",
        ),
        "arity-before-a-later-type-fault": (
            ((Gate(GateKind.INPUT), Gate(GateKind.NOT, ()), Gate(None, (0,))), 1),
            "not gate 1 needs exactly one input, got 0",
        ),
        "kind-before-inputs": (((Gate(GateKind.INPUT), Gate([], None)), 1), "gate 1 kind [] is not a GateKind"),
        "first-bad-id-wins": (((Gate(GateKind.INPUT), Gate(GateKind.OR, (9, None))), 1), "gate 1 references missing gate 9"),
        "empty-list": (([], 0), "circuit has no gates"),
        "list-of-gates": (([Gate(GateKind.INPUT)], 0), "gates must be a tuple, got list"),
        "container-before-output": (([Gate(GateKind.INPUT)], 1.0), "gates must be a tuple, got list"),
        "output-before-entries": (((Gate(GateKind.INPUT), "x"), 5), "output id 5 out of range 0..1"),
        "pair-entry": (
            ((Gate(GateKind.INPUT), (GateKind.NOT, (0,))), 1),
            "gate 1 (<GateKind.NOT: 'not'>, (0,)) is not a Gate",
        ),
        "str-entry-first": ((("x", Gate(GateKind.INPUT)), 0), "gate 0 'x' is not a Gate"),
        "entry-before-a-later-arity-fault": (
            ((Gate(GateKind.INPUT), "x", Gate(GateKind.NOT, ())), 2),
            "gate 1 'x' is not a Gate",
        ),
        "input-kind-without-inputs": (
            ((Gate(GateKind.INPUT), types.SimpleNamespace(kind=GateKind.INPUT)), 0),
            "gate 1 namespace(kind=<GateKind.INPUT: 'input'>) is not a Gate",
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_message(self, name):
        args, message = self.CASES[name]
        with pytest.raises(CircuitError) as info:
            Circuit(*args)
        assert str(info.value) == message == first_fault(*args)

    def test_bool_ids_and_output_are_written_as_0_and_1(self):
        c = Circuit((Gate(GateKind.INPUT), Gate(GateKind.INPUT), Gate(GateKind.AND, (False, True))), True)
        assert format_netlist(c) == "input 0\ninput 1\nand 2 0 1\noutput 1\n"
        assert parse_netlist(format_netlist(c)) == c and cvp(c, (1, 1)) == 1


class TestEval:
    def test_assignment_length_mismatch(self):
        with pytest.raises(CircuitError, match="assignment"):
            eval_serial(chain3(), (1, 0))

    def test_assignment_bits_must_be_ints_0_or_1(self):
        """A float or str bit would flow into the gate values; bools are ints and stay accepted."""
        c = Circuit((Gate(GateKind.INPUT), Gate(GateKind.NOT, (0,)), Gate(GateKind.MAJORITY, (0, 1))), 1)
        for bad in ((1.0,), ("1",), (2,), (-1,)):
            for evaluate in (eval_serial, eval_layered, cvp):
                with pytest.raises(CircuitError, match="^assignment bits must be 0 or 1$"):
                    evaluate(c, bad)
        assert eval_serial(c, (True,)) == eval_serial(c, (1,)) == (1, 0, 0)

    @pytest.mark.parametrize("kind", LOGIC_KINDS, ids=lambda k: k.value)
    def test_every_feed_tuple_matches_gate_value(self, kind):
        # MAJORITY up to arity 7 covers ties at arities 2, 4 and 6
        for arity in (1,) if kind is GateKind.NOT else range(1, 8) if kind is GateKind.MAJORITY else (1, 2, 3, 4):
            gates = (Gate(GateKind.INPUT),) * arity + (Gate(kind, tuple(range(arity))),)
            c = Circuit(gates, arity)
            for bits in itertools.product((0, 1), repeat=arity):
                expected = gate_value(kind, bits)
                assert eval_serial(c, bits)[arity] == eval_layered(c, bits)[arity] == expected

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


def stdlib_random_circuit(seed, n_inputs, n_gates, fanin_max=3, majority_fraction=0.25):
    """The gates ``random_circuit`` must build, drawn through Random's own methods."""
    rng = random.Random(seed)
    gates = [Gate(GateKind.INPUT)] * n_inputs
    for gid in range(n_inputs, n_inputs + n_gates):
        if rng.random() < majority_fraction:
            kind = GateKind.MAJORITY
        else:
            kind = rng.choice((GateKind.AND, GateKind.OR, GateKind.NOT))
        fanin = 1 if kind is GateKind.NOT else rng.randint(1, min(fanin_max, gid))
        inputs = tuple(sorted(rng.sample(range(gid), fanin)))
        gates.append(Gate(kind, inputs))
    return tuple(gates)


class TestRandomCircuitMatchesStdlib:
    """random_circuit and stdlib_draws copy Random's draws; a Python whose
    Random draws differently fails here by name, not only through the sweep digest."""

    @pytest.mark.parametrize("seed", [0, 1, 42, -1, -(2**40), 2**64, 2**64 + 1, 3**50])
    @pytest.mark.parametrize(
        "n_inputs, n_gates, fanin_max, majority_fraction",
        [(1, 1, 1, 0.0), (4, 64, 3, 0.25), (8, 512, 3, 0.25), (2, 80, 8, 0.2), (4, 200, 12, 1.0)],
    )
    def test_fixed_seeds(self, seed, n_inputs, n_gates, fanin_max, majority_fraction):
        c = random_circuit(seed, n_inputs, n_gates, fanin_max, majority_fraction)
        assert c.gates == stdlib_random_circuit(seed, n_inputs, n_gates, fanin_max, majority_fraction)

    # fanin_max past 5 grows sample's set size, so small ids take the pool path
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(-(2**70), 2**70),
        n_inputs=st.integers(1, 8),
        n_gates=st.integers(1, 64),
        fanin_max=st.integers(1, 8),
        majority_fraction=st.sampled_from([0.0, 0.2, 1.0]),
    )
    def test_drawn_params(self, seed, n_inputs, n_gates, fanin_max, majority_fraction):
        c = random_circuit(seed, n_inputs, n_gates, fanin_max, majority_fraction)
        assert c.gates == stdlib_random_circuit(seed, n_inputs, n_gates, fanin_max, majority_fraction)

    @pytest.mark.parametrize("seed", [0, 1, -7, 2**64 + 1])
    def test_sample_equals_random_sample(self, seed):
        # n <= 21 takes the pool path, and so does k > 5 (set size 85 or more); k <= 5 above n = 21 takes the set path
        for n in range(1, 41):
            for k in range(1, n + 1):
                rng, ref = random.Random(seed), random.Random(seed)
                assert stdlib_draws(rng)[1](n, k) == ref.sample(range(n), k), (n, k)
                assert rng.getrandbits(32) == ref.getrandbits(32), (n, k)  # the same draws were made

    @pytest.mark.parametrize("seed", [0, 1, -7, 2**64 + 1])
    def test_below_equals_randrange(self, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        below = stdlib_draws(rng)[0]
        for n in [*range(1, 70), 255, 256, 257, 1000, 2**31, 2**40 + 1]:
            assert [below(n) for _ in range(4)] == [ref.randrange(n) for _ in range(4)], n
        assert rng.getrandbits(32) == ref.getrandbits(32)
