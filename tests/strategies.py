"""Hypothesis strategies that build circuit inputs structurally.

The properties over these strategies must see inputs the package's own
generators never produce, so nothing here imports ``random_circuit`` or
any other generator: circuits are assembled gate by gate from drawn kinds,
arities and ids, the way a hand-written netlist or API caller would.
"""

from __future__ import annotations

from hypothesis import strategies as st

from depthbench.circuits import Gate, GateKind

LOGIC_KINDS = (GateKind.AND, GateKind.OR, GateKind.NOT, GateKind.MAJORITY)
CONST_KINDS = (GateKind.CONST0, GateKind.CONST1)

# each corruption may or may not break the circuit; the oracle decides which
CORRUPTIONS = ("id", "kind", "arity", "out_of_range", "extra_edge", "n_inputs", "output")


@st.composite
def gate_lists(draw):
    """``(gates, n_inputs, output)``; about half the draws carry one corruption.

    A well-formed draw is a DAG whose gates read any id earlier in a drawn
    topological order, so forward references (a gate reading a higher id)
    are common; it has consts, ``maj`` of even fan-in and an output that
    need not be the last gate.  The rest apply one corruption: a wrong id,
    any kind anywhere (stray INPUTs, logic in the input block), any arity,
    an out-of-range reference, an edge that may close a cycle, or an input
    count or output id that may be out of range.
    """
    n = draw(st.integers(1, 9))
    n_inputs = draw(st.integers(0, min(n, 4)))  # at most 16 assignments to check
    order = list(range(n_inputs)) + draw(st.permutations(range(n_inputs, n)))
    rank = {gid: r for r, gid in enumerate(order)}
    gates = []
    for gid in range(n):
        earlier = order[: rank[gid]]
        if gid < n_inputs:
            kind = GateKind.INPUT
        else:
            kind = draw(st.sampled_from(CONST_KINDS + LOGIC_KINDS if earlier else CONST_KINDS))
        if kind in LOGIC_KINDS:
            arity = 1 if kind is GateKind.NOT else draw(st.integers(1, 4))
        else:
            arity = 0
        gates.append(Gate(gid, kind, tuple(draw(st.sampled_from(earlier)) for _ in range(arity))))
    output = draw(st.integers(0, n - 1))

    corruption = draw(st.sampled_from((None,) + CORRUPTIONS))
    pos = n - 1 - draw(st.integers(0, n - 1))  # the simplest draw corrupts the last gate: not an INPUT unless all are
    g = gates[pos]
    if corruption == "id":
        gates[pos] = Gate(draw(st.integers(-1, n + 1)), g.kind, g.inputs)
    elif corruption == "kind":
        gates[pos] = Gate(pos, draw(st.sampled_from(list(GateKind))), g.inputs)
    elif corruption == "arity":
        refs = order[: rank[pos]] or list(range(n))  # gates earlier in the order, so arity is the only fault
        gates[pos] = Gate(pos, g.kind, tuple(draw(st.lists(st.sampled_from(refs), max_size=4))))
    elif corruption == "out_of_range":
        bad = draw(st.sampled_from((-1, n)))
        gates[pos] = Gate(pos, g.kind, g.inputs + (bad,))
    elif corruption == "extra_edge":
        # the gate itself or one after it in the order, which closes a cycle if it depends on the gate
        gates[pos] = Gate(pos, g.kind, g.inputs + (draw(st.sampled_from(order[rank[pos] :])),))
    elif corruption == "n_inputs":
        n_inputs = draw(st.integers(-1, n + 1))
    elif corruption == "output":
        output = draw(st.integers(-2, n + 2))
    return tuple(gates), n_inputs, output
