"""Hypothesis strategies that build the package's inputs structurally.

The properties over these strategies must see inputs the package's own
generators never produce, so nothing here imports ``random_circuit``,
``random_alt_circuit``, ``random_word`` or any other generator: circuits are
assembled gate by gate from drawn kinds, arities and ids, the way a
hand-written netlist or API caller would, CA runs draw their rule and tape
directly, and S5 words draw their letters from ``itertools.permutations``.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from depthbench.circuits import Circuit, Gate, GateKind
from depthbench.do1 import CircuitConfig

LOGIC_KINDS = (GateKind.AND, GateKind.OR, GateKind.NOT, GateKind.MAJORITY)
CONST_KINDS = (GateKind.CONST0, GateKind.CONST1)
PERMS = tuple(itertools.permutations(range(5)))

# each corruption may or may not break the circuit; the oracle decides which
CORRUPTIONS = ("kind", "arity", "out_of_range", "extra_edge", "output")


@st.composite
def gate_lists(draw):
    """``(gates, output)``; about half the draws carry one corruption.

    A well-formed draw is a DAG whose gates read any id earlier in a drawn
    topological order, so forward references (a gate reading a higher id)
    are common; it has consts, ``maj`` of even fan-in and an output that
    need not be the last gate; it may hold no INPUT gate or only INPUT
    gates.  The rest apply one corruption: any kind anywhere (stray INPUTs,
    a const or logic gate that cuts the input block short), any arity, an
    out-of-range reference, an edge that may close a cycle, or an output
    id that may be out of range.
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
        gates.append(Gate(kind, tuple(draw(st.sampled_from(earlier)) for _ in range(arity))))
    output = draw(st.integers(0, n - 1))

    corruption = draw(st.sampled_from((None,) + CORRUPTIONS))
    pos = n - 1 - draw(st.integers(0, n - 1))  # the simplest draw corrupts the last gate: not an INPUT unless all are
    g = gates[pos]
    if corruption == "kind":
        gates[pos] = Gate(draw(st.sampled_from(list(GateKind))), g.inputs)
    elif corruption == "arity":
        refs = order[: rank[pos]] or list(range(n))  # gates earlier in the order, so arity is the only fault
        gates[pos] = Gate(g.kind, tuple(draw(st.lists(st.sampled_from(refs), max_size=4))))
    elif corruption == "out_of_range":
        bad = draw(st.sampled_from((-1, n)))
        gates[pos] = Gate(g.kind, g.inputs + (bad,))
    elif corruption == "extra_edge":
        # the gate itself or one after it in the order, which closes a cycle if it depends on the gate
        gates[pos] = Gate(g.kind, g.inputs + (draw(st.sampled_from(order[rank[pos] :])),))
    elif corruption == "output":
        output = draw(st.integers(-2, n + 2))
    return tuple(gates), output


@st.composite
def alt_configs(draw):
    """A ``CircuitConfig`` over an alternating circuit with at most 5 logic gates.

    Only AND/OR logic gates, and none reads a gate of its own kind.  Each
    logic gate reads 1 to 3 feeds, repeats allowed, from the terminals and
    the opposite-kind gates before it in a drawn topological order, so an OR
    may mix terminal and gate feeds, ids hold forward references, consts
    sit anywhere after the inputs, and the output and bits are arbitrary.
    """
    n_inputs = draw(st.integers(0, 3))
    n_consts = draw(st.integers(0 if n_inputs else 1, 2))  # at least one terminal to read
    n_logic = draw(st.integers(1, 5))
    n = n_inputs + n_consts + n_logic
    placed = draw(st.permutations(range(n_inputs, n)))  # consts first, then logic gates in topological order
    gates = {gid: Gate(GateKind.INPUT) for gid in range(n_inputs)}
    for gid in placed[:n_consts]:
        gates[gid] = Gate(draw(st.sampled_from(CONST_KINDS)))
    terminals = sorted(gates)
    by_kind = {GateKind.AND: [], GateKind.OR: []}
    for gid in placed[n_consts:]:
        kind = draw(st.sampled_from((GateKind.AND, GateKind.OR)))
        opposite = GateKind.OR if kind is GateKind.AND else GateKind.AND
        feeds = draw(st.lists(st.sampled_from(terminals + by_kind[opposite]), min_size=1, max_size=3))
        gates[gid] = Gate(kind, tuple(feeds))
        by_kind[kind].append(gid)
    circuit = Circuit(tuple(gates[gid] for gid in range(n)), draw(st.integers(0, n - 1)))
    return CircuitConfig(circuit, tuple(draw(st.lists(st.integers(0, 1), min_size=n_inputs, max_size=n_inputs))))


@st.composite
def ca_runs(draw):
    """``(rule, tape, k, rows)``: any rule, a 0/1 tape of width 1-14, k 1-4 and 0-10 rows.

    Narrow tapes (width at most 2k, all border) and row counts that are not
    a multiple of k (a remainder round) are common.
    """
    rule = draw(st.integers(0, 255))
    tape = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=14)))
    return rule, tape, draw(st.integers(1, 4)), draw(st.integers(0, 10))


@st.composite
def s5_words(draw):
    """A list of 1-300 permutations of 5 points, drawn over one of three alphabets.

    Letters come from all 120 permutations, from the identity alone (the
    product is the identity however long the word), or from 1-3 drawn
    letters, so long runs of one repeated letter are common.
    """
    n = draw(st.integers(1, 300))
    alphabet = draw(st.sampled_from(("all", "identity", "few")))
    if alphabet == "identity":
        letters = PERMS[:1]
    elif alphabet == "few":
        letters = draw(st.lists(st.sampled_from(PERMS), min_size=1, max_size=3))
    else:
        letters = PERMS
    return draw(st.lists(st.sampled_from(letters), min_size=n, max_size=n))
