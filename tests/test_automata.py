"""Cellular automaton stepping, k-row compilation, and the cell decision view."""

import collections
import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from depthbench import automata
from depthbench.automata import (
    CapacityError,
    CompiledRule,
    cell_at,
    compile_steps,
    evolve,
    evolve_compiled,
    format_tape,
    parse_tape,
    rule_table,
    step,
    step_compiled,
)
from depthbench.meters import CostMeter

from oracles import compose_tables, naive_evolve
from strategies import ca_runs


def test_rule_110_known_row():
    assert step(parse_tape("00100"), 110) == parse_tape("01100")


def test_rule_0_clears_everything():
    assert step(parse_tape("111"), 0) == (0, 0, 0)
    assert evolve(parse_tape("10101"), 0, 3) == (0,) * 5


def test_zero_boundary_is_zero_padded():
    # rule 254 turns on any cell with a live neighbor; edges see 0 outside
    assert step((1,), 254) == (1,)
    assert step((0, 0, 1), 2) == (0, 1, 0)  # rule 2 fires only on (0,0,1)


def test_rule_table_bits():
    assert rule_table(110) == (0, 1, 1, 1, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        rule_table(256)


def test_rule_table_is_every_rules_bits():
    expected = [tuple((rule >> b) & 1 for b in range(8)) for rule in range(256)]
    assert [rule_table(rule) for rule in range(256)] == expected
    for rule in (-1, 256, 2**64):
        with pytest.raises(ValueError, match=f"^rule {rule} outside 0..255$"):
            rule_table(rule)


def test_evolve_is_step_composition():
    tape = parse_tape("0001011101")
    rules = (30, 90, 110, 184)
    for rule in rules:
        assert evolve(tape, rule, 8) == naive_evolve(tape, rule, 8)


def test_evolve_meter_depth():
    m = CostMeter()
    evolve(parse_tape("0" * 17), 30, 5, m)
    assert (m.work, m.depth) == (85, 5)


def test_compile_k1_equals_rule_table():
    assert compile_steps(110, 1) == rule_table(110)


def test_compile_table_sizes():
    assert len(compile_steps(30, 1)) == 8
    assert len(compile_steps(30, 2)) == 32
    assert len(compile_steps(30, 3)) == 128


def _window(code: int, k: int) -> tuple[int, ...]:
    return tuple((code >> (2 * k - j)) & 1 for j in range(2 * k + 1))


def test_compiled_entries_match_plain_steps():
    for k in (1, 2, 3, 4):
        for rule in range(256):
            table = compile_steps(rule, k)
            for code in range(len(table)):
                assert table[code] == naive_evolve(_window(code, k), rule, k)[k], (rule, k, code)


def test_compiled_entries_spot_check_k8():
    rng = random.Random(8)
    for rule in (30, 110):
        table = compile_steps(rule, 8)
        for code in rng.sample(range(len(table)), 200):
            assert table[code] == naive_evolve(_window(code, 8), rule, 8)[8], (rule, code)


def test_compiled_tables_match_the_composition_oracle():
    cases = [(rule, k) for k in range(1, 7) for rule in range(256)] + [(rule, 8) for rule in (30, 90, 110)]
    for rule, k in cases:
        table = compile_steps(rule, k)
        assert type(table) is tuple and table == compose_tables(rule, k) == CompiledRule(rule, k).table, (rule, k)


def test_compile_steps_checks_k_then_budget_then_rule():
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        compile_steps(300, 0)
    with pytest.raises(CapacityError):
        compile_steps(300, 40)
    with pytest.raises(ValueError, match="^rule 300 outside 0..255$"):
        compile_steps(300, 2)


@pytest.mark.parametrize(
    "rule, k, error, message",
    [
        (110, 0, ValueError, "k must be >= 1"),  # step_compiled would return the tape twice over
        (300, 1, ValueError, "rule 300 outside 0..255"),
        (110, 10**9, CapacityError, "2^2000000001 table entries exceeds budget 33554432"),
    ],
    ids=["k-below-one", "rule-out-of-range", "huge-k"],
)
def test_compiled_rule_refuses_tables_that_give_wrong_answers(rule, k, error, message):
    """Each row's table would give wrong answers or none; ``CompiledRule`` refuses it as ``compile_steps`` does."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        CompiledRule(rule, k)


def test_compiled_rule_is_its_rule_and_k():
    """No table is taken from outside: the table is the rule's, and (rule, k) is the whole identity."""
    assert [f.name for f in dataclasses.fields(CompiledRule)] == ["rule", "k"]
    with pytest.raises(TypeError):
        CompiledRule(110, 1, (0,) * 8)
    for rule, k in ((110, 1), (30, 3), (255, 5)):
        cr = CompiledRule(rule, k)
        assert cr.table == compile_steps(rule, k)
        assert cr == CompiledRule(rule, k) and hash(cr) == hash(CompiledRule(rule, k))
        assert repr(cr) == f"CompiledRule(rule={rule}, k={k})"
        assert dataclasses.replace(cr, k=2).table == compile_steps(rule, 2)
    assert CompiledRule(110, 2) != CompiledRule(110, 3) and CompiledRule(110, 2) != CompiledRule(30, 2)


def test_capacity_budget(monkeypatch):
    monkeypatch.setattr(automata, "TABLE_BUDGET", 64)
    with pytest.raises(CapacityError):
        compile_steps(110, 3)
    with pytest.raises(ValueError):
        compile_steps(110, 0)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        evolve_compiled(parse_tape("0110"), 110, 5, k)


def test_step_compiled_equals_k_plain_steps():
    # every width to 4k+1: all border (w <= 2k), end strips that overlap (w < 4k), touch (4k) or not
    rng = random.Random(16)
    for k in (1, 2, 3, 4):
        tapes = [tuple(rng.getrandbits(1) for _ in range(w)) for w in range(1, 4 * k + 2)]
        tapes.append(parse_tape("01001110001011010011"))
        for rule in range(256):  # odd rules turn 000 into 1
            cr = CompiledRule(rule, k)
            for tape in tapes:
                assert step_compiled(tape, cr) == naive_evolve(tape, rule, k), (rule, k, tape)


def test_compiled_round_evolves_its_borders_once(monkeypatch):
    calls = collections.Counter()

    def counting(name):
        inner = getattr(automata, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in ("evolve", "step"):
        monkeypatch.setattr(automata, name, counting(name))
    k, tape = 3, [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0]  # wider than 2k, and a list
    assert step_compiled(tape, CompiledRule(110, k)) == naive_evolve(tape, 110, k)
    assert calls == {"evolve": 1, "step": k}


@settings(max_examples=120, deadline=None)
@given(
    rule=st.integers(0, 255),
    k=st.integers(1, 3),
    tape=st.lists(st.integers(0, 1), min_size=1, max_size=40),
)
def test_compiled_equivalence_property(rule, k, tape):
    cr = CompiledRule(rule, k)
    assert step_compiled(tuple(tape), cr) == evolve(tuple(tape), rule, k)


@settings(max_examples=300, deadline=None)
@given(run=ca_runs())
def test_plain_and_compiled_runs_match_the_oracle(run):
    rule, tape, k, rows = run
    w, rounds = len(tape), math.ceil(rows / k)
    m = CostMeter()
    assert evolve(tape, rule, rows, m) == naive_evolve(tape, rule, rows)
    assert (m.work, m.depth) == (w * rows, rows)
    m = CostMeter()
    assert evolve_compiled(tape, rule, rows, k, m) == naive_evolve(tape, rule, rows)
    assert (m.work, m.depth) == (w * rounds, rounds)
    ends = [min(j * k, rows) for j in range(1, rounds + 1)]
    assert list(automata.compiled_rounds(tape, rule, rows, k)) == [naive_evolve(tape, rule, r) for r in ends]


@settings(max_examples=200, deadline=None)
@given(run=ca_runs())
def test_cell_at_matches_the_oracle_on_its_frame(run):
    # the frame is max(width, 2 * rows - 1) wide, the tape centred in zeros (one more zero right when odd)
    rule, tape, _, rows = run
    width = max(len(tape), 2 * rows - 1)
    left = (width - len(tape)) // 2
    frame = (0,) * left + tape + (0,) * (width - len(tape) - left)
    assert tuple(cell_at(rule, tape, rows, i) for i in range(width)) == naive_evolve(frame, rule, rows)
    for i in (-1, width):
        with pytest.raises(ValueError, match=f"^cell index {i} outside width-{width} frame$"):
            cell_at(rule, tape, rows, i)


def test_evolve_compiled_depth_is_ceil():
    tape = tuple([0] * 63 + [1])
    m = CostMeter()
    out = evolve_compiled(tape, 110, 64, 2, m)
    assert m.depth == 32
    assert out == naive_evolve(tape, 110, 64)

    m = CostMeter()
    out = evolve_compiled(tape, 110, 64, 3, m)  # 21 full rounds + remainder round
    assert m.depth == 22
    assert m.work == 22 * 64
    assert out == naive_evolve(tape, 110, 64)


def test_compiled_rounds_build_each_table_once(monkeypatch):
    built = []

    def counting(rule, k):
        built.append(k)
        return compile_steps(rule, k)

    monkeypatch.setattr(automata, "compile_steps", counting)
    tape = parse_tape("0100110001011")
    rounds = list(automata.compiled_rounds(tape, 110, 11, 3))
    assert rounds == [naive_evolve(tape, 110, r) for r in (3, 6, 9, 11)]
    assert built == [3, 2]


def test_evolve_compiled_zero_steps():
    tape = parse_tape("0110")
    m = CostMeter()
    assert evolve_compiled(tape, 110, 0, 2, m) == tape
    assert (m.work, m.depth) == (0, 0)


def test_zero_rows_still_check_rule_and_tape():
    with pytest.raises(ValueError, match="rule 300 outside 0..255"):
        evolve((1, 0), 300, 0)
    with pytest.raises(ValueError, match="rule 300 outside 0..255"):
        evolve_compiled((1, 0), 300, 0, 2)
    with pytest.raises(ValueError, match="rule 300 outside 0..255"):
        cell_at(300, (1, 0), 0, 0)
    with pytest.raises(ValueError, match="tape must be non-empty"):
        evolve((), 110, 0)
    with pytest.raises(ValueError, match="tape must be non-empty"):
        evolve_compiled((), 110, 0, 2)


def test_table_budget_checked_before_any_round(monkeypatch):
    """The k-row budget holds even when fewer than k rows (or none) are asked for."""
    message = "2^81 = 2417851639229258349412352 table entries exceeds budget 33554432"
    for steps in (0, 3, 50):
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            evolve_compiled((1, 0), 110, steps, 40)
    monkeypatch.setattr(automata, "TABLE_BUDGET", 64)
    with pytest.raises(CapacityError, match="exceeds budget 64"):
        next(automata.compiled_rounds((1, 0, 1), 110, 2, 3))
    monkeypatch.setattr(automata, "TABLE_BUDGET", 128)
    assert evolve_compiled((1, 0, 1), 110, 2, 3) == naive_evolve((1, 0, 1), 110, 2)


def test_huge_k_refused_before_building_the_table():
    """The budget compares widths first, so no 2^(2k+1) integer is built or printed."""
    for k in (10_000, 10**9):
        message = re.escape(f"2^{2 * k + 1} table entries exceeds budget 33554432")
        with pytest.raises(CapacityError, match=f"^{message}$"):
            compile_steps(110, k)
        with pytest.raises(CapacityError, match=f"^{message}$"):
            evolve_compiled((1, 0), 110, 3, k)


def test_table_budget_boundaries(monkeypatch):
    monkeypatch.setattr(automata, "TABLE_BUDGET", 128)
    assert len(compile_steps(110, 3)) == 128
    for budget in (127, 0, -1):
        monkeypatch.setattr(automata, "TABLE_BUDGET", budget)
        with pytest.raises(CapacityError, match=f"^2\\^7 = 128 table entries exceeds budget {budget}$"):
            compile_steps(110, 3)
    monkeypatch.undo()
    # the entry count is written out while it has at most 39 digits (width 128)
    with pytest.raises(CapacityError, match=f"^2\\^127 = {1 << 127} table entries exceeds budget 33554432$"):
        compile_steps(110, 63)
    with pytest.raises(CapacityError, match="^2\\^129 table entries exceeds budget 33554432$"):
        compile_steps(110, 64)


class TestCellAt:
    def test_row_zero_reads_initial(self):
        assert cell_at(110, parse_tape("0110"), 0, 1) == 1
        assert cell_at(110, parse_tape("0110"), 0, 0) == 0

    def test_frame_is_light_cone_wide(self):
        # single live cell, 3 rows: frame must be 5 wide, seeded centered
        got = [cell_at(110, (1,), 3, i) for i in range(5)]
        assert tuple(got) == naive_evolve((0, 0, 1, 0, 0), 110, 3)

    def test_wide_initial_keeps_own_width(self):
        tape = parse_tape("010011010")  # width 9 > 2*2-1
        got = [cell_at(30, tape, 2, i) for i in range(9)]
        assert tuple(got) == naive_evolve(tape, 30, 2)

    def test_out_of_frame_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            cell_at(110, (1,), 3, 5)
        with pytest.raises(ValueError, match="outside"):
            cell_at(110, (1, 0), 0, 2)


def test_parse_tape_rejects_junk():
    with pytest.raises(ValueError):
        parse_tape("01x0")
    with pytest.raises(ValueError):
        parse_tape("")
    assert format_tape(parse_tape("0101")) == "0101"


def test_cells_other_than_0_1_rejected():
    """A tape cell outside {0, 1} would index past or alias a table entry; every entry point refuses it."""
    message = "^tape cells must be 0 or 1$"
    for bad in ((0, 0, 2), (2, 0, 0), (0, 1, -1), [1, 0, 3, 0], (1.0, 0), "0101"):
        with pytest.raises(ValueError, match=message):
            step(bad, 110)
        with pytest.raises(ValueError, match=message):
            evolve(bad, 110, 0)
        with pytest.raises(ValueError, match=message):
            step_compiled(bad, CompiledRule(110, 1))
    with pytest.raises(ValueError, match=message):
        evolve_compiled((0, 0, 0, 2, 0, 0, 0, 0), 110, 2, 2)
    with pytest.raises(ValueError, match=message):
        cell_at(110, (2,), 1, 0)
    assert step([True, False, False], 110) == step((1, 0, 0), 110)
