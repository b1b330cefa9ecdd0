"""Cellular automaton stepping, k-row compilation, and the cell decision view."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from depthbench import automata
from depthbench.automata import (
    CapacityError,
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

from oracles import naive_evolve


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
    cr = compile_steps(110, 1)
    assert cr.table == rule_table(110)


def test_compile_table_sizes():
    assert len(compile_steps(30, 1).table) == 8
    assert len(compile_steps(30, 2).table) == 32
    assert len(compile_steps(30, 3).table) == 128


def _window(code: int, k: int) -> tuple[int, ...]:
    return tuple((code >> (2 * k - j)) & 1 for j in range(2 * k + 1))


def test_compiled_entries_match_plain_steps():
    for k in (1, 2, 3, 4):
        for rule in range(256):
            cr = compile_steps(rule, k)
            for code in range(len(cr.table)):
                assert cr.table[code] == naive_evolve(_window(code, k), rule, k)[k], (rule, k, code)


def test_compiled_entries_spot_check_k8():
    rng = random.Random(8)
    for rule in (30, 110):
        cr = compile_steps(rule, 8)
        for code in rng.sample(range(len(cr.table)), 200):
            assert cr.table[code] == naive_evolve(_window(code, 8), rule, 8)[8], (rule, code)


def test_capacity_budget():
    with pytest.raises(CapacityError):
        compile_steps(110, 3, max_entries=64)
    with pytest.raises(ValueError):
        compile_steps(110, 0)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        evolve_compiled(parse_tape("0110"), 110, 5, k)


def test_step_compiled_equals_k_plain_steps():
    tape = parse_tape("01001110001011010011")
    for rule in (30, 90, 110, 184, 254):
        for k in (1, 2, 3):
            cr = compile_steps(rule, k)
            assert step_compiled(tape, cr) == naive_evolve(tape, rule, k)


@settings(max_examples=120, deadline=None)
@given(
    rule=st.integers(0, 255),
    k=st.integers(1, 3),
    tape=st.lists(st.integers(0, 1), min_size=1, max_size=40),
)
def test_compiled_equivalence_property(rule, k, tape):
    cr = compile_steps(rule, k)
    assert step_compiled(tuple(tape), cr) == evolve(tuple(tape), rule, k)


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

    def counting(rule, k, max_entries):
        built.append(k)
        return compile_steps(rule, k, max_entries)

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
