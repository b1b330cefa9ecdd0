"""Netlist parse/format round trips and error reporting."""

import pytest

from depthbench.circuits import GateKind, cvp, eval_layered, eval_serial, random_circuit
from depthbench.netlist import NetlistError, format_netlist, parse_assignment, parse_netlist

from oracles import memo_depths, recursive_eval


NOT_GATE = "input 0\nnot 1 0\noutput 1\n"


def test_parse_simple_inverter():
    c = parse_netlist(NOT_GATE)
    assert c.n_inputs == 1
    assert c.gates[1].kind is GateKind.NOT
    assert cvp(c, parse_assignment("1", c.n_inputs)) == 0


def test_comments_and_blanks_ignored():
    text = "# an inverter\n\ninput 0   # the input\nnot 1 0\n\noutput 1\n"
    assert parse_netlist(text) == parse_netlist(NOT_GATE)


def test_const_and_majority_tokens():
    text = "const 0 1\nconst 1 0\nmaj 2 0 0 1\noutput 2\n"
    c = parse_netlist(text)
    assert c.gates[0].kind is GateKind.CONST1
    assert c.gates[1].kind is GateKind.CONST0
    assert cvp(c, ()) == 1  # two hot of three
    assert format_netlist(c) == text


def test_gates_may_read_later_ids():
    # gate 1 reads gate 2: the depth walk finishes gate 2 from gate 1 and skips it afterwards
    text = "input 0\nand 1 2\nor 2 0\noutput 1\n"
    c = parse_netlist(text)
    assert c.depths == tuple(memo_depths(c)) == (0, 2, 1)
    for bits in ((0,), (1,)):
        assert eval_serial(c, bits) == eval_layered(c, bits) == recursive_eval(c, bits) == (bits[0],) * 3
    assert format_netlist(c) == text


def test_format_is_canonical_fixed_point():
    c = random_circuit(5, 3, 9, majority_fraction=0.3)
    text = format_netlist(c)
    assert parse_netlist(text) == c
    assert format_netlist(parse_netlist(text)) == text


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_random_circuits(seed):
    c = random_circuit(seed, 1 + seed % 4, 1 + seed % 15, majority_fraction=0.25)
    assert parse_netlist(format_netlist(c)) == c


def test_unknown_kind_reports_line():
    with pytest.raises(NetlistError, match="line 2"):
        parse_netlist("input 0\nxor 1 0 0\noutput 1\n")


def test_out_of_order_id_reports_line():
    with pytest.raises(NetlistError, match="line 2.*out of order"):
        parse_netlist("input 0\nnot 7 0\noutput 7\n")


def test_missing_output_line():
    with pytest.raises(NetlistError, match="missing output"):
        parse_netlist("input 0\nnot 1 0\n")


def test_content_after_output_rejected():
    with pytest.raises(NetlistError, match="line 4"):
        parse_netlist("input 0\nnot 1 0\noutput 1\nnot 2 1\n")


def test_late_input_gate_reports_line():
    with pytest.raises(NetlistError, match="line 3"):
        parse_netlist("input 0\nnot 1 0\ninput 2\noutput 1\n")


def test_non_integer_id_reports_line():
    with pytest.raises(NetlistError, match="line 1.*not an integer"):
        parse_netlist("input x\noutput 0\n")


# exact str(NetlistError) per malformed netlist: line numbers count comment-only, blank and CRLF lines
PARSE_MESSAGES = {
    "hash-glued-to-a-token": ("input 0\nnot 1 0#c\nxor 2 1\noutput 2\n", "line 3: unknown gate kind 'xor'"),
    "comment-and-blank-lines-ahead": (
        "# header\n\n   \n  # indented comment\ninput 0\n\nnot 1 q\noutput 1\n",
        "line 7: input id 'q' is not an integer",
    ),
    "crlf": ("input 0\r\nnot 1 0\r\nfoo 2 1\r\noutput 2\r\n", "line 3: unknown gate kind 'foo'"),
    "non-integer-input-id": ("input 0\nand 1 0 y 0\noutput 1\n", "line 2: input id 'y' is not an integer"),
    "non-integer-gate-id": ("input 0\nor x 0\noutput 1\n", "line 2: gate id 'x' is not an integer"),
    "non-integer-output-id": ("input 0\noutput one\n", "line 2: output id 'one' is not an integer"),
    "input-with-no-id": ("input\noutput 0\n", "line 1: gate line 'input' is missing an id"),
    "unknown-kind-with-no-id": ("input 0\n  xor   # c\noutput 0\n", "line 2: gate line 'xor' is missing an id"),
    "unknown-kind-out-of-order": ("input 0\nxor 5 0\noutput 0\n", "line 2: gate id 5 out of order, expected 1"),
    "input-with-two-ids": ("input 0 1\noutput 0\n", "line 1: input line must be 'input <id>'"),
    "logic-with-no-input-ids": ("input 0\nand 1\noutput 1\n", "line 2: and gate needs at least one input id"),
    "const-3-2": ("input 0\nnot 1 0\nnot 2 1\nconst 3 2\noutput 3\n", "line 4: const line must be 'const <id> <0|1>'"),
    "output-with-two-ids": ("input 0\noutput 0 0\n", "line 2: output line must be 'output <id>'"),
    "content-after-output": (
        "input 0\nnot 1 0\noutput 1\n# trailing comment\nnot 2 1\n",
        "line 5: content after the output line",
    ),
    "missing-output": ("input 0\nnot 1 0 # no output\n", "missing output line"),
    "structural-fault-has-no-line": ("input 0\nnot 1 0 0\noutput 1\n", "not gate 1 needs exactly one input, got 2"),
    "output-out-of-range": ("input 0\nnot 1 0 # 5\nand 2 0 1# x\noutput 9\n", "output id 9 out of range 0..2"),
}


@pytest.mark.parametrize("name", PARSE_MESSAGES)
def test_parse_error_messages(name):
    text, message = PARSE_MESSAGES[name]
    with pytest.raises(NetlistError) as info:
        parse_netlist(text)
    assert str(info.value) == message
    assert info.value.lineno == (int(message.split(":")[0][5:]) if message.startswith("line ") else None)


def test_structural_error_still_raised():
    # parses fine line by line but the NOT gate has two inputs
    with pytest.raises(NetlistError):
        parse_netlist("input 0\nnot 1 0 0\noutput 1\n")


def test_parse_assignment():
    assert parse_assignment("0110", 4) == (0, 1, 1, 0)
    assert parse_assignment("", 0) == ()
    with pytest.raises(Exception, match="assignment"):
        parse_assignment("01", 3)
    with pytest.raises(Exception, match="only 0 and 1"):
        parse_assignment("012", 3)
