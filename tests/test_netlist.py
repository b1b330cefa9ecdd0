"""Netlist parse/format round trips and error reporting."""

import hashlib

import pytest

from depthbench.circuits import GateKind, cvp, eval_layered, eval_serial, random_circuit
from depthbench.do1 import random_alt_circuit
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


# sha256 of format_netlist's bytes: (generator, seed, n_inputs, n_gates, digest); random_circuit_maj
# is random_circuit with fanin_max=5 and majority_fraction=0.6
FORMAT_DIGESTS = [
    ("random_circuit", 0, 1, 8, "e5dcee542b43a5be986e3ab04709abf7f8653e482cb7548e84ff2a21d57d2e23"),
    ("random_circuit", 0, 4, 64, "cadc3b03afa8a4c7bdf228bf9e118a738a77b086e7f2b0194f725003ed9fbd0c"),
    ("random_circuit", 0, 8, 512, "13d488695d6f5b5915fd1312dfcfc52363e5ed37fe7c1aa17969773ee033a987"),
    ("random_circuit", 0, 32, 2048, "0f43572dbbc0c931dcc992e794b1b7cc779de62c7aa8a76f5056275df44230c2"),
    ("random_circuit", 0, 32, 8192, "cc5baae14e096fc47a7633c7197b068fbe9c0b0ce55bd021d14d010a5d632108"),
    ("random_circuit", 1, 1, 8, "f7fc1109d8f93b49c5c6fc73fdef47070f7f284c670fac875448fd4ba8a467f8"),
    ("random_circuit", 1, 4, 64, "4156835ae7c2fd242abf682278e4be14463dfa74905295ca9a07c7ec79fa6fb6"),
    ("random_circuit", 1, 8, 512, "3e586f63f10e98ed11c91a9c8b9ee4deeac9bdf56c8fc87fb127588b2cddc5ad"),
    ("random_circuit", 1, 32, 2048, "6e9bf6a405e9b220e75c0802447b53c79d3c331973f0f02f72d42e8232146b34"),
    ("random_circuit", 1, 32, 8192, "d860879440b60d76ac18e14537a96366a0dee57486f5a69bf42ed8a837da2ef7"),
    ("random_circuit", 7, 1, 8, "18b3a8953b509241c448f5bd38e37e3828a5f08d208fd00ab9d760f24b8800d8"),
    ("random_circuit", 7, 4, 64, "58fc9ff484b5a7d4b2c4c2100aa1ae6bd9fad08d87553e7bd91a1c3273b420d5"),
    ("random_circuit", 7, 8, 512, "e272890ee93a1a6c96f75416d6efa198772eadfed9ef2576d53a025a245b14c5"),
    ("random_circuit", 7, 32, 2048, "e9848407fcf88892ab685ef95406240b3533dd0cdb43cfb1e5e80a6fb1edd4c8"),
    ("random_circuit", 7, 32, 8192, "443cfd8356c8f75fe771d348a577eb3d8347246b40b4352df525125f688cebef"),
    ("random_circuit_maj", 3, 5, 300, "52c728f48c6229ef3775007ed4d5b7d253b27b23e0cbb31d322a1237c59b24ae"),
    ("random_alt_circuit", 0, 2, 8, "40d72dfff1f2a58c8121dd10a4649ad391ec478bfbe69b58bc5e0ae10a346c35"),
    ("random_alt_circuit", 0, 6, 256, "86d7b590c1e267a5552ee71a76cd988725d74286d9515c5b6a382e5952423e59"),
    ("random_alt_circuit", 0, 16, 4096, "5dce0491b70b1300992ebd69de88ac2de293567cbb9329b3eac53959d8eeca0a"),
    ("random_alt_circuit", 5, 2, 8, "589b78c0bd0be47c08c283a7a543238f1ad87bad126915cdce39b9db79f42f6f"),
    ("random_alt_circuit", 5, 6, 256, "747cda6cb540149cf6c7ea375f13dbcf77f32e669cca84c7f2c268a25c0b9e8d"),
    ("random_alt_circuit", 5, 16, 4096, "c9d2277a13b7c4d0fdfcac842a178ee78dafdff71d982da27cbf704784584522"),
]


@pytest.mark.parametrize("generator, seed, n_inputs, n_gates, digest", FORMAT_DIGESTS)
def test_format_bytes_are_pinned(generator, seed, n_inputs, n_gates, digest):
    if generator == "random_alt_circuit":
        c = random_alt_circuit(seed, n_inputs, n_gates)
    elif generator == "random_circuit_maj":
        c = random_circuit(seed, n_inputs, n_gates, fanin_max=5, majority_fraction=0.6)
    else:
        c = random_circuit(seed, n_inputs, n_gates)
    text = format_netlist(c)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert parse_netlist(text) == c


@pytest.mark.parametrize("line", ["input {0}", "const {0} 1", "not {0} 0"])
@pytest.mark.parametrize("token", ["+1", "01", "0_1", "1_000"])
def test_non_canonical_id_tokens_parse(token, line):
    # a token that is not the expected id's canonical text goes through int(), on every kind of line
    v = int(token)
    template = "\n".join([*(f"input {i}" for i in range(v)), line, f"and {v + 1} {{0}} 0", "output {0}", ""])
    c = parse_netlist(template.format(token))
    canonical = template.format(v)
    assert format_netlist(c) == canonical
    assert c == parse_netlist(canonical) and c.output == v and c.gates[v + 1].inputs == (v, 0)


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
