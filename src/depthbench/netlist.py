"""Line-oriented netlist serialization for circuits.

Format, one gate per line in id order, `#` starts a comment::

    input <id>
    const <id> <0|1>
    <and|or|not|maj> <id> <input-id> [<input-id> ...]
    output <id>          # final line

``format_netlist`` writes the canonical byte form, every id in decimal
(a bool id as ``0`` or ``1``); parsing it back and re-formatting
reproduces the exact same bytes.  Id tokens are read with ``int()``, so
``+1``, ``01`` and ``1_000`` are ids too; a token ``int()`` refuses is
reported as ``<what> '<token>' is not an integer`` on its line.  Both
directions work a gate at a time from small tables: the four logic
tokens, and per kind the text around a line's id.
"""

from __future__ import annotations

from .circuits import Circuit, CircuitError, Gate, GateKind, check_assignment

_LOGIC = {
    "and": GateKind.AND,
    "or": GateKind.OR,
    "not": GateKind.NOT,
    "maj": GateKind.MAJORITY,
}
# per kind, the text before and after the id on its line; a logic gate's input ids follow the tail
_LINE_PARTS = {
    GateKind.INPUT: ("input ", ""),
    GateKind.CONST0: ("const ", " 0"),
    GateKind.CONST1: ("const ", " 1"),
    **{kind: (tok + " ", " ") for tok, kind in _LOGIC.items()},
}


class NetlistError(CircuitError):
    """Netlist syntax or structure problem, with a 1-based line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno is not None else message)


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetlistError(f"{what} {token!r} is not an integer", lineno) from None


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a validated Circuit.

    One pass over the lines, logic lines tested first.  A gate id token
    that is the expected id's canonical text is taken as it is; any other
    goes through ``int()``, so ``+1``, ``01`` and ``1_000`` still parse.
    Every input line shares one ``Gate(GateKind.INPUT)``.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    gates: list[Gate] = []
    append = gates.append
    input_gate = Gate(GateKind.INPUT)
    output: int | None = None
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if not parts:
            continue
        if output is not None:
            raise NetlistError("content after the output line", lineno)
        head = parts[0]
        kind = _LOGIC.get(head)
        if kind is None and head == "output":
            if len(parts) != 2:
                raise NetlistError("output line must be 'output <id>'", lineno)
            output = _parse_int(parts[1], "output id", lineno)
            continue
        if len(parts) < 2:
            raise NetlistError(f"gate line {head!r} is missing an id", lineno)
        if parts[1] != str(len(gates)) and (gid := _parse_int(parts[1], "gate id", lineno)) != len(gates):
            raise NetlistError(f"gate id {gid} out of order, expected {len(gates)}", lineno)
        if kind is not None:
            if len(parts) == 2:
                raise NetlistError(f"{head} gate needs at least one input id", lineno)
            try:
                ids = tuple(map(int, parts[2:]))
            except ValueError:
                ids = tuple(_parse_int(p, "input id", lineno) for p in parts[2:])
            append(Gate(kind, ids))
        elif head == "input":
            if len(parts) != 2:
                raise NetlistError("input line must be 'input <id>'", lineno)
            if gates and gates[-1] is not input_gate:
                raise NetlistError("input gates must come before all other gates", lineno)
            append(input_gate)
        elif head == "const":
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise NetlistError("const line must be 'const <id> <0|1>'", lineno)
            append(Gate(GateKind.CONST1 if parts[2] == "1" else GateKind.CONST0))
        else:
            raise NetlistError(f"unknown gate kind {head!r}", lineno)
    if output is None:
        raise NetlistError("missing output line")
    try:
        return Circuit(tuple(gates), output)
    except CircuitError as exc:
        raise NetlistError(str(exc)) from exc


def format_netlist(c: Circuit) -> str:
    """Canonical netlist text for ``c`` (newline-terminated).

    Each line is its kind's head, the gate's id and its kind's tail, then
    for a logic gate its input ids.  Every id is written through one table
    of the id strings, so a bool id is written as ``0`` or ``1``.
    """
    ids = list(map(str, range(len(c.gates))))
    id_text = ids.__getitem__
    lines = []
    for gid, g in zip(ids, c.gates):
        head, tail = _LINE_PARTS[g.kind]
        lines.append(head + gid + tail + " ".join(map(id_text, g.inputs)))
    lines.append(f"output {ids[c.output]}")
    return "\n".join(lines) + "\n"


def parse_assignment(s: str, n_inputs: int) -> tuple[int, ...]:
    """Parse a 0/1 string into input bits; length must match ``n_inputs``."""
    if any(ch not in "01" for ch in s):
        raise CircuitError(f"assignment {s!r} must contain only 0 and 1")
    bits = tuple(int(ch) for ch in s)
    check_assignment(bits, n_inputs)
    return bits
