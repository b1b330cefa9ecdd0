"""Line-oriented netlist serialization for circuits.

Format, one gate per line in id order, `#` starts a comment::

    input <id>
    const <id> <0|1>
    <and|or|not|maj> <id> <input-id> [<input-id> ...]
    output <id>          # final line

``format_netlist`` writes the canonical byte form; parsing it back and
re-formatting reproduces the exact same bytes.
"""

from __future__ import annotations

from .circuits import Circuit, CircuitError, Gate, GateKind, check_assignment, validate

_KIND_TOKENS = {
    "and": GateKind.AND,
    "or": GateKind.OR,
    "not": GateKind.NOT,
    "maj": GateKind.MAJORITY,
}
_TOKEN_OF_KIND = {kind: tok for tok, kind in _KIND_TOKENS.items()}


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
    """Parse netlist text into a validated Circuit."""
    gates: list[Gate] = []
    n_inputs = 0
    output: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if output is not None:
            raise NetlistError("content after the output line", lineno)
        parts = line.split()
        head = parts[0]
        if head == "output":
            if len(parts) != 2:
                raise NetlistError("output line must be 'output <id>'", lineno)
            output = _parse_int(parts[1], "output id", lineno)
            continue
        if len(parts) < 2:
            raise NetlistError(f"gate line {line!r} is missing an id", lineno)
        gid = _parse_int(parts[1], "gate id", lineno)
        if gid != len(gates):
            raise NetlistError(f"gate id {gid} out of order, expected {len(gates)}", lineno)
        if head == "input":
            if len(parts) != 2:
                raise NetlistError("input line must be 'input <id>'", lineno)
            if gates and gates[-1].kind is not GateKind.INPUT:
                raise NetlistError("input gates must come before all other gates", lineno)
            gates.append(Gate(gid, GateKind.INPUT))
            n_inputs += 1
        elif head == "const":
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise NetlistError("const line must be 'const <id> <0|1>'", lineno)
            kind = GateKind.CONST1 if parts[2] == "1" else GateKind.CONST0
            gates.append(Gate(gid, kind))
        elif head in _KIND_TOKENS:
            ids = tuple(_parse_int(p, "input id", lineno) for p in parts[2:])
            if not ids:
                raise NetlistError(f"{head} gate needs at least one input id", lineno)
            gates.append(Gate(gid, _KIND_TOKENS[head], ids))
        else:
            raise NetlistError(f"unknown gate kind {head!r}", lineno)
    if output is None:
        raise NetlistError("missing output line")
    circuit = Circuit(tuple(gates), n_inputs, output)
    try:
        validate(circuit)
    except CircuitError as exc:
        raise NetlistError(str(exc)) from exc
    return circuit


def format_netlist(c: Circuit) -> str:
    """Canonical netlist text for ``c`` (newline-terminated)."""
    lines = []
    for g in c.gates:
        if g.kind is GateKind.INPUT:
            lines.append(f"input {g.id}")
        elif g.kind is GateKind.CONST0:
            lines.append(f"const {g.id} 0")
        elif g.kind is GateKind.CONST1:
            lines.append(f"const {g.id} 1")
        else:
            lines.append(" ".join([_TOKEN_OF_KIND[g.kind], str(g.id), *map(str, g.inputs)]))
    lines.append(f"output {c.output}")
    return "\n".join(lines) + "\n"


def parse_assignment(s: str, n_inputs: int) -> tuple[int, ...]:
    """Parse a 0/1 string into input bits; length must match ``n_inputs``."""
    if any(ch not in "01" for ch in s):
        raise CircuitError(f"assignment {s!r} must contain only 0 and 1")
    bits = tuple(int(ch) for ch in s)
    check_assignment(bits, n_inputs)
    return bits
