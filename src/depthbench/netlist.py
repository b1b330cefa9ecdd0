"""Line-oriented netlist serialization for circuits.

Format, one gate per line in id order, `#` starts a comment::

    input <id>
    const <id> <0|1>
    <and|or|not|maj> <id> <input-id> [<input-id> ...]
    output <id>          # final line

``format_netlist`` writes the canonical byte form; parsing it back and
re-formatting reproduces the exact same bytes.  Id tokens are read with
``int()``, so ``+1`` and ``1_000`` are ids too; a token ``int()`` refuses
is reported as ``<what> '<token>' is not an integer`` on its line.
"""

from __future__ import annotations

from .circuits import TERMINALS, Circuit, CircuitError, Gate, GateKind, check_assignment

_KIND_TOKENS = {
    "and": GateKind.AND,
    "or": GateKind.OR,
    "not": GateKind.NOT,
    "maj": GateKind.MAJORITY,
}
_TOKEN_OF_KIND = {kind: tok for tok, kind in _KIND_TOKENS.items()}
_OUTPUT, _CONST = object(), object()  # the two heads that name no single GateKind
_HEADS = {"output": _OUTPUT, "input": GateKind.INPUT, "const": _CONST, **_KIND_TOKENS}


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
    output: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if output is not None:
            raise NetlistError("content after the output line", lineno)
        head = parts[0]
        kind = _HEADS.get(head)
        if kind is _OUTPUT:
            if len(parts) != 2:
                raise NetlistError("output line must be 'output <id>'", lineno)
            output = _parse_int(parts[1], "output id", lineno)
            continue
        if len(parts) < 2:
            raise NetlistError(f"gate line {head!r} is missing an id", lineno)
        gid = _parse_int(parts[1], "gate id", lineno)
        if gid != len(gates):
            raise NetlistError(f"gate id {gid} out of order, expected {len(gates)}", lineno)
        if kind is GateKind.INPUT:
            if len(parts) != 2:
                raise NetlistError("input line must be 'input <id>'", lineno)
            if gates and gates[-1].kind is not GateKind.INPUT:
                raise NetlistError("input gates must come before all other gates", lineno)
            gates.append(Gate(kind))
        elif kind is _CONST:
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise NetlistError("const line must be 'const <id> <0|1>'", lineno)
            gates.append(Gate(GateKind.CONST1 if parts[2] == "1" else GateKind.CONST0))
        elif kind is not None:
            if len(parts) == 2:
                raise NetlistError(f"{head} gate needs at least one input id", lineno)
            try:
                ids = tuple(map(int, parts[2:]))
            except ValueError:
                ids = tuple(_parse_int(p, "input id", lineno) for p in parts[2:])
            gates.append(Gate(kind, ids))
        else:
            raise NetlistError(f"unknown gate kind {head!r}", lineno)
    if output is None:
        raise NetlistError("missing output line")
    try:
        return Circuit(tuple(gates), output)
    except CircuitError as exc:
        raise NetlistError(str(exc)) from exc


def format_netlist(c: Circuit) -> str:
    """Canonical netlist text for ``c`` (newline-terminated)."""
    lines = []
    for gid, g in enumerate(c.gates):
        kind = g.kind
        if kind is GateKind.INPUT:
            lines.append(f"input {gid}")
        elif kind in TERMINALS:
            lines.append(f"const {gid} {1 if kind is GateKind.CONST1 else 0}")
        else:
            lines.append(f"{_TOKEN_OF_KIND[kind]} {gid} {' '.join(map(str, g.inputs))}")
    lines.append(f"output {c.output}")
    return "\n".join(lines) + "\n"


def parse_assignment(s: str, n_inputs: int) -> tuple[int, ...]:
    """Parse a 0/1 string into input bits; length must match ``n_inputs``."""
    if any(ch not in "01" for ch in s):
        raise CircuitError(f"assignment {s!r} must contain only 0 and 1")
    bits = tuple(int(ch) for ch in s)
    check_assignment(bits, n_inputs)
    return bits
