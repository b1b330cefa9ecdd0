"""Elementary cellular automata with zero boundary and k-row compiled stepping.

A rule's 8-entry table maps the (left, center, right) neighborhood, read as
a 3-bit number, to the next center bit.  Compiling k rows folds k plain
steps into one table over (2k+1)-bit windows: one lookup round then
advances k rows at the price of a 2^(2k+1)-entry table, built bit-sliced:
each window cell is one 2^(2k+1)-bit int whose bit w is that cell in
window w, so k rows of bitwise rule updates evolve every window at once
(about k^2 plane updates).  Cells outside the
tape read as 0 on every row.  A cell at least k from either end depends
only on its width-(2k+1) light cone of real cells, so one lookup
reproduces k plain steps exactly; the k cells nearest each end instead
come from one direct evolution of the two end strips side by side, because
a position-independent window table cannot express the pinned-zero edge.
Plain and compiled rows share one window lookup: a plain row reads the rule
table over the tape padded with a 0 at each end, a compiled row the k-row one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .meters import CapacityError, CostMeter

TABLE_BUDGET = 1 << 25  # max compiled-table entries


def parse_tape(s: str) -> tuple[int, ...]:
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"tape {s!r} must be a non-empty 0/1 string")
    return tuple(int(ch) for ch in s)


def format_tape(cells: Sequence[int]) -> str:
    return "".join(str(b) for b in cells)


# Every rule's table, built once (step looks its rule up on every call): entry r is r's bits, LSB first
_RULE_TABLES = tuple(bits[::-1] for bits in product((0, 1), repeat=8))


def rule_table(rule: int) -> tuple[int, ...]:
    """Bit b of the rule number, for neighborhood code b = 4*left + 2*center + right."""
    if not 0 <= rule <= 255:
        raise ValueError(f"rule {rule} outside 0..255")
    return _RULE_TABLES[rule]


def _check_tape(cells: Sequence[int]) -> None:
    if len(cells) == 0:
        raise ValueError("tape must be non-empty")
    if cells.count(0) + cells.count(1) != len(cells):
        raise ValueError("tape cells must be 0 or 1")


def _lookups(tape: Sequence[int], table: Sequence[int], k: int) -> tuple[int, ...]:
    """``table`` read at every full (2k+1)-cell window of ``tape``, left to right, MSB first."""
    mask = (1 << (2 * k + 1)) - 1
    code = 0
    for c in tape[: 2 * k]:
        code = (code << 1) | c
    out = []
    for c in tape[2 * k :]:
        code = ((code << 1) | c) & mask
        out.append(table[code])
    return tuple(out)


def step(cells: Sequence[int], rule: int, meter: CostMeter | None = None) -> tuple[int, ...]:
    """One synchronous row: every cell updates from its 3-cell neighborhood."""
    _check_tape(cells)
    table = rule_table(rule)
    meter = meter if meter is not None else CostMeter()
    meter.charge(len(cells), 1)
    return _lookups((0, *cells, 0), table, 1)


def plain_rounds(
    cells: Sequence[int], rule: int, steps: int, meter: CostMeter | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield the tape after each of ``steps`` plain rows; each adds 1 to meter depth."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_tape(cells)
    rule_table(rule)
    meter = meter if meter is not None else CostMeter()
    cur = tuple(cells)
    for _ in range(steps):
        cur = step(cur, rule, meter)
        yield cur


def _last(cells: Sequence[int], rounds: Iterator[tuple[int, ...]]) -> tuple[int, ...]:
    cur = tuple(cells)
    for cur in rounds:
        pass
    return cur


def evolve(cells: Sequence[int], rule: int, steps: int, meter: CostMeter | None = None) -> tuple[int, ...]:
    """``steps``-fold composition of ``step``; adds ``steps`` to meter depth."""
    return _last(cells, plain_rounds(cells, rule, steps, meter))


@dataclass(frozen=True)
class CompiledRule:
    """k plain rows folded into one table over (2k+1)-bit windows."""

    rule: int
    k: int
    table: tuple[int, ...]  # index reads the window left-to-right, MSB first

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        rule_table(self.rule)
        n = len(self.table)  # 2^(2k+1) is built only once n's bit length matches it
        if n.bit_length() != 2 * self.k + 2 or n != 1 << (2 * self.k + 1):
            raise ValueError(f"a {self.k}-row table needs 2^{2 * self.k + 1} entries, got {n}")
        if self.table.count(0) + self.table.count(1) != n:
            raise ValueError("table entries must be 0 or 1")


def _check_table_budget(k: int) -> None:
    """Refuse a 2^(2k+1)-entry table over ``TABLE_BUDGET`` without building that number."""
    width = 2 * k + 1
    if TABLE_BUDGET > 0 and width < TABLE_BUDGET.bit_length():  # 2^width <= 2^(bits-1) <= budget
        return
    entries = f"2^{width} = {1 << width}" if width <= 128 else f"2^{width}"
    raise CapacityError(f"{entries} table entries exceeds budget {TABLE_BUDGET}")


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _mux(s: int, a: int, b: int) -> int:
    """Bitwise ``a if s else b``, without negating ``s``."""
    return a if a is b else b ^ (s & (a ^ b))


def compile_steps(rule: int, k: int) -> CompiledRule:
    """Build the k-row table: entry = center cell after k plain steps of its window.

    The build is bit-sliced: every one of the 2^(2k+1) windows evolves at
    once.  Window cell i is a "plane", one 2^(2k+1)-bit int whose bit w is
    that cell in window w (the window's bit 2k-i), laid down by shift-or
    doubling of its period.  One row replaces each neighbouring (l, c, r)
    triple of planes by the rule applied bitwise: for each (l, c) the rule
    yields 0, 1, r or not-r, and two muxes on c and one on l pick among
    them.  After k rows one plane is left, and its bit w is entry w.  That
    is k^2 plane updates of a few bitwise ops each, with at most 2k+1 planes
    (and a few temporaries) alive, fewer bytes than the table they make, so
    the entry budget bounds build time as well as memory.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_table_budget(k)
    rule_table(rule)
    width = 2 * k + 1
    size = 1 << width
    ones = (1 << size) - 1
    planes = []
    for b in range(width - 1, -1, -1):  # window cell i holds the code's bit b = 2k - i
        half = 1 << b
        plane, period = ((1 << half) - 1) << half, 2 * half
        while period < size:
            plane |= plane << period
            period *= 2
        planes.append(plane)
    # for each (l, c), bit 0 is the rule at (l, c, 0) and bit 1 at (l, c, 1): 0, not-r, r or 1
    p00, p01, p10, p11 = ((rule >> (4 * l + 2 * c)) & 3 for l in (0, 1) for c in (0, 1))
    for _ in range(k):
        for i in range(len(planes) - 2):  # left to right, so planes i+1 and i+2 are still the old row
            l, c, r = planes[i : i + 3]
            g = (0, r ^ ones, r, ones)
            planes[i] = _mux(l, _mux(c, g[p11], g[p10]), _mux(c, g[p01], g[p00]))
        del planes[-2:]
    bits = format(planes.pop(), f"0{size}b")[::-1].encode().translate(_BIT_BYTES)
    return CompiledRule(rule, k, tuple(bits))


def step_compiled(cells: Sequence[int], cr: CompiledRule, meter: CostMeter | None = None) -> tuple[int, ...]:
    """Advance k rows in one lookup round; work = tape width, depth = 1.

    Interior cells (at least k from either end) read their (2k+1)-cell
    window straight off the tape and the table yields the center k rows
    down.  Border cells see the pinned-zero edge, which no window entry
    can encode, so both k-cell borders come from one direct k-step
    evolution of the two 2k-cell end strips side by side (copies, so they
    may overlap): each keeps its real edge, and the junction's error
    travels one cell per row, reaching neither end's k outputs in k rows.
    """
    _check_tape(cells)
    meter = meter if meter is not None else CostMeter()
    k = cr.k
    w = len(cells)
    meter.charge(w, 1)
    if w <= 2 * k:
        return evolve(cells, cr.rule, k)
    ends = evolve((*cells[: 2 * k], *cells[-2 * k :]), cr.rule, k)
    return ends[:k] + _lookups(cells, cr.table, k) + ends[-k:]


def compiled_rounds(
    cells: Sequence[int], rule: int, steps: int, k: int, meter: CostMeter | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield the tape after each of ceil(steps/k) compiled rounds.

    The full rounds share one k-row table; a remainder ``steps mod k`` is one
    extra round with a smaller table, so the meter depth is exactly
    ceil(steps/k).  The tape, the rule and the k-row table budget are
    checked before the first round, even when no full round runs.  Table
    construction is not charged to the meter; the table is a width cost
    reported separately by callers.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_tape(cells)
    rule_table(rule)
    _check_table_budget(k)
    meter = meter if meter is not None else CostMeter()
    full, rem = divmod(steps, k)
    cur = tuple(cells)
    if full:
        cr = compile_steps(rule, k)
        for _ in range(full):
            cur = step_compiled(cur, cr, meter)
            yield cur
    if rem:
        yield step_compiled(cur, compile_steps(rule, rem), meter)


def evolve_compiled(
    cells: Sequence[int], rule: int, steps: int, k: int, meter: CostMeter | None = None
) -> tuple[int, ...]:
    """Evolve ``steps`` rows in ceil(steps/k) compiled rounds (see ``compiled_rounds``)."""
    return _last(cells, compiled_rounds(cells, rule, steps, k, meter))


def cell_at(rule: int, initial: Sequence[int], n_rows: int, i: int) -> int:
    """Cell ``i`` of row ``n_rows``, on a frame wide enough for the light cone.

    The initial tape is centered in a zero-padded frame of width
    ``max(len(initial), 2*n_rows - 1)``; ``i`` indexes that frame from 0.
    With ``n_rows == 0`` the frame is the initial tape itself.
    """
    _check_tape(initial)
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    frame = max(len(initial), 2 * n_rows - 1)
    if not 0 <= i < frame:
        raise ValueError(f"cell index {i} outside width-{frame} frame")
    pad = frame - len(initial)
    left = pad // 2
    return evolve((0,) * left + tuple(initial) + (0,) * (pad - left), rule, n_rows)[i]
