"""Elementary cellular automata with zero boundary and k-row compiled stepping.

A rule's 8-entry table maps the (left, center, right) neighborhood, read as
a 3-bit number, to the next center bit.  Compiling k rows folds k plain
steps into one table over (2k+1)-bit windows: one lookup round then
advances k rows at the price of a 2^(2k+1)-entry table, built by composing
the rule with the (k-1)-row table in O(2^(2k+1)) lookups.  Cells outside the
tape read as 0 on every row.  A cell at least k from either end depends
only on its width-(2k+1) light cone of real cells, so one lookup
reproduces k plain steps exactly; the k cells nearest each end instead
come from direct evolution of a short border patch, because a
position-independent window table cannot express the pinned-zero edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .meters import CapacityError, CostMeter

DEFAULT_TABLE_BUDGET = 1 << 25  # max compiled-table entries


def parse_tape(s: str) -> tuple[int, ...]:
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"tape {s!r} must be a non-empty 0/1 string")
    return tuple(int(ch) for ch in s)


def format_tape(cells: Sequence[int]) -> str:
    return "".join(str(b) for b in cells)


def rule_table(rule: int) -> tuple[int, ...]:
    """Bit b of the rule number, for neighborhood code b = 4*left + 2*center + right."""
    if not 0 <= rule <= 255:
        raise ValueError(f"rule {rule} outside 0..255")
    return tuple((rule >> b) & 1 for b in range(8))


def _check_tape(cells: Sequence[int]) -> None:
    if len(cells) == 0:
        raise ValueError("tape must be non-empty")


def step(cells: Sequence[int], rule: int, meter: CostMeter | None = None) -> tuple[int, ...]:
    """One synchronous row: every cell updates from its 3-cell neighborhood."""
    _check_tape(cells)
    table = rule_table(rule)
    meter = meter if meter is not None else CostMeter()
    padded = (0, *cells, 0)
    out = tuple(
        table[(padded[i] << 2) | (padded[i + 1] << 1) | padded[i + 2]]
        for i in range(len(cells))
    )
    meter.charge(len(cells), 1)
    return out


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


def compile_steps(rule: int, k: int, max_entries: int = DEFAULT_TABLE_BUDGET) -> CompiledRule:
    """Build the k-row table: entry = center cell after k plain steps of its window.

    The j-row table follows from the (j-1)-row one: the center of a
    (2j+1)-cell window, j rows down, is the rule applied to the three cells
    beside it one row earlier, and those are the (j-1)-row entries of the
    window's left, middle and right (2j-1)-cell sub-windows.  Building every
    level takes fewer than (4/3)*2^(2k+1) lookups, so the entry budget bounds
    compile time as well as memory.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    width = 2 * k + 1
    entries = 1 << width
    if entries > max_entries:
        raise CapacityError(f"2^{width} = {entries} table entries exceeds budget {max_entries}")
    one_row = rule_table(rule)
    table = one_row
    for j in range(2, k + 1):
        prev, mask = table, (1 << (2 * j - 1)) - 1
        table = tuple(
            one_row[(prev[w >> 2] << 2) | (prev[(w >> 1) & mask] << 1) | prev[w & mask]]
            for w in range(1 << (2 * j + 1))
        )
    return CompiledRule(rule, k, table)


def step_compiled(cells: Sequence[int], cr: CompiledRule, meter: CostMeter | None = None) -> tuple[int, ...]:
    """Advance k rows in one lookup round; work = tape width, depth = 1.

    Interior cells (at least k from either end) read their (2k+1)-cell
    window straight off the tape and the table yields the center k rows
    down.  Border cells see the pinned-zero edge, which no window entry
    can encode, so each k-cell border is taken from a direct k-step
    evolution of the adjacent 2k-cell patch: the patch shares the real
    edge on one side, and corruption from its artificial far side travels
    only one cell per row, leaving the k border outputs exact.
    """
    _check_tape(cells)
    meter = meter if meter is not None else CostMeter()
    k = cr.k
    w = len(cells)
    meter.charge(w, 1)
    if w <= 2 * k:
        return evolve(cells, cr.rule, k)
    cells = tuple(cells)
    width = 2 * k + 1
    mask = (1 << width) - 1
    out = list(evolve(cells[: 2 * k], cr.rule, k)[:k])
    code = 0
    for j in range(2 * k):
        code = (code << 1) | cells[j]
    for i in range(k, w - k):
        code = ((code << 1) | cells[i + k]) & mask
        out.append(cr.table[code])
    out.extend(evolve(cells[-2 * k :], cr.rule, k)[k:])
    return tuple(out)


def compiled_rounds(
    cells: Sequence[int],
    rule: int,
    steps: int,
    k: int,
    meter: CostMeter | None = None,
    max_entries: int = DEFAULT_TABLE_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Yield the tape after each of ceil(steps/k) compiled rounds.

    The full rounds share one k-row table; a remainder ``steps mod k`` is one
    extra round with a smaller table, so the meter depth is exactly
    ceil(steps/k).  Table construction is not charged to the meter; the
    table is a width cost reported separately by callers.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_tape(cells)
    rule_table(rule)
    meter = meter if meter is not None else CostMeter()
    full, rem = divmod(steps, k)
    cur = tuple(cells)
    if full:
        cr = compile_steps(rule, k, max_entries)
        for _ in range(full):
            cur = step_compiled(cur, cr, meter)
            yield cur
    if rem:
        yield step_compiled(cur, compile_steps(rule, rem, max_entries), meter)


def evolve_compiled(
    cells: Sequence[int],
    rule: int,
    steps: int,
    k: int,
    meter: CostMeter | None = None,
    max_entries: int = DEFAULT_TABLE_BUDGET,
) -> tuple[int, ...]:
    """Evolve ``steps`` rows in ceil(steps/k) compiled rounds (see ``compiled_rounds``)."""
    return _last(cells, compiled_rounds(cells, rule, steps, k, meter, max_entries))


def cell_at(rule: int, initial: Sequence[int], n_rows: int, i: int) -> int:
    """Cell ``i`` of row ``n_rows``, on a frame wide enough for the light cone.

    The initial tape is centered in a zero-padded frame of width
    ``max(len(initial), 2*n_rows - 1)``; ``i`` indexes that frame from 0.
    With ``n_rows == 0`` the frame is the initial tape itself.
    """
    _check_tape(initial)
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    if n_rows == 0:
        if not 0 <= i < len(initial):
            raise ValueError(f"cell index {i} outside width-{len(initial)} frame")
        rule_table(rule)
        return initial[i]
    frame = max(len(initial), 2 * n_rows - 1)
    if not 0 <= i < frame:
        raise ValueError(f"cell index {i} outside width-{frame} frame")
    pad = frame - len(initial)
    left = pad // 2
    row = (0,) * left + tuple(initial) + (0,) * (pad - left)
    for _ in range(n_rows):
        row = step(row, rule)
    return row[i]
