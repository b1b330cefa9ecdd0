"""Products of permutations of 5 points: serial vs tree folds, derived series.

A permutation is a tuple of images, ``p[i]`` being where point ``i`` goes;
``compose(a, b)`` is "apply b, then a".  Folding an n-term word costs n-1
compositions either way, but the balanced tree finishes in ceil(log2 n)
rounds while the left-to-right fold needs n-1.  ``fold_tree`` walks that
tree in aligned blocks of 256 letters, so it keeps O(256 + n/256) entries
alive rather than a whole level, with the same tree and rounds.  The wire
format is one 5-digit image string per line, e.g. ``10234`` for the
transposition of 0 and 1.  ``random_word`` makes the ``getrandbits`` draws of
``Random.sample(range(5), 5)`` per letter and turns them into one index
into ``_LETTERS``, the 120 permutations built once at import, so the
letters of every drawn word are shared tuples.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

from .meters import CostMeter

Perm = tuple[int, int, int, int, int]

IDENTITY: Perm = (0, 1, 2, 3, 4)
GROUP_ORDER = 120


def check_perm(p: Sequence[int]) -> Perm:
    """``p`` as a tuple of ints, if it holds each of the ints 0..4 once (bools included)."""
    try:
        if len(p) == 5 and sorted(images := bytes(p)) == [0, 1, 2, 3, 4]:
            return tuple(images)  # type: ignore[return-value]
    except (TypeError, ValueError):  # no length, a float, a str or an int outside 0..255
        pass
    raise ValueError(f"{p!r} is not a permutation of 0..4")


def compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i)): apply b first, then a."""
    return (a[b[0]], a[b[1]], a[b[2]], a[b[3]], a[b[4]])


def inverse(p: Perm) -> Perm:
    inv = [0] * 5
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)  # type: ignore[return-value]


def fold_serial(word: Sequence[Perm], meter: CostMeter | None = None) -> Perm:
    """Left-to-right product; every composition is a sequential round."""
    if not word:
        raise ValueError("word must be non-empty")
    meter = meter if meter is not None else CostMeter()
    acc = word[0]
    for b0, b1, b2, b3, b4 in itertools.islice(word, 1, None):
        acc = (acc[b0], acc[b1], acc[b2], acc[b3], acc[b4])  # compose(acc, p), inline
    meter.charge(len(word) - 1, len(word) - 1)
    return acc


_BLOCK = 256  # letters per aligned block in fold_tree; a power of two


def _fold_levels(level: Sequence[Perm]) -> Perm:
    """The balanced tree's level loop: compose adjacent pairs, carry a trailing odd node, until one is left."""
    while len(level) > 1:
        it = iter(level)  # zip(it, it) pairs neighbours without slicing a copy
        nxt = [(a[b0], a[b1], a[b2], a[b3], a[b4]) for a, (b0, b1, b2, b3, b4) in zip(it, it)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def fold_tree(word: Sequence[Perm], meter: CostMeter | None = None) -> Perm:
    """Balanced pairwise product: n-1 compositions in ceil(log2 n) rounds.

    Each level composes adjacent pairs at once (one depth unit), carrying a
    trailing odd element unchanged, so grouping — not order — changes and
    associativity keeps the product equal to the serial fold.  Node i of
    level l is the product of letters [i*2^l, min((i+1)*2^l, n)), so an
    aligned block of ``_BLOCK`` = 2^8 letters reduces to exactly its
    level-8 node.  One thread therefore walks the tree block by block: it
    folds each block through the level loop, then folds the block products
    the same way while more than one block is left.  The compositions,
    their operands and their rounds are those of the level-by-level walk,
    but at most O(256 + n/256) entries are alive at once, never a whole
    level.  The meter gets each level's charge in closed form, floor(m/2)
    work in one round for m = n, ceil(n/2), ..., 2, once the product is
    known.
    """
    if not word:
        raise ValueError("word must be non-empty")
    meter = meter if meter is not None else CostMeter()
    level = word
    while len(level) > _BLOCK:
        level = [_fold_levels(level[i : i + _BLOCK]) for i in range(0, len(level), _BLOCK)]
    product = _fold_levels(level)
    m = len(word)
    while m > 1:
        meter.charge(m // 2, 1)
        m -= m // 2
    return product


def all_perms() -> list[Perm]:
    """The 120 permutations of 5 points."""
    return [tuple(p) for p in itertools.permutations(range(5))]  # type: ignore[misc]


def _closure(gens: Iterable[Perm]) -> frozenset[Perm]:
    elems = set(gens)
    while True:
        added = {compose(a, b) for a in elems for b in elems} - elems
        if not added:
            return frozenset(elems)
        elems |= added


def commutator_subgroup(elements: Iterable[Perm]) -> frozenset[Perm]:
    """Subgroup generated by all commutators a b a^-1 b^-1 of ``elements``."""
    elems = list(elements)
    comms = {
        compose(compose(a, b), compose(inverse(a), inverse(b)))
        for a in elems
        for b in elems
    }
    return _closure(comms)


def derived_series() -> list[int]:
    """Subgroup orders down the derived series of the full group, until stable.

    The last entry repeats the first stabilized order, e.g. a series that
    reaches a perfect subgroup of order 60 reads [120, 60, 60].
    """
    current: frozenset[Perm] = frozenset(all_perms())
    orders = [len(current)]
    while True:
        nxt = commutator_subgroup(current)
        orders.append(len(nxt))
        if len(nxt) == len(current):
            return orders
        current = nxt


def _sample_letters() -> tuple[Perm, ...]:
    """The 120 permutations in draw order: entry 24*r5 + 6*r4 + 2*r3 + r2 is
    the letter ``Random.sample(range(5), 5)`` returns when its accepted draws
    below 5, 4, 3 and 2 are r5, r4, r3 and r2 (swap-remove from a 5-slot pool)."""
    letters = []
    for r5, r4, r3, r2 in itertools.product(range(5), range(4), range(3), range(2)):
        pool = [0, 1, 2, 3, 4]
        letter = []
        for m, r in zip((5, 4, 3, 2, 1), (r5, r4, r3, r2, 0)):
            letter.append(pool[r])
            pool[r] = pool[m - 1]
        letters.append(tuple(letter))
    return tuple(letters)  # type: ignore[arg-type]


_LETTERS = _sample_letters()


def random_word(seed: int, n: int) -> list[Perm]:
    """n uniform random permutations, deterministic in ``seed``.

    Letter i is ``tuple(rng.sample(range(5), 5))`` for the i-th call on
    ``rng = random.Random(seed)``: the loop makes exactly the ``getrandbits``
    draws that ``sample`` makes for a population of 5 (``m.bit_length()``
    bits, redrawn while >= m, for m = 5..1), without its argument checks.
    The accepted draws below 5, 4, 3 and 2 index the one letter they pick in
    ``_LETTERS``, so every letter is one of 120 shared tuples and no pool or
    letter is built per draw.  The m = 1 draw picks nothing but is kept,
    since ``sample`` makes it too.  ``tests/test_s5.py`` pins the equality
    against ``sample``.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    getrandbits = random.Random(seed).getrandbits
    letters = _LETTERS
    word: list[Perm] = []
    append = word.append
    for _ in range(n):
        r5 = getrandbits(3)
        while r5 >= 5:
            r5 = getrandbits(3)
        r4 = getrandbits(3)
        while r4 >= 4:
            r4 = getrandbits(3)
        r3 = getrandbits(2)
        while r3 >= 3:
            r3 = getrandbits(2)
        r2 = getrandbits(2)
        while r2 >= 2:
            r2 = getrandbits(2)
        while getrandbits(1):
            pass
        append(letters[24 * r5 + 6 * r4 + 2 * r3 + r2])
    return word


def format_perm(p: Perm) -> str:
    return "".join(str(i) for i in p)


def parse_perm(s: str) -> Perm:
    if len(s) != 5 or any(ch not in "01234" for ch in s):
        raise ValueError(f"{s!r} is not a 5-digit image string over 0..4")
    return check_perm(tuple(int(ch) for ch in s))


def parse_words(text: str) -> list[Perm]:
    word = [parse_perm(line.strip()) for line in text.splitlines() if line.strip()]
    if not word:
        raise ValueError("word file contains no permutations")
    return word


def memorization_log10(n: int) -> float:
    """log10 of the e^(n ln 120) table size a constant-depth memorizer needs."""
    return n * math.log10(GROUP_ORDER)
