"""Majority-vote amplification of a seeded decider, and universal-seed search.

A decider answers (word, seed) -> bit and is wrong with probability at most
p < 1/2 over a random seed.  Majority over an odd bundle of k seeds drives
the per-input error below exp(-2k(1/2-p)^2); picking k large enough for a
union bound over every length-n word makes a random bundle likely to be
correct on *all* inputs at once, which exhaustive verification then checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .meters import CapacityError, CostMeter

Word = tuple[int, ...]

_MASK64 = (1 << 64) - 1

INPUT_BUDGET = 1 << 20  # max inputs, (word, seed) decisions and word length in one search attempt

_WORD_HASH = 0x8BADF00D  # hash of the empty word; each token is mixed in after it


def _mix(x: int) -> int:
    """splitmix64 finalizer: cheap, well-scrambled 64-bit hash step."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def word_parity(word: Word) -> int:
    """Default ground truth: parity of the token sum."""
    return sum(word) & 1


def _check_p(p: float) -> None:
    if not 0 <= p < 0.5:
        raise ValueError(f"error bound p={p} must satisfy 0 <= p < 1/2")


def _check_count(name: str, value: int, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int (bools included) of at least ``low``."""
    if not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an int >= {low}")


class SimulatedDecider:
    """A decider whose error events behave like independent Bernoulli(p) draws.

    ``decide`` flips the ground truth exactly when a 64-bit hash of
    (word, seed) lands below p * 2^64, so the error rate over a uniform
    64-bit seed is p (up to rounding of the threshold) and is independent
    across distinct (word, seed) pairs for hashing purposes.

    ``truth`` must be a pure function of the word: the decider keeps the
    last word asked with its hash and its truth, since a vote asks one word
    of every seed in turn, so a decision costs two hashes, the seed's and
    the (word, seed) pair's.
    """

    def __init__(self, truth: Callable[[Word], int], p: float):
        _check_p(p)
        self.truth = truth
        self.p = p
        self._threshold = int(p * 2**64)
        self._word: Word | None = None
        self._word_hash = 0
        self._word_truth = 0

    def decide(self, word: Word, seed: int) -> int:
        if word != self._word and tuple(word) != self._word:  # a list never equals the kept tuple
            h = _WORD_HASH
            for tok in word:
                h = _mix(h ^ (tok + 1))
            self._word, self._word_hash, self._word_truth = tuple(word), h, self.truth(word)
        return self._word_truth ^ (_mix(self._word_hash ^ _mix(seed & _MASK64)) < self._threshold)


@dataclass(frozen=True)
class SeedBundle:
    """An odd-sized tuple of decider seeds to vote over."""

    seeds: tuple[int, ...]

    def __post_init__(self):
        if len(self.seeds) % 2 == 0:
            raise ValueError(f"bundle size {len(self.seeds)} must be odd")

    @property
    def k(self) -> int:
        return len(self.seeds)


def majority_vote(decider, bundle: SeedBundle, word: Word) -> int:
    """Return the majority bit of the decider over the bundle's seeds (no ties: k is odd).

    Seeds are asked in order, and asking stops as soon as one bit has
    ``k // 2 + 1`` votes, since the rest cannot change the outcome; k
    decider calls is the worst case.
    """
    need = bundle.k // 2 + 1
    ones = zeros = 0
    for s in bundle.seeds:
        if decider.decide(word, s):
            ones += 1
            if ones == need:
                break
        else:
            zeros += 1
            if zeros == need:
                break
    return int(2 * ones > bundle.k)


def _smallest_odd_k(p: float, target: float, delta: float) -> int:
    """Smallest odd k with k·2(1/2-p)^2 >= target and exp(-k·2(1/2-p)^2) <= delta.

    ``target`` is ln(1/delta); the bound is checked in both forms, since exp
    rounds a subnormal delta too coarsely to decide it.  Raises
    ``ValueError`` when k would exceed 2^52 (p within roughly 10^-7 of 1/2,
    depending on delta): there k * gamma no longer resolves a step of one
    in k, so the bound cannot be checked.
    """
    gamma = 2 * (0.5 - p) ** 2
    k = max(1, math.ceil(target / gamma))
    if k > 1 << 52:
        raise ValueError(f"p={p} with delta={delta} needs about {k} seeds, more than 2^52")
    # the rounded quotient can miss the smallest k by one either way
    while k > 1 and (k - 1) * gamma >= target:
        k -= 1
    while k * gamma < target or math.exp(-k * gamma) > delta:
        k += 1
    return k if k % 2 else k + 1


def hoeffding_k(p: float, delta: float) -> int:
    """Smallest odd k with exp(-2k(1/2-p)^2) <= delta; see ``_smallest_odd_k``."""
    _check_p(p)
    if not 0 < delta < 1:
        raise ValueError(f"target delta={delta} must lie in (0, 1)")
    return _smallest_odd_k(p, -math.log(delta), delta)


def union_bound_k(n: int, vocab_size: int, delta_all: float, p: float) -> int:
    """Smallest odd k making the union bound over all vocab^n inputs close at delta_all.

    That is ``hoeffding_k`` at a per-input delta of delta_all / vocab^n,
    taken in log form, ln(1/delta) = n ln vocab + ln(1/delta_all), so a
    large input space cannot underflow it.  A decider with p = 0 is never
    wrong, so k = 1 suffices there.  ``n`` must be an int >= 0 (n = 0 is the
    one empty word) and ``vocab_size`` an int >= 1, else ``ValueError``.
    """
    _check_p(p)
    if not 0 < delta_all < 1:
        raise ValueError(f"delta_all={delta_all} must lie in (0, 1)")
    _check_count("n", n, 0)
    _check_count("vocab_size", vocab_size, 1)
    if p == 0:
        return 1
    # ln(vocab^n) as a float: n * ln(vocab) can pass float range, but from n = 2^64 on k >= 2n ln 2 > 2^52 anyway
    if vocab_size == 1:
        log_inputs = 0.0
    elif n < 1 << 64:
        log_inputs = n * math.log(vocab_size)
    else:
        raise ValueError(f"{vocab_size}^n inputs with n >= 2^64 need more than 2^52 seeds")
    target = log_inputs - math.log(delta_all)
    return _smallest_odd_k(p, target, math.exp(-target))


def all_words(n: int, vocab_size: int) -> Iterator[Word]:
    """Every length-n word over tokens 0..vocab_size-1, lexicographic."""
    return itertools.product(range(vocab_size), repeat=n)


def _word_hashes(n: int, vocab_size: int) -> Iterator[int]:
    """The hash ``decide`` gives each length-n word, in ``all_words`` order.

    An odometer over the tokens: ``prefix[i]`` is the hash of the current
    word's first i tokens, so each prefix is hashed once and the state is
    O(n), with no list of the vocab^n words.
    """
    tokens = [0] * n
    prefix = [_WORD_HASH] * n
    stale = 1  # prefix[stale:] must be rehashed from the tokens before them
    while True:
        for i in range(stale, n):
            prefix[i] = _mix(prefix[i - 1] ^ (tokens[i - 1] + 1))
        last = prefix[n - 1]
        for tok in range(1, vocab_size + 1):
            yield _mix(last ^ tok)
        i = n - 2
        while i >= 0 and tokens[i] == vocab_size - 1:
            tokens[i] = 0
            i -= 1
        if i < 0:
            return
        tokens[i] += 1
        stale = i + 1


def _packed_misses(decider: SimulatedDecider, bundle: SeedBundle, n: int, vocab_size: int) -> int:
    """``count_bundle_errors`` for a ``SimulatedDecider``: all k decisions on a word in one pass.

    The pass hashes each bundle seed once and reads nothing of the decider
    but its threshold.  Each seed hash sits in the low half of a 128-bit lane
    of one int, so that int grows with k (``INPUT_BUDGET`` bounds
    k * vocab^n), and ``_mix`` runs on every lane at once.  A shift's spill
    into the lane below is masked off before the next multiply, and a
    product of two 64-bit numbers never leaves its lane.  Adding
    2^64 - threshold to a lane sets its bit 64 iff the hash is at or above
    the threshold, that is iff that seed's vote is the truth; since
    ``decide`` is truth ^ error, a word is a miss iff fewer than k//2+1
    lanes vote the truth, and the truth itself is never asked.
    """
    packed = int.from_bytes(b"".join(_mix(s & _MASK64).to_bytes(16, "little") for s in bundle.seeds), "little")
    ones = int.from_bytes((b"\x01" + bytes(15)) * bundle.k, "little")  # 1 in every lane
    add, mask, carries = ones * 0x9E3779B97F4A7C15, ones * _MASK64, ones * ((1 << 64) - decider._threshold)
    high = ones << 64  # bit 64 of every lane
    need = bundle.k // 2 + 1
    bad = 0
    for word_hash in _word_hashes(n, vocab_size):
        x = ((packed ^ word_hash * ones) + add) & mask
        x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
        bad += ((x ^ (x >> 31)) + carries & high).bit_count() < need  # the shift's spill sits above bit 96
    return bad


def count_bundle_errors(decider, bundle: SeedBundle, n: int, vocab_size: int) -> int:
    """Exhaustive count of inputs where the majority vote disagrees with the truth.

    A ``SimulatedDecider`` (the class itself: a subclass may override
    ``decide``) is counted by ``_packed_misses``, every seed's decision on a
    word in one pass, without asking the truth.  Any other decider is asked
    word by word through ``majority_vote``, which stops each vote at its
    majority.
    """
    if type(decider) is SimulatedDecider:
        return _packed_misses(decider, bundle, n, vocab_size)
    bad = 0
    for w in all_words(n, vocab_size):
        if majority_vote(decider, bundle, w) != decider.truth(w):
            bad += 1
    return bad


def _decimal(x: int) -> str:
    """``x`` in decimal, or its bit length where decimal would pass the interpreter's digit limit."""
    try:
        return str(x)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"<{x.bit_length()}-bit number>"


@dataclass
class SeedSearchResult:
    """Outcome of a universal-seed search; ``bundle`` is None on failure."""

    bundle: SeedBundle | None
    k: int
    attempts: int
    per_attempt_errors: list[int]

    @property
    def success(self) -> bool:
        return self.bundle is not None


def find_universal_seeds(
    decider, n: int, vocab_size: int, delta_all: float, rng_seed: int, max_attempts: int = 32,
    meter: CostMeter | None = None,
) -> SeedSearchResult:
    """Draw random bundles until one is correct on every length-n word.

    The bundle size comes from the union bound at ``delta_all``; each
    attempt is verified exhaustively by ``count_bundle_errors``, recording
    its error count.  An attempt decides k * vocab^n (word, seed) pairs: a
    ``SimulatedDecider`` hashes all k of every word in one pass, and any
    other decider is asked through votes that stop at their majority, so
    usually fewer times.  The budget ``INPUT_BUDGET`` bounds running time by
    that count: the input space vocab^n, k * vocab^n and the word length n
    must all fit it, and a ``CapacityError`` is raised before any seed is
    drawn otherwise (k grows without bound as p nears 1/2; at vocab 1 there
    is one input of any length, but hashing it costs n).  vocab^n is built
    only where it is below 2^256, so a huge one is refused as a power, and
    a vocab or n too long to write in decimal is named by its bit length.
    ``n``, ``vocab_size`` and ``max_attempts`` must be ints >= 1 (bools
    included), else ``ValueError``.  Failure after ``max_attempts`` returns
    a result with ``bundle=None`` and the full per-attempt error history.

    Each attempt charges ``meter`` one round of k * vocab^n work: the
    model's count, also where a vote stopped early.  A refused search
    charges nothing.
    """
    for name, value in (("n", n), ("vocab_size", vocab_size), ("max_attempts", max_attempts)):
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an int")
    if n < 1 or vocab_size < 1:
        raise ValueError("n and vocab_size must be >= 1")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if vocab_size > 1 and vocab_size.bit_length() * n > 256:  # vocab^n >= 2^128: far past the budget
        raise CapacityError(f"{_decimal(vocab_size)}^{_decimal(n)} inputs exceeds budget {INPUT_BUDGET}")
    n_words = vocab_size**n
    if n_words > INPUT_BUDGET:
        raise CapacityError(f"{vocab_size}^{n} = {n_words} inputs exceeds budget {INPUT_BUDGET}")
    if n > INPUT_BUDGET:
        raise CapacityError(f"word length {_decimal(n)} exceeds budget {INPUT_BUDGET}")
    k = union_bound_k(n, vocab_size, delta_all, decider.p)
    if k * n_words > INPUT_BUDGET:
        raise CapacityError(
            f"{k} seeds x {n_words} inputs = {k * n_words} decider calls per attempt exceeds budget {INPUT_BUDGET}"
        )
    meter = meter if meter is not None else CostMeter()
    rng = random.Random(rng_seed)
    errors: list[int] = []
    for attempt in range(1, max_attempts + 1):
        bundle = SeedBundle(tuple(rng.getrandbits(64) for _ in range(k)))
        bad = count_bundle_errors(decider, bundle, n, vocab_size)
        meter.charge(k * n_words, 1)
        errors.append(bad)
        if bad == 0:
            return SeedSearchResult(bundle, k, attempt, errors)
    return SeedSearchResult(None, k, max_attempts, errors)
