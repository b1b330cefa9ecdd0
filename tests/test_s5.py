"""Permutation composition, serial/tree folds, derived series, wire format."""

import dataclasses
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from depthbench.meters import CostMeter
from depthbench.s5 import (
    _LETTERS,
    GROUP_ORDER,
    IDENTITY,
    all_perms,
    check_perm,
    commutator_subgroup,
    compose,
    derived_series,
    fold_serial,
    fold_tree,
    format_perm,
    inverse,
    memorization_log10,
    parse_perm,
    parse_words,
    random_word,
)

from oracles import perm_parity_by_inversions, word_product
from strategies import s5_words

perms = st.sampled_from(all_perms())


def test_compose_applies_right_then_left():
    swap01 = (1, 0, 2, 3, 4)
    cycle = (1, 2, 3, 4, 0)
    # (swap01 o cycle)(0) = swap01(cycle(0)) = swap01(1) = 0
    assert compose(swap01, cycle) == (0, 2, 3, 4, 1)
    assert compose(cycle, swap01) == (2, 1, 3, 4, 0)


@given(a=perms, b=perms)
def test_compose_pointwise(a, b):
    assert compose(a, b) == tuple(a[b[i]] for i in range(5))


@given(p=perms)
def test_inverse(p):
    assert compose(p, inverse(p)) == IDENTITY
    assert compose(inverse(p), p) == IDENTITY


def test_associativity_exhaustive_sample():
    sample = all_perms()[::7]  # 18 permutations
    for a in sample:
        for b in sample:
            for c in sample:
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestFolds:
    def test_single_element_word(self):
        m = CostMeter()
        p = (2, 0, 1, 3, 4)
        assert fold_serial([p], m) == p
        assert (m.work, m.depth) == (0, 0)
        m = CostMeter()
        assert fold_tree([p], m) == p
        assert (m.work, m.depth) == (0, 0)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            fold_serial([])
        with pytest.raises(ValueError):
            fold_tree([])

    def test_identity_word(self):
        word = [IDENTITY] * 9
        assert fold_serial(word) == IDENTITY
        assert fold_tree(word) == IDENTITY

    def test_transposition_squares_to_identity(self):
        swap = (1, 0, 2, 3, 4)
        assert fold_serial([swap, swap]) == IDENTITY

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    def test_tree_equals_serial(self, seed, n):
        word = random_word(seed, n)
        assert fold_tree(word) == fold_serial(word)

    def test_meter_depths(self):
        for n in list(range(1, 65)) + [100, 1000, 4096]:
            word = random_word(n, n)
            ms, mt = CostMeter(), CostMeter()
            assert fold_serial(word, ms) == fold_tree(word, mt)
            assert (ms.work, ms.depth) == (n - 1, n - 1)
            assert mt.work == n - 1
            assert mt.depth == math.ceil(math.log2(n))

    @settings(max_examples=150, deadline=None)
    @given(word=s5_words())
    def test_folds_and_meters_match_the_oracle(self, word):
        n = len(word)
        ms, mt = CostMeter(), CostMeter()
        assert fold_serial(word, ms) == fold_tree(word, mt) == word_product(word)
        assert (ms.work, ms.depth) == (n - 1, n - 1)
        assert (mt.work, mt.depth) == (n - 1, math.ceil(math.log2(n)))

    @pytest.mark.parametrize(
        "lengths",
        [range(1, 601), (255, 256, 257, 511, 512, 513), (65535, 65536, 65537), (2**17 + 3,)],
        ids=["1-600", "block-edges", "2^16-edges", "two-block-stages"],
    )
    def test_block_walk_matches_serial_and_oracle(self, lengths):
        word = random_word(len(lengths), max(lengths))
        for n in lengths:
            prefix = word[:n]
            assert fold_tree(prefix) == fold_serial(prefix) == word_product(prefix), n

    def test_tree_charges_each_level_in_order(self):
        @dataclasses.dataclass
        class RecordingMeter(CostMeter):
            charges: list = dataclasses.field(default_factory=list)

            def charge(self, work, depth):
                self.charges.append((work, depth))
                super().charge(work, depth)

        for n in (1, 2, 3, 7, 256, 257, 1000, 65537):
            levels, m = [], n
            while m > 1:  # a level of m nodes makes floor(m/2) pairs and keeps ceil(m/2) nodes
                levels.append((m // 2, 1))
                m = (m + 1) // 2
            meter = RecordingMeter()
            fold_tree(random_word(n, n), meter)
            assert meter.charges == levels, n

    def test_tree_keeps_no_whole_level_alive(self):
        word = random_word(5, 1 << 16)
        tracemalloc.start()
        try:
            product = fold_tree(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert product == fold_serial(word)
        assert peak < 256 * 1024  # a first level of 32,768 new tuples alone is about 2.5 MiB

    def test_serial_fold_order_matters_example(self):
        # non-commutative: two orders of the same letters differ
        a, b = (1, 0, 2, 3, 4), (0, 2, 1, 3, 4)
        assert fold_serial([a, b]) != fold_serial([b, a])


class TestDerivedSeries:
    def test_orders(self):
        assert derived_series() == [120, 60, 60]

    def test_stabilized_term_is_even_and_perfect(self):
        sub = commutator_subgroup(all_perms())
        assert len(sub) == 60
        assert all(perm_parity_by_inversions(p) == 0 for p in sub)
        # perfect: its own commutator subgroup is itself
        assert commutator_subgroup(sub) == sub

    def test_full_group_order(self):
        assert len(all_perms()) == GROUP_ORDER == 120


class TestCheckPerm:
    def test_returns_the_tuple(self):
        assert check_perm([1, 0, 2, 3, 4]) == (1, 0, 2, 3, 4)

    @pytest.mark.parametrize(
        "p",
        [
            (0.0, 1, 2, 3, 4),  # a float equal to an image
            (0, "1", 2, 3, 4),  # a str, which sorted cannot order among ints
            (0, 1, 2, 3, 3),
            (0, 1, 2, 3),
            (-1, 1, 2, 3, 4),
            (0, 1, 2, 3, 256),
            5,
        ],
    )
    def test_anything_but_the_ints_0_to_4_is_refused(self, p):
        with pytest.raises(ValueError, match="is not a permutation of 0..4$"):
            check_perm(p)

    def test_bools_are_ints(self):
        p = check_perm((False, True, 2, 3, 4))
        assert p == IDENTITY
        assert format_perm(p) == "01234"


class TestWireFormat:
    def test_perm_round_trip(self):
        assert parse_perm("10234") == (1, 0, 2, 3, 4)
        assert format_perm((1, 0, 2, 3, 4)) == "10234"
        with pytest.raises(ValueError):
            parse_perm("11234")
        with pytest.raises(ValueError):
            parse_perm("1023")

    def test_words_round_trip(self):
        word = random_word(8, 12)
        text = "".join(f" {format_perm(p)}\n\n" for p in word)  # blank lines and padding are skipped
        assert parse_words(text) == word

    @settings(max_examples=80, deadline=None)
    @given(word=s5_words())
    def test_drawn_words_round_trip(self, word):
        assert parse_words("\n".join(format_perm(p) for p in word)) == word

    def test_empty_word_file_rejected(self):
        with pytest.raises(ValueError):
            parse_words("\n\n")


def test_random_word_deterministic():
    assert random_word(5, 20) == random_word(5, 20)
    assert random_word(5, 20) != random_word(6, 20)


class ScriptedDraws(random.Random):
    """A Random whose ``getrandbits`` returns the given values in turn."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = iter(draws)

    def getrandbits(self, k):
        return next(self.draws)


class TestLetterTable:
    def test_holds_each_permutation_once(self):
        assert len(_LETTERS) == GROUP_ORDER
        assert set(_LETTERS) == set(all_perms())

    def test_entries_are_what_sample_picks(self):
        for r5, r4, r3, r2 in itertools.product(range(5), range(4), range(3), range(2)):
            picked = ScriptedDraws([r5, r4, r3, r2, 0]).sample(range(5), 5)
            assert _LETTERS[24 * r5 + 6 * r4 + 2 * r3 + r2] == tuple(picked)

    def test_word_letters_are_the_shared_tuples(self):
        shared = {id(p) for p in _LETTERS}
        assert all(id(p) in shared for p in random_word(9, 5000))


def sampled_word(seed, n):
    """The word ``random_word`` must draw: one Random.sample per letter."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(5), 5)) for _ in range(n)]


class TestRandomWordMatchesSample:
    """random_word copies Random.sample's draws; a Python whose sample draws
    differently fails here by name, not only through the sweep digest."""

    @pytest.mark.parametrize("seed", [0, 1, 42, -1, -(2**40), 2**64, 2**64 + 1, 3**50])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
    def test_fixed_seeds(self, seed, n):
        word = random_word(seed, n)
        assert word == sampled_word(seed, n)
        assert all(check_perm(p) == p for p in word)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(-(2**70), 2**70), n=st.sampled_from([1, 2, 3, 64]))
    def test_drawn_seeds(self, seed, n):
        assert random_word(seed, n) == sampled_word(seed, n)

    @pytest.mark.parametrize("seed", [0, 2**64 + 1])
    def test_scale_workload_length(self, seed):
        assert random_word(seed, 65536) == sampled_word(seed, 65536)


def test_memorization_figure():
    # e^(n ln 120) == 120^n, reported in log10
    assert memorization_log10(2) == pytest.approx(math.log10(120**2))
    assert memorization_log10(100) == pytest.approx(100 * math.log(120) / math.log(10))
