"""Majority-vote replication counts, simulated deciders, universal-seed search."""

import collections
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from depthbench import derand
from depthbench.derand import (
    CapacityError,
    SeedBundle,
    SeedSearchResult,
    SimulatedDecider,
    all_words,
    count_bundle_errors,
    find_universal_seeds,
    hoeffding_k,
    majority_vote,
    union_bound_k,
    word_parity,
)
from depthbench.meters import CostMeter

from oracles import simulated_bundle_errors


class TestHoeffdingK:
    def test_frozen_value(self):
        # independent arithmetic: ceil(ln(100) / (2 * 0.2^2)) = 58, next odd is 59
        assert math.ceil(math.log(100) / 0.08) == 58
        assert hoeffding_k(0.3, 0.01) == 59

    def test_bound_actually_met(self):
        for p, delta in ((0.3, 0.01), (0.1, 0.001), (0.45, 0.2), (0.0, 0.5)):
            k = hoeffding_k(p, delta)
            assert k % 2 == 1
            assert math.exp(-2 * k * (0.5 - p) ** 2) <= delta
            if k > 2:
                assert math.exp(-2 * (k - 2) * (0.5 - p) ** 2) > delta or (k - 2) < 1

    def test_loose_delta_gives_one(self):
        assert hoeffding_k(0.1, 0.9) == 1

    @given(p=st.floats(0.0, 0.49), d1=st.floats(0.001, 0.5), d2=st.floats(0.001, 0.5))
    def test_monotone_in_delta(self, p, d1, d2):
        lo, hi = sorted((d1, d2))
        assert hoeffding_k(p, lo) >= hoeffding_k(p, hi)

    @given(
        p=st.floats(0.0, 0.5, exclude_max=True),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_smallest_odd_k_meeting_the_bound(self, p, delta):
        gamma = 2 * (0.5 - p) ** 2
        target = -math.log(delta)
        if math.ceil(target / gamma) > 2**52:
            with pytest.raises(ValueError, match=r"more than 2\^52$"):
                hoeffding_k(p, delta)
            return
        k = hoeffding_k(p, delta)
        assert k % 2 == 1
        assert math.exp(-k * gamma) <= delta
        assert k * gamma >= target
        if k > 1:
            # k - 2 misses the bound as written or in log form: exp of a
            # subnormal delta is too coarse to show the miss by itself
            assert math.exp(-(k - 2) * gamma) > delta or (k - 2) * gamma < target

    def test_subnormal_delta(self):
        # 1 / 5e-324 overflows; ln(1/delta) = 744.44, and 744.44 / 0.32 rounds up to 2327
        assert hoeffding_k(0.1, 5e-324) == 2327
        assert union_bound_k(2, 2, 1e-320, 0.3) == 9229

    def test_k_past_float_precision_refused(self):
        # k is about 5e32, where k + 1 rounds to the same float as k: a guard that steps k by one never ends
        with pytest.raises(ValueError, match=r"needs about \d+ seeds, more than 2\^52$"):
            hoeffding_k(0.49999999999999994, 0.05)
        assert hoeffding_k(0.4999999, 0.05) == 149_786_613_669_087  # about 2^47: still answered

    def test_rounded_quotient_one_too_high(self):
        # ceil(ln(1e176) / gamma) is 272699178229020, one past the smallest k meeting the bound
        assert hoeffding_k(0.499999138, 1e-176) == 272_699_178_229_019

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hoeffding_k(0.5, 0.01)
        with pytest.raises(ValueError):
            hoeffding_k(-0.1, 0.01)
        with pytest.raises(ValueError):
            hoeffding_k(0.3, 0.0)
        with pytest.raises(ValueError):
            hoeffding_k(0.3, 1.0)


class TestSimulatedDecider:
    def test_p_zero_never_wrong(self):
        d = SimulatedDecider(word_parity, 0.0)
        for word in all_words(4, 2):
            for seed in (0, 1, 2, 3, 17, 2**63):
                assert d.decide(word, seed) == word_parity(word)

    def test_deterministic(self):
        d = SimulatedDecider(word_parity, 0.3)
        assert [d.decide((0, 1, 1), s) for s in range(50)] == [
            d.decide((0, 1, 1), s) for s in range(50)
        ]

    def test_error_rate_near_p(self):
        d = SimulatedDecider(word_parity, 0.3)
        rng = random.Random(7)
        trials = 20_000
        wrong = sum(
            d.decide((0, 1, 0, 1), rng.getrandbits(64)) != word_parity((0, 1, 0, 1))
            for _ in range(trials)
        )
        rate = wrong / trials
        assert abs(rate - 0.3) < 0.02  # ~6 sigma

    def test_rejects_p_at_half(self):
        with pytest.raises(ValueError):
            SimulatedDecider(word_parity, 0.5)

    def test_holds_at_most_one_word(self):
        # state is one word with its hash and truth: nothing grows with the inputs or seeds checked
        d = SimulatedDecider(word_parity, 0.1)
        result = find_universal_seeds(d, 10, 2, 0.5, rng_seed=0)  # checks all 2^10 words
        assert result.success
        for word in all_words(10, 2):
            assert majority_vote(d, result.bundle, word) == word_parity(word)
        for name, value in vars(d).items():
            assert not isinstance(value, (dict, list, set, frozenset)), name
            if isinstance(value, tuple):
                assert value == (1,) * 10, name  # the last word voted on

    def test_search_asks_no_truth(self):
        # the search counts a word's wrong seeds, and decide is truth ^ error
        asked = []

        def truth(word):
            asked.append(word)
            return word_parity(word)

        result = find_universal_seeds(SimulatedDecider(truth, 0.3), 4, 2, 0.99, rng_seed=16)
        assert result.success and result.attempts == 3
        assert asked == []

    def test_truth_asked_once_per_vote(self):
        asked = collections.Counter()

        def truth(word):
            asked[word] += 1
            return word_parity(word)

        d = SimulatedDecider(truth, 0.3)
        bundle = SeedBundle(tuple(range(45)))
        for word in all_words(4, 2):
            majority_vote(d, bundle, word)
        assert asked == collections.Counter(all_words(4, 2))

    def test_large_bundle_through_a_wrapping_decider(self):
        # p = 0.49, n = 1: k = 6933 seeds over two words, every decision asked through the wrapper
        decisions = []

        class Recording:
            p = 0.49
            truth = staticmethod(word_parity)

            def __init__(self):
                self.inner = SimulatedDecider(word_parity, 0.49)

            def decide(self, word, seed):
                bit = self.inner.decide(word, seed)
                decisions.append((word, seed, bit))
                return bit

        d = Recording()
        result = find_universal_seeds(d, 1, 2, 0.5, rng_seed=0, max_attempts=2)
        assert result.k == 6933
        assert all(SimulatedDecider(word_parity, 0.49).decide(w, s) == bit for w, s, bit in decisions)

    def test_word_given_as_a_list(self):
        asked = []

        def truth(word):
            asked.append(tuple(word))
            return word_parity(word)

        d = SimulatedDecider(truth, 0.3)
        word = [0, 1, 1]
        first = [d.decide(word, s) for s in range(20)]
        word[0] = 1  # the same list, now another word
        assert [d.decide(word, s) for s in range(20)] == [d.decide((1, 1, 1), s) for s in range(20)]
        assert first == [SimulatedDecider(word_parity, 0.3).decide((0, 1, 1), s) for s in range(20)]
        assert asked == [(0, 1, 1), (1, 1, 1)]  # once per word, not once per decision


class ScriptedDecider:
    """Votes bit i of ``pattern`` for seed i and counts its calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def decide(self, word, seed):
        self.calls += 1
        return (self.pattern >> seed) & 1


class TestMajorityVote:
    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_stops_at_the_first_majority(self, k):
        bundle = SeedBundle(tuple(range(k)))
        need = k // 2 + 1
        for pattern in range(1 << k):
            votes = [(pattern >> i) & 1 for i in range(k)]
            settled = next(i + 1 for i in range(k) if need in (sum(votes[: i + 1]), i + 1 - sum(votes[: i + 1])))
            decider = ScriptedDecider(pattern)
            assert majority_vote(decider, bundle, (0,)) == int(2 * sum(votes) > k), pattern
            assert decider.calls == settled, pattern

    def test_bundle_must_be_odd(self):
        with pytest.raises(ValueError):
            SeedBundle((1, 2))
        assert SeedBundle((1, 2, 3)).k == 3

    def test_all_seeds_agreeing(self):
        d = SimulatedDecider(word_parity, 0.0)
        bundle = SeedBundle(tuple(range(7)))
        for word in all_words(3, 2):
            assert majority_vote(d, bundle, word) == word_parity(word)

    def test_empirical_error_within_hoeffding_bound(self):
        p, k, trials = 0.3, 101, 10_000
        d = SimulatedDecider(word_parity, p)
        rng = random.Random(123)
        word = (1, 0, 1, 1, 0, 0, 1, 0)
        truth = word_parity(word)
        wrong = 0
        for _ in range(trials):
            bundle = SeedBundle(tuple(rng.getrandbits(64) for _ in range(k)))
            if majority_vote(d, bundle, word) != truth:
                wrong += 1
        bound = math.exp(-2 * k * (0.5 - p) ** 2)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert wrong / trials <= bound + 3 * sigma


class TableDecider:
    """Votes and truths drawn once per (word, seed) and per word; a word may come as a list or a tuple."""

    def __init__(self, rng, n, vocab, seeds):
        words = list(itertools.product(range(vocab), repeat=n))
        self.votes = {(w, s): rng.getrandbits(1) for w in words for s in seeds}
        self.truths = {w: rng.getrandbits(1) for w in words}

    def decide(self, word, seed):
        return self.votes[tuple(word), seed]

    def truth(self, word):
        return self.truths[tuple(word)]


def full_count_errors(decider, seeds, n, vocab):
    """Words whose vote over every seed, asked as a list, disagrees with the truth."""
    bad = 0
    for w in itertools.product(range(vocab), repeat=n):
        ones = sum(decider.decide(list(w), s) for s in seeds)
        bad += int(2 * ones > len(seeds)) != decider.truth(list(w))
    return bad


class TestCountBundleErrors:
    @pytest.mark.parametrize("vocab", [2, 3])
    def test_scripted_deciders_match_a_full_count(self, vocab):
        rng = random.Random(vocab)
        for n in (1, 2, 3):
            for k in (1, 3, 5, 7):
                for _ in range(20):
                    seeds = tuple(rng.getrandbits(3) for _ in range(k))  # repeats are common
                    d = TableDecider(rng, n, vocab, seeds)
                    assert count_bundle_errors(d, SeedBundle(seeds), n, vocab) == full_count_errors(d, seeds, n, vocab)

    @pytest.mark.parametrize("vocab", [2, 3])
    def test_simulated_decider_on_seeds_equal_mod_2_64(self, vocab):
        # seeds equal mod 2^64 hash alike; a repeated seed votes twice
        seeds = (-1, 2**64 - 1, 5, 2**70 + 5, 12345, 7, 7)
        expected = {p: full_count_errors(SimulatedDecider(word_parity, p), seeds, 4, vocab) for p in (0.2, 0.45)}
        assert expected[0.45] > 0
        for p, bad in expected.items():
            assert count_bundle_errors(SimulatedDecider(word_parity, p), SeedBundle(seeds), 4, vocab) == bad

    def test_simulated_decider_past_4096_lanes(self):
        # 2048 copies of a and of b, some shifted by 2^64, then three seeds in lanes 4096-4098:
        # wherever a and b disagree, the last three lanes decide the vote
        rng = random.Random(1)
        a, b, *tail = (rng.getrandbits(64) for _ in range(5))
        seeds = [a + (j % 3 - 1) * 2**64 for j in range(2048)] + [b - j % 2 * 2**64 for j in range(2048)] + tail
        d = SimulatedDecider(word_parity, 0.45)
        assert sum(d.decide(w, a) != d.decide(w, b) for w in all_words(3, 2)) == 6
        got = count_bundle_errors(d, SeedBundle(tuple(seeds)), 3, 2)
        assert got == simulated_bundle_errors(word_parity, 0.45, seeds, 3, 2) == 2

    def test_subclass_is_asked_through_votes(self):
        calls = []

        class Counting(SimulatedDecider):
            def decide(self, word, seed):
                calls.append(word)
                return super().decide(word, seed)

        bundle = SeedBundle((3, -3, 2**64 + 3, 8, 9))
        expected = count_bundle_errors(SimulatedDecider(word_parity, 0.45), bundle, 5, 2)
        assert count_bundle_errors(Counting(word_parity, 0.45), bundle, 5, 2) == expected > 0
        assert set(calls) == set(all_words(5, 2))

    @settings(max_examples=80, deadline=None)
    @given(
        vocab=st.sampled_from((1, 2, 3)),
        n=st.integers(1, 4),
        p=st.one_of(st.sampled_from((0.0, 0.3, 0.45, 0.49)), st.floats(0.0, 0.5, exclude_max=True)),
        pool=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4),
        picks=st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), min_size=1, max_size=7),
        parity=st.booleans(),
        rng_seed=st.integers(0, 2**32),
    )
    def test_simulated_decider_matches_the_oracle(self, vocab, n, p, pool, picks, parity, rng_seed):
        # seeds repeat, and differ by multiples of 2^64
        seeds = [pool[i % len(pool)] + shift * 2**64 for i, shift in picks]
        seeds += seeds[-1:] * (1 - len(seeds) % 2)  # an odd bundle, ending in a repeat when one is added
        truth = word_parity if parity else (lambda w: int(sum(w) % 3 == 0))
        got = count_bundle_errors(SimulatedDecider(truth, p), SeedBundle(tuple(seeds)), n, vocab)
        assert got == simulated_bundle_errors(truth, p, seeds, n, vocab)
        result = find_universal_seeds(SimulatedDecider(truth, min(p, 0.35)), n, vocab, 0.5, rng_seed, 4)
        if result.success:
            assert result.per_attempt_errors[-1] == 0
            assert simulated_bundle_errors(truth, min(p, 0.35), result.bundle.seeds, n, vocab) == 0


class TestUnionBoundK:
    def test_formula(self):
        n, vocab, delta_all, p = 8, 2, 0.5, 0.3
        k = union_bound_k(n, vocab, delta_all, p)
        assert k % 2 == 1
        assert k >= (n * math.log(vocab) + math.log(1 / delta_all)) / (2 * (0.5 - p) ** 2)
        assert k == 79

    def test_p_zero_needs_single_seed(self):
        assert union_bound_k(8, 2, 0.5, 0.0) == 1

    def test_k_past_float_precision_refused(self):
        # the same rounding as hoeffding_k, at a per-input delta of 0.5 / 2^2
        with pytest.raises(ValueError, match=r"^p=0.49999999 with delta=0.125\d* needs about \d+ seeds, more than 2\^52$"):
            union_bound_k(2, 2, 0.5, 0.49999999)

    @pytest.mark.parametrize("p", [0.5, 0.7])
    def test_p_at_or_above_half_rejected(self, p):
        with pytest.raises(ValueError, match="must satisfy 0 <= p < 1/2"):
            union_bound_k(8, 2, 0.5, p)

    @pytest.mark.parametrize(
        "n, vocab, message",
        [
            (-5, 2, "n must be an int >= 0"),
            (2.5, 2, "n must be an int >= 0"),
            ("3", 2, "n must be an int >= 0"),
            (3, 0, "vocab_size must be an int >= 1"),
            (3, -2, "vocab_size must be an int >= 1"),
            (3, 2.0, "vocab_size must be an int >= 1"),
        ],
    )
    def test_refuses_inputs_it_cannot_count(self, n, vocab, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            union_bound_k(n, vocab, 0.5, 0.3)

    def test_empty_word_and_bools_are_counted(self):
        assert union_bound_k(0, 2, 0.5, 0.3) == union_bound_k(0, 1, 0.5, 0.3) == 9  # one input: ln(1/delta_all) alone
        assert union_bound_k(True, True, 0.5, 0.3) == union_bound_k(1, 1, 0.5, 0.3)


def test_capacity_error_is_shared_with_automata():
    from depthbench import automata, derand, meters

    assert automata.CapacityError is derand.CapacityError is meters.CapacityError


class TestFindUniversalSeeds:
    def test_perfect_decider_first_attempt(self):
        d = SimulatedDecider(word_parity, 0.0)
        result = find_universal_seeds(d, n=4, vocab_size=2, delta_all=0.5, rng_seed=0)
        assert result.success
        assert result.k == 1
        assert result.attempts == 1
        assert result.per_attempt_errors == [0]

    def test_found_bundle_verifies(self):
        d = SimulatedDecider(word_parity, 0.25)
        result = find_universal_seeds(d, n=6, vocab_size=2, delta_all=0.5, rng_seed=3)
        assert result.success
        assert count_bundle_errors(d, result.bundle, 6, 2) == 0
        # independent exhaustive re-check
        for word in all_words(6, 2):
            assert majority_vote(d, result.bundle, word) == word_parity(word)

    def test_deterministic_in_rng_seed(self):
        d1 = SimulatedDecider(word_parity, 0.2)
        d2 = SimulatedDecider(word_parity, 0.2)
        r1 = find_universal_seeds(d1, 4, 2, 0.5, rng_seed=9)
        r2 = find_universal_seeds(d2, 4, 2, 0.5, rng_seed=9)
        assert r1.bundle == r2.bundle
        assert r1.per_attempt_errors == r2.per_attempt_errors

    def test_budget_enforced(self):
        d = SimulatedDecider(word_parity, 0.1)
        with pytest.raises(CapacityError):
            find_universal_seeds(d, n=30, vocab_size=2, delta_all=0.5, rng_seed=0)

    def test_huge_input_space_refused_without_building_it(self):
        d = SimulatedDecider(word_parity, 0.1)
        with pytest.raises(CapacityError, match=r"^2\^20000 inputs exceeds budget 1048576$"):
            find_universal_seeds(d, n=20000, vocab_size=2, delta_all=0.5, rng_seed=0)
        # at vocab 2 the size is printed up to 2^128, as automata prints its table sizes
        with pytest.raises(CapacityError, match=f"^2\\^128 = {2**128} inputs exceeds budget 1048576$"):
            find_universal_seeds(d, n=128, vocab_size=2, delta_all=0.5, rng_seed=0)
        with pytest.raises(CapacityError, match=r"^2\^129 inputs exceeds budget 1048576$"):
            find_universal_seeds(d, n=129, vocab_size=2, delta_all=0.5, rng_seed=0)
        with pytest.raises(CapacityError, match=f"^{2**300}\\^1 inputs exceeds budget 1048576$"):
            find_universal_seeds(d, n=1, vocab_size=2**300, delta_all=0.5, rng_seed=0)

    def test_number_too_long_for_decimal_named_by_bit_length(self):
        # 10^5000 has more digits than int-to-string conversion allows by default
        d = SimulatedDecider(word_parity, 0.1)
        with pytest.raises(CapacityError, match=r"^<16610-bit number>\^1 inputs exceeds budget 1048576$"):
            find_universal_seeds(d, n=1, vocab_size=10**5000, delta_all=0.5, rng_seed=0)
        with pytest.raises(CapacityError, match=r"^2\^<16610-bit number> inputs exceeds budget 1048576$"):
            find_universal_seeds(d, n=10**5000, vocab_size=2, delta_all=0.5, rng_seed=0)
        with pytest.raises(CapacityError, match=r"^word length <16610-bit number> exceeds budget 1048576$"):
            find_universal_seeds(d, n=10**5000, vocab_size=1, delta_all=0.5, rng_seed=0)

    def test_word_length_budget_at_vocab_one(self, monkeypatch):
        # 1^n = 1 input fits any budget, but hashing it costs n
        d = SimulatedDecider(word_parity, 0.1)
        with pytest.raises(CapacityError, match="^word length 1000000000 exceeds budget 1048576$"):
            find_universal_seeds(d, n=10**9, vocab_size=1, delta_all=0.5, rng_seed=0)
        monkeypatch.setattr(derand, "INPUT_BUDGET", 8)
        with pytest.raises(CapacityError, match="^word length 9 exceeds budget 8$"):
            find_universal_seeds(d, n=9, vocab_size=1, delta_all=0.5, rng_seed=0)
        result = find_universal_seeds(d, n=8, vocab_size=1, delta_all=0.5, rng_seed=0)
        assert (result.success, result.k, result.per_attempt_errors) == (True, 3, [0])

    def test_call_budget_enforced_before_any_seed(self):
        # as p nears 1/2 the bundle grows without bound; the search must refuse it, not draw it
        d = SimulatedDecider(word_parity, 0.4999999)
        k = union_bound_k(2, 2, 0.5, 0.4999999)
        assert k == 103_972_077_078_013
        message = f"^{k} seeds x 4 inputs = {4 * k} decider calls per attempt exceeds budget 1048576$"
        with pytest.raises(CapacityError, match=message):
            find_universal_seeds(d, n=2, vocab_size=2, delta_all=0.5, rng_seed=0)

    def test_call_budget_counts_k_times_inputs(self, monkeypatch):
        d = SimulatedDecider(word_parity, 0.3)  # n = 4: k = 45, so 45 * 16 = 720 calls per attempt
        monkeypatch.setattr(derand, "INPUT_BUDGET", 719)
        with pytest.raises(CapacityError, match="= 720 decider calls per attempt exceeds budget 719$"):
            find_universal_seeds(d, 4, 2, 0.5, rng_seed=0)
        monkeypatch.setattr(derand, "INPUT_BUDGET", 720)
        assert find_universal_seeds(d, 4, 2, 0.5, rng_seed=0).k == 45

    def test_failure_reports_every_attempt(self):
        class LyingDecider:
            """Claims p=0.1 but is always wrong: no bundle can ever work."""

            p = 0.1

            def decide(self, word, seed):
                return 1 - word_parity(word)

            def truth(self, word):
                return word_parity(word)

        meter = CostMeter()
        result = find_universal_seeds(
            LyingDecider(), n=3, vocab_size=2, delta_all=0.5, rng_seed=0, max_attempts=4, meter=meter
        )
        assert not result.success
        assert result.bundle is None
        assert result.attempts == 4
        assert result.per_attempt_errors == [8, 8, 8, 8]
        assert (meter.work, meter.depth) == (4 * result.k * 2**3, 4)  # every failed attempt is one charged round

    @pytest.mark.parametrize(
        "n, vocab, max_attempts, name",
        [
            (2.0, 2, 32, "n"),
            ("2", 2, 32, "n"),
            (2, 2.0, 32, "vocab_size"),
            (2, None, 32, "vocab_size"),
            (2, 2, 2.0, "max_attempts"),
        ],
    )
    def test_mistyped_arguments_refused(self, n, vocab, max_attempts, name):
        with pytest.raises(ValueError, match=f"^{name} must be an int$"):
            find_universal_seeds(SimulatedDecider(word_parity, 0.3), n, vocab, 0.5, 0, max_attempts)

    def test_ternary_vocabulary(self):
        d = SimulatedDecider(lambda w: int(sum(w) % 3 == 0), 0.2)
        result = find_universal_seeds(d, n=3, vocab_size=3, delta_all=0.5, rng_seed=1, max_attempts=64)
        assert result.success
        for word in all_words(3, 3):
            assert majority_vote(d, result.bundle, word) == d.truth(word)


class VoteCountingDecider(SimulatedDecider):
    """A ``SimulatedDecider``'s decisions, asked vote by vote since it is a subclass; counts them."""

    calls = 0

    def decide(self, word, seed):
        self.calls += 1
        return super().decide(word, seed)


class TestSearchMeter:
    # p = 0.1, n = 2, vocab 2, rng_seed 1: k = 7 and the first bundle misses one input
    @pytest.mark.parametrize("decider_cls", [SimulatedDecider, VoteCountingDecider])
    @pytest.mark.parametrize("max_attempts, found", [(32, True), (1, False)])
    def test_each_attempt_charges_one_round_of_the_model(self, decider_cls, max_attempts, found):
        d = decider_cls(word_parity, 0.1)
        meter = CostMeter()
        result = find_universal_seeds(d, 2, 2, 0.5, 1, max_attempts, meter)
        assert (result.success, result.k, result.per_attempt_errors) == (found, 7, [1, 0] if found else [1])
        assert (meter.work, meter.depth) == (result.attempts * 7 * 2**2, result.attempts)
        if decider_cls is VoteCountingDecider:
            assert 0 < d.calls < meter.work  # votes stop at their majority; the meter counts k per input

    @pytest.mark.parametrize(
        "n, vocab, error",
        [(30, 2, CapacityError), (1, 2**300, CapacityError), (0, 2, ValueError), (2, 2.0, ValueError)],
    )
    def test_refused_search_charges_nothing(self, n, vocab, error):
        meter = CostMeter()
        with pytest.raises(error):
            find_universal_seeds(SimulatedDecider(word_parity, 0.1), n, vocab, 0.5, 0, meter=meter)
        assert (meter.work, meter.depth) == (0, 0)


def decide_digest():
    h = hashlib.sha256()
    seeds = (0, 1, 2, 17, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 5, 2**100 + 3, -1, -2, -(2**64), -(2**70) - 9)
    for p in (0.0, 0.1, 0.3, 0.45):
        d = SimulatedDecider(word_parity, p)
        for n, vocab in ((1, 2), (3, 2), (5, 2), (3, 3)):
            for word in all_words(n, vocab):
                h.update((" ".join(str(d.decide(word, s)) for s in seeds) + "\n").encode())
    # one seed asked of two deciders in turn
    a = SimulatedDecider(word_parity, 0.3)
    b = SimulatedDecider(lambda w: int(sum(w) % 3 == 0), 0.2)
    for seed in (5, -5, 2**64 + 5):
        for word in all_words(4, 3):
            h.update(f"{a.decide(word, seed)} {b.decide(word, seed)}\n".encode())
    return h.hexdigest()


def search_digest():
    h = hashlib.sha256()
    for p in (0.1, 0.2, 0.3, 0.45):
        for vocab, ns in ((2, (2, 4, 6)), (3, (2, 3))):
            for n in ns:
                d = SimulatedDecider(word_parity, p)
                for rng_seed in range(10):
                    r = find_universal_seeds(d, n, vocab, 0.5, rng_seed)
                    seeds = r.bundle.seeds if r.bundle else None
                    h.update(f"{p} {vocab} {n} {rng_seed} {seeds} {r.k} {r.attempts} {r.per_attempt_errors}\n".encode())
    return h.hexdigest()


# computed when every vote asked all k seeds and a decider kept every word's hash
DECIDE_DIGEST = "0685b458d43a88301a994757d1bf4f2b8098fa35787e01436eb87823a5143192"
SEARCH_DIGEST = "5b933a22d43fefbe0fa96dd71f738737ba3e333f49cc5485de45703c85d023df"


class TestPinned:
    def test_decisions_are_pinned(self):
        assert decide_digest() == DECIDE_DIGEST

    def test_searches_are_pinned(self):
        assert search_digest() == SEARCH_DIGEST
