"""Majority-vote replication counts, simulated deciders, universal-seed search."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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


class TestMajorityVote:
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


class TestUnionBoundK:
    def test_formula(self):
        n, vocab, delta_all, p = 8, 2, 0.5, 0.3
        k = union_bound_k(n, vocab, delta_all, p)
        assert k % 2 == 1
        assert k >= (n * math.log(vocab) + math.log(1 / delta_all)) / (2 * (0.5 - p) ** 2)
        assert k == 79

    def test_p_zero_needs_single_seed(self):
        assert union_bound_k(8, 2, 0.5, 0.0) == 1

    @pytest.mark.parametrize("p", [0.5, 0.7])
    def test_p_at_or_above_half_rejected(self, p):
        with pytest.raises(ValueError, match="must satisfy 0 <= p < 1/2"):
            union_bound_k(8, 2, 0.5, p)


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

    def test_call_budget_enforced_before_any_seed(self):
        # as p nears 1/2 the bundle grows without bound; the search must refuse it, not draw it
        d = SimulatedDecider(word_parity, 0.4999999)
        k = union_bound_k(2, 2, 0.5, 0.4999999)
        assert k == 103_972_077_078_013
        message = f"^{k} seeds x 4 inputs = {4 * k} decider calls per attempt exceeds budget 1048576$"
        with pytest.raises(CapacityError, match=message):
            find_universal_seeds(d, n=2, vocab_size=2, delta_all=0.5, rng_seed=0)

    def test_call_budget_counts_k_times_inputs(self):
        d = SimulatedDecider(word_parity, 0.3)  # n = 4: k = 45, so 45 * 16 = 720 calls per attempt
        with pytest.raises(CapacityError, match="= 720 decider calls per attempt exceeds budget 719$"):
            find_universal_seeds(d, 4, 2, 0.5, rng_seed=0, max_inputs=719)
        assert find_universal_seeds(d, 4, 2, 0.5, rng_seed=0, max_inputs=720).k == 45

    def test_failure_reports_every_attempt(self):
        class LyingDecider:
            """Claims p=0.1 but is always wrong: no bundle can ever work."""

            p = 0.1

            def decide(self, word, seed):
                return 1 - word_parity(word)

            def truth(self, word):
                return word_parity(word)

        result = find_universal_seeds(LyingDecider(), n=3, vocab_size=2, delta_all=0.5, rng_seed=0, max_attempts=4)
        assert not result.success
        assert result.bundle is None
        assert result.attempts == 4
        assert result.per_attempt_errors == [8, 8, 8, 8]

    def test_ternary_vocabulary(self):
        d = SimulatedDecider(lambda w: int(sum(w) % 3 == 0), 0.2)
        result = find_universal_seeds(d, n=3, vocab_size=3, delta_all=0.5, rng_seed=1, max_attempts=64)
        assert result.success
        for word in all_words(3, 3):
            assert majority_vote(d, result.bundle, word) == d.truth(word)
