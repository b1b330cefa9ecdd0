"""Acceptance gate: one test per promised behavior, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test prints exactly one ``[acceptance] ...: PASS|FAIL`` line
and fails loudly if its check (or its time budget) is missed.
"""

import math
import random
import time

from depthbench import automata, bench, derand, do1, s5
from depthbench.circuits import eval_layered, eval_serial, logic_ids, random_circuit
from depthbench.meters import CostMeter

from oracles import brute_force_value, recursive_eval


def verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}{tail}"


def test_c1_compiled_stepping_all_rules():
    """All 256 rules, k in 1..3, 50 random width-64 tapes: compiled == k plain rows."""
    start = time.perf_counter()
    rng = random.Random(0xC1)
    mismatches = 0
    bad_sizes = 0
    for rule in range(256):
        for k in (1, 2, 3):
            cr = automata.CompiledRule(rule, k)
            if len(cr.table) != (8, 32, 128)[k - 1]:
                bad_sizes += 1
            for _ in range(50):
                tape = tuple(rng.randint(0, 1) for _ in range(64))
                if automata.step_compiled(tape, cr) != automata.evolve(tape, rule, k):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and bad_sizes == 0 and elapsed <= 60.0
    verdict(
        "C1 compiled-stepping-equivalence",
        ok,
        f"256 rules x 3 k x 50 tapes, {mismatches} mismatches, {bad_sizes} bad table sizes, {elapsed:.1f}s <= 60s",
    )


def test_c2_compiled_depth_counts():
    """60 rows at k = 1, 2, 3 cost meter depths exactly 60, 30, 20."""
    tape = tuple(random.Random(0xC2).randint(0, 1) for _ in range(64))
    depths = []
    for k in (1, 2, 3):
        meter = CostMeter()
        automata.evolve_compiled(tape, 110, 60, k, meter)
        depths.append(meter.depth)
    ok = depths == [60, 30, 20]
    verdict("C2 compiled-depth-meter", ok, f"depths {depths} == [60, 30, 20]")


def test_c3_cvp_evaluators_agree_exhaustively():
    """1000 random circuits (<=12 gates, <=4 inputs), every assignment, three evaluators."""
    start = time.perf_counter()
    rng = random.Random(0xC3)
    disagreements = 0
    for _ in range(1000):
        n_inputs = rng.randint(1, 4)
        n_gates = rng.randint(1, 12)
        c = random_circuit(rng.getrandbits(32), n_inputs, n_gates, fanin_max=4, majority_fraction=0.3)
        for code in range(1 << n_inputs):
            bits = tuple((code >> i) & 1 for i in range(n_inputs))
            serial = eval_serial(c, bits)
            if serial != eval_layered(c, bits) or serial != recursive_eval(c, bits):
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed <= 30.0
    verdict(
        "C3 cvp-evaluator-agreement",
        ok,
        f"1000 circuits, exhaustive inputs, {disagreements} disagreements, {elapsed:.1f}s <= 30s",
    )


def test_c4_s5_folds_and_derived_series():
    """Tree fold == serial fold with the right depths; derived series stabilizes at 60."""
    rng = random.Random(0xC4)
    bad = 0
    for exp in range(4, 13):
        n = 1 << exp
        for _ in range(200):
            word = s5.random_word(rng.getrandbits(32), n)
            ms, mt = CostMeter(), CostMeter()
            if s5.fold_tree(word, mt) != s5.fold_serial(word, ms):
                bad += 1
            if (ms.depth, mt.depth) != (n - 1, exp):
                bad += 1
    series = s5.derived_series()
    series_ok = series[-1] == series[-2] == 60 and series[-1] != 1
    ok = bad == 0 and series_ok
    verdict(
        "C4 s5-fold-equivalence",
        ok,
        f"200 words x 9 sizes, {bad} failures; derived series {series} stabilizes at 60 != 1",
    )


def test_c5_extraction_bracket_and_budget():
    """500 random alternating circuits (<=200 gates, hot): estimate <= d1 < 2x, probes within budget."""
    rng = random.Random(0xC5)
    bracket_violations = 0
    budget_violations = 0
    for _ in range(500):
        n_gates = rng.randint(1, 200)
        cfg = do1.random_alt_config(
            rng.getrandbits(32), n_inputs=rng.randint(1, 8), n_gates=n_gates, require_hot=True
        )
        n = len(logic_ids(cfg.circuit))
        m = (n - 1).bit_length()
        counting = do1.CountingOracle(do1.optimal_value)
        estimate = do1.extract_depth_of_one(cfg, counting)
        d1 = do1.depth_of_one(cfg)
        if not estimate <= d1 < 2 * estimate:
            bracket_violations += 1
        if counting.calls > (n + 1) * (m + 1):
            budget_violations += 1
    ok = bracket_violations == 0 and budget_violations == 0
    verdict(
        "C5 extraction-bracket",
        ok,
        f"500 circuits, {bracket_violations} bracket violations, {budget_violations} probe-budget violations",
    )


def test_c6_noisy_extraction_bracket():
    """Same extraction under [eps, 1] multiplicative noise: eps*est <= d1 <= (2/eps)*est."""
    violations = {0.5: 0, 0.8: 0}
    for eps in (0.5, 0.8):
        rng = random.Random(0xC6)
        for i in range(500):
            cfg = do1.random_alt_config(
                rng.getrandbits(32), n_inputs=rng.randint(1, 8), n_gates=rng.randint(1, 200), require_hot=True
            )
            oracle = do1.NoisyOracle(do1.optimal_value, eps, seed=i)
            estimate = do1.extract_depth_of_one(cfg, oracle)
            d1 = do1.depth_of_one(cfg)
            if not (eps * estimate <= d1 <= (2 / eps) * estimate):
                violations[eps] += 1
    ok = all(v == 0 for v in violations.values())
    verdict(
        "C6 noisy-extraction-bracket",
        ok,
        f"500 circuits x eps in (0.5, 0.8), violations {violations}",
    )


def test_c7_oracle_policy_is_optimal_on_small_instances():
    """Exhaustive search over all action sequences matches the policy and max(d1, k)."""
    rng = random.Random(0xC7)
    bad = 0
    checked = 0
    for _ in range(40):
        cfg = do1.random_alt_config(rng.getrandbits(32), n_inputs=rng.randint(1, 3), n_gates=rng.randint(1, 8))
        d1 = do1.depth_of_one(cfg)
        for chain_len in range(1, 9):
            brute = brute_force_value(do1.env_reset(cfg, chain_len))
            policy_reward = do1.rollout(cfg, chain_len, do1.oracle_policy)
            checked += 1
            if not policy_reward == brute == max(d1, chain_len):
                bad += 1
    ok = bad == 0
    verdict("C7 env-optimal-play", ok, f"{checked} small instances exhaustively searched, {bad} mismatches")


def test_c8_universal_seed_bundle():
    """Seed search at p=0.3, n=8: bundle exact on all 256 inputs; empirical majority error within bound."""
    start = time.perf_counter()
    p, n = 0.3, 8
    decider = derand.SimulatedDecider(derand.word_parity, p)
    result = derand.find_universal_seeds(decider, n=n, vocab_size=2, delta_all=0.5, rng_seed=0xC8, max_attempts=64)
    found = result.success
    exact = 0
    if found:
        # independent exhaustive verification, not the search loop's own count
        for code in range(1 << n):
            word = tuple((code >> i) & 1 for i in range(n))
            votes = sum(decider.decide(word, seed) for seed in result.bundle.seeds)
            if int(2 * votes > result.k) != derand.word_parity(word):
                exact += 1
    k = result.k
    trials = 10_000
    rng = random.Random(0xC8C8)
    wrong = 0
    for _ in range(trials):
        word = tuple(rng.randint(0, 1) for _ in range(n))
        bundle = derand.SeedBundle(tuple(rng.getrandbits(64) for _ in range(k)))
        if derand.majority_vote(decider, bundle, word) != derand.word_parity(word):
            wrong += 1
    bound = math.exp(-2 * k * (0.5 - p) ** 2)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    empirical_ok = wrong / trials <= bound + 3 * sigma
    elapsed = time.perf_counter() - start
    ok = found and exact == 0 and empirical_ok and elapsed <= 120.0
    verdict(
        "C8 universal-seed-bundle",
        ok,
        f"found={found} in {result.attempts} attempts, k={k}, {exact}/256 exhaustive errors, "
        f"empirical {wrong}/{trials} <= {bound + 3 * sigma:.5f}, {elapsed:.1f}s <= 120s",
    )


def test_c9_suite_rerun_reproducible():
    """Two runs with the same seeds agree byte-for-byte outside the wall_ns column."""

    def strip_wall(csv_text: str) -> str:
        lines = csv_text.splitlines()
        kept = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            del parts[6]
            kept.append(",".join(parts))
        return "\n".join(kept)

    cases = bench.default_suite()
    first = strip_wall(bench.emit_csv(bench.run_suite(cases)))
    second = strip_wall(bench.emit_csv(bench.run_suite(cases)))
    ok = first == second
    verdict("C9 bench-reproducibility", ok, f"{len(cases)} cases, non-wall columns byte-identical={ok}")
