"""End-to-end CLI behavior: output, stderr meters, exit codes, config merge."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from depthbench import automata, bench, derand, s5
from depthbench.cli import build_parser, main
from depthbench.meters import CostMeter

from oracles import naive_evolve
from test_bench import BAD_CASES

# sha256 of the default sweep's CSV without wall_ns: the meter columns the sweep reports
SWEEP_DIGEST = "514787fb6b6a25b46656795d59d0af8c3959c173d766e2084d2f9cdbee7e23d2"
# sha256 of the default sweep's report, which holds no wall time
REPORT_DIGEST = "e8244041bbc0491952d5cc364ee26bafd90313b6b462b60e6275c76b3fb2857d"


@pytest.fixture
def chain5(tmp_path) -> str:
    """The path of a netlist file holding an alternating chain whose depth-of-one is 5."""
    net = tmp_path / "chain.net"
    net.write_text("const 0 1\nor 1 0\nand 2 1\nor 3 2\nand 4 3\nor 5 4\noutput 5\n")
    return str(net)


def strip_wall(csv_text: str) -> str:
    """The CSV without its wall_ns column, the only one that varies between reruns."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    return "\n".join(",".join(row[:6] + row[7:]) for row in rows)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCa:
    def test_single_row(self, capsys):
        code, out, err = run(capsys, "ca", "110", "00100", "--rows", "1")
        assert code == 0
        assert out == "01100\n"
        assert "work=5 depth=1" in err

    def test_rule_zero_rows(self, capsys):
        code, out, _ = run(capsys, "ca", "0", "111", "--rows", "3")
        assert code == 0
        assert out == "000\n000\n000\n"

    def test_row_cell_matches_library(self, capsys):
        code, out, _ = run(capsys, "ca", "110", "1", "--row", "3", "--cell", "4")
        assert code == 0
        assert out.strip() == str(automata.cell_at(110, (1,), 3, 4))

    def test_compiled_rows_match_plain(self, capsys):
        tape = "010011000101"
        tapes = [naive_evolve(automata.parse_tape(tape), 110, r) for r in range(14)]
        for flag, k, n in itertools.product(["--rows", "--row"], [None, 1, 2, 3, 4], range(14)):
            if flag == "--rows" and n == 0:
                continue
            argv = ["ca", "110", tape, flag, str(n)] + ([] if k is None else ["--k", str(k)])
            code, out, err = run(capsys, *argv)
            if k is None:
                reached = list(range(1, n + 1))  # the row after each round
            else:
                reached = [*range(k, n, k), n] if n else []
            shown = reached if flag == "--rows" else [n]
            assert code == 0, argv
            assert out == "".join(automata.format_tape(tapes[r]) + "\n" for r in shown), argv
            meter = f"meter: work={len(tape) * len(reached)} depth={len(reached)}"
            assert err == (meter if k is None else f"{meter} table_size={1 << (2 * k + 1)}") + "\n", argv

    @pytest.mark.parametrize(
        "argv, out, err",
        [
            (["00100", "--rows", "3"], "01100\n11100\n10100\n", "meter: work=15 depth=3\n"),
            (
                ["0000000010000000", "--rows", "12", "--k", "3"],
                "0000011010000000\n0011100110000000\n1000001110000000\n1001100010000000\n",
                "meter: work=64 depth=4 table_size=128\n",
            ),
            (["1", "--row", "3", "--cell", "4"], "0\n", ""),
        ],
    )
    def test_readme_examples_byte_for_byte(self, capsys, argv, out, err):
        assert run(capsys, "ca", "110", *argv) == (0, out, err)

    @pytest.mark.parametrize("flag", ["--rows", "--row"])
    def test_k_below_one_is_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "ca", "110", "0110", flag, "3", "--k", "0")
        assert (code, out) == (2, "")
        assert "k must be >= 1" in err

    def test_malformed_tape_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ca", "110", "01x0")
        assert code == 2
        assert "error:" in err
        for extra in (["--row", "-1"], ["--row", "-1", "--cell", "0"]):
            code, out, err = run(capsys, "ca", "110", "01x0", *extra)
            assert (code, out, err) == (2, "", "error: tape '01x0' must be a non-empty 0/1 string\n"), extra

    def test_rule_out_of_range(self, capsys):
        code, _, err = run(capsys, "ca", "300", "010")
        assert code == 2
        assert "0..255" in err
        for extra in (["--row", "0"], ["--row", "0", "--k", "2"], ["--row", "0", "--cell", "1"]):
            code, out, err = run(capsys, "ca", "300", "0110", *extra)
            assert (code, out) == (2, ""), extra
            assert "rule 300 outside 0..255" in err, extra

    def test_table_budget_checked_before_any_round(self, capsys):
        for extra in (["--row", "0"], ["--rows", "3"], ["--rows", "50"]):
            code, out, err = run(capsys, "ca", "110", "0110", *extra, "--k", "40")
            assert (code, out) == (2, ""), extra
            assert "2^81 = 2417851639229258349412352 table entries exceeds budget 33554432" in err, extra

    def test_huge_k_gets_the_budget_message(self, capsys):
        code, out, err = run(capsys, "ca", "110", "0110", "--rows", "1", "--k", "10000")
        assert (code, out) == (2, "")
        assert err == "error: 2^20001 table entries exceeds budget 33554432\n"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--cell", "1"], "--cell requires --row"),
            (["--row", "2", "--cell", "1", "--k", "2"], "--k cannot be combined with --cell"),
            (["--rows", "0"], "--rows must be >= 1"),
            (["--row", "-1"], "--row must be >= 0"),
            (["--row", "-1", "--k", "2"], "--row must be >= 0"),
            (["--row", "-1", "--cell", "0"], "--row must be >= 0"),
            (["--row", "-1", "--cell", "0", "--k", "2"], "--k cannot be combined with --cell"),
        ],
    )
    def test_flag_misuse_is_usage_error(self, capsys, extra, message):
        code, out, err = run(capsys, "ca", "110", "0110", *extra)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "flags, doc",
        [
            (["--rows", "5", "--row", "2"], None),
            (["--rows", "1", "--row", "0", "--cell", "0"], None),
            (["--row", "2"], {"rows": 5}),
            (["--row", "2"], {"rows": 1}),
            (["--rows", "5"], {"row": 2}),
            ([], {"rows": 5, "row": 2}),
        ],
    )
    def test_rows_and_row_refused(self, capsys, tmp_path, flags, doc):
        # --row would print one tape and silently drop --rows, from a flag or from the config
        if doc is not None:
            cfg = tmp_path / "ca.json"
            cfg.write_text(json.dumps(doc))
            flags = [*flags, "--config", str(cfg)]
        assert run(capsys, "ca", "110", "00100", *flags) == (2, "", "error: --rows and --row cannot be combined\n")


class TestCvp:
    def test_inverter(self, capsys, tmp_path):
        net = tmp_path / "inv.net"
        net.write_text("input 0\nnot 1 0\noutput 1\n")
        code, out, _ = run(capsys, "cvp", str(net), "1")
        assert (code, out) == (0, "0\n")
        code, out, _ = run(capsys, "cvp", str(net), "0")
        assert (code, out) == (0, "1\n")

    def test_parse_error_cites_line(self, capsys, tmp_path):
        net = tmp_path / "bad.net"
        net.write_text("input 0\nxor 1 0 0\noutput 1\n")
        code, _, err = run(capsys, "cvp", str(net), "1")
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "cvp", str(tmp_path / "nope.net"), "1")
        assert code == 2


class TestS5:
    def test_tree_equals_serial(self, capsys):
        code_a, out_a, err_a = run(capsys, "s5", "--fold", "serial", "--n", "8", "--seed", "1")
        code_b, out_b, err_b = run(capsys, "s5", "--fold", "tree", "--n", "8", "--seed", "1")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "depth=7" in err_a
        assert "depth=3" in err_b

    def test_word_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("10234\n10234\n")
        code, out, _ = run(capsys, "s5", "--words", str(path))
        assert (code, out) == (0, "01234\n")

    @pytest.mark.parametrize(
        "flags, doc, flag",
        [
            (["--n", "3", "--seed", "5"], None, "--n"),
            (["--seed", "0"], None, "--seed"),
            ([], {"n": 16}, "--n"),
            (["--seed", "5"], {"n": 3}, "--n"),
            ([], {"seed": 0}, "--seed"),
            ([], {"words": "WORDS", "seed": 5}, "--seed"),
        ],
    )
    def test_words_refuses_n_and_seed(self, capsys, tmp_path, flags, doc, flag):
        # a word file is the whole word, so --n and --seed would be silently ignored
        path = tmp_path / "word.txt"
        path.write_text("10234\n10234\n")
        words = [] if doc and "words" in doc else ["--words", str(path)]
        if doc is not None:
            cfg = tmp_path / "s5.json"
            cfg.write_text(json.dumps({k: str(path) if v == "WORDS" else v for k, v in doc.items()}))
            flags = [*flags, "--config", str(cfg)]
        assert run(capsys, "s5", *words, *flags) == (2, "", f"error: --words and {flag} cannot be combined\n")

    def test_n_and_seed_defaults_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "s5.json"
        cfg.write_text(json.dumps({"n": 6, "seed": 42}))
        assert run(capsys, "s5", "--config", str(cfg)) == run(capsys, "s5", "--n", "6", "--seed", "42")
        assert run(capsys, "s5") == run(capsys, "s5", "--n", "16", "--seed", "0")

    def test_output_is_valid_perm(self, capsys):
        _, out, _ = run(capsys, "s5", "--n", "30", "--seed", "9")
        s5.parse_perm(out.strip())


class TestDo1:
    def test_extract_noisy(self, capsys, chain5):
        code, out, err = run(capsys, "do1", chain5, "--extract", "--noise", "0.5", "--seed", "3")
        assert code == 0
        estimate = int(out.strip())
        assert 0.5 * estimate <= 5 <= 4 * estimate
        assert "bracket ok" in err

    def test_extract_needs_an_oracle(self, capsys, chain5):
        code, _, err = run(capsys, "do1", chain5, "--extract")
        assert code == 2
        assert "exact-oracle" in err

    def test_exact_oracle_and_noise_refused(self, capsys, chain5):
        code, out, err = run(capsys, "do1", chain5, "--extract", "--exact-oracle", "--noise", "0.5")
        assert (code, out, err) == (2, "", "error: --exact-oracle and --noise cannot be combined\n")

    @pytest.mark.parametrize(
        "doc, flags",
        [({"exact-oracle": True}, ["--noise", "0.5"]), ({"noise": 0.5}, ["--exact-oracle"])],
    )
    def test_exact_oracle_and_noise_refused_across_config(self, capsys, tmp_path, chain5, doc, flags):
        cfg = tmp_path / "do1.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "do1", chain5, "--extract", *flags, "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: --exact-oracle and --noise cannot be combined\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--exact-oracle"], "--exact-oracle needs --extract"),
            (["--noise", "0.5"], "--noise needs --extract"),
            (["--noise", "0.5", "--seed", "9"], "--noise needs --extract"),
            (["--seed", "9"], "--seed needs --noise"),
            (["--extract", "--exact-oracle", "--seed", "9"], "--seed needs --noise"),
            (["--extract", "--exact-oracle", "--seed", "0"], "--seed needs --noise"),
        ],
    )
    def test_unused_oracle_flags_refused(self, capsys, chain5, flags, message):
        code, out, err = run(capsys, "do1", chain5, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "doc, flags, message",
        [
            ({"exact-oracle": True}, [], "--exact-oracle needs --extract"),
            ({"noise": 0.5, "seed": 9}, [], "--noise needs --extract"),
            ({"seed": 9}, ["--extract", "--exact-oracle"], "--seed needs --noise"),
            ({"extract": True, "seed": 9}, ["--exact-oracle"], "--seed needs --noise"),
        ],
    )
    def test_unused_oracle_flags_refused_across_config(self, capsys, tmp_path, chain5, doc, flags, message):
        cfg = tmp_path / "do1.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "do1", chain5, *flags, "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # one gate at chain length 1: horizon 1, so each probe is a pick that ends the episode
    @pytest.mark.parametrize(
        "argv, out, err",
        [
            ([], "1\n", ""),
            (["--extract", "--exact-oracle"], "1\n", "bracket ok: d1=1 estimate=1 probes=2 (1 <= 1 < 2)\n"),
        ],
        ids=["evaluate", "extract"],
    )
    def test_one_gate_at_horizon_1(self, capsys, tmp_path, argv, out, err):
        net = tmp_path / "net.nl"
        net.write_text("input 0\nor 1 0\noutput 1\n")
        assert run(capsys, "do1", str(net), "1", *argv) == (0, out, err)

    def test_noise_seed_from_config_and_default(self, capsys, tmp_path, chain5):
        cfg = tmp_path / "do1.json"
        cfg.write_text(json.dumps({"extract": True, "noise": 0.5, "seed": 7}))
        from_config = run(capsys, "do1", chain5, "--config", str(cfg))
        assert from_config == run(capsys, "do1", chain5, "--extract", "--noise", "0.5", "--seed", "7")
        omitted = run(capsys, "do1", chain5, "--extract", "--noise", "0.5")
        assert omitted == run(capsys, "do1", chain5, "--extract", "--noise", "0.5", "--seed", "0")

    def test_all_cold_gives_zero(self, capsys, tmp_path):
        net = tmp_path / "cold.net"
        net.write_text("input 0\nor 1 0\nand 2 1 0\noutput 2\n")
        code, out, _ = run(capsys, "do1", str(net), "0", "--extract", "--exact-oracle")
        assert (code, out) == (0, "0\n")

    def test_alternation_violation_lists_edges(self, capsys, tmp_path):
        net = tmp_path / "alt.net"
        net.write_text("input 0\nand 1 0\nand 2 1\noutput 2\n")
        code, _, err = run(capsys, "do1", str(net), "1")
        assert code == 2
        assert "2<-1" in err


class TestDerand:
    def test_search_seeds_are_the_rng_seed_draws(self, capsys):
        rng = random.Random(1)  # the search draws each bundle's 64-bit seeds from Random(--rng-seed)
        seeds = ", ".join(str(rng.getrandbits(64)) for _ in range(45))
        out = f'{{"attempts": 1, "k": 45, "per_attempt_errors": [0], "seeds": [{seeds}], "success": true}}\n'
        argv = ["derand", "--p", "0.3", "--n", "4", "--vocab", "2", "--delta-all", "0.5", "--rng-seed", "1"]
        assert run(capsys, *argv) == (0, out, "found universal bundle of 45 seeds in 1 attempts\n")

    @pytest.mark.parametrize(
        "flags, doc, first",
        [
            (["--bound-only", "--n", "4", "--vocab", "3", "--rng-seed", "2"], None, "--n"),
            (["--bound-only", "--max-attempts", "1", "--vocab", "2"], None, "--vocab"),
            (["--bound-only", "--delta-all", "0.5"], None, "--delta-all"),
            (["--bound-only", "--rng-seed", "0"], None, "--rng-seed"),
            (["--bound-only", "--max-attempts", "32"], None, "--max-attempts"),
            (["--bound-only"], {"max-attempts": 3, "delta-all": 0.5}, "--delta-all"),
            ([], {"bound-only": True, "n": 8}, "--n"),
        ],
    )
    def test_bound_only_refuses_search_flags(self, capsys, tmp_path, flags, doc, first):
        # --bound-only never searches, so a search flag would be silently ignored
        if doc is not None:
            cfg = tmp_path / "derand.json"
            cfg.write_text(json.dumps(doc))
            flags = [*flags, "--config", str(cfg)]
        assert run(capsys, "derand", *flags) == (2, "", f"error: --bound-only and {first} cannot be combined\n")

    @pytest.mark.parametrize(
        "flags, doc",
        [(["--n", "4", "--delta", "0.5"], None), (["--delta", "0.01"], None), (["--n", "4"], {"delta": 0.5})],
    )
    def test_search_refuses_delta(self, capsys, tmp_path, flags, doc):
        # the search's failure target is --delta-all
        if doc is not None:
            cfg = tmp_path / "derand.json"
            cfg.write_text(json.dumps(doc))
            flags = [*flags, "--config", str(cfg)]
        assert run(capsys, "derand", *flags) == (2, "", "error: --delta needs --bound-only\n")

    def test_omitted_flags_keep_their_defaults(self, capsys):
        bound = run(capsys, "derand", "--bound-only", "--p", "0.3", "--delta", "0.01")
        assert run(capsys, "derand", "--bound-only") == bound
        search = ["--p", "0.3", "--n", "8", "--vocab", "2", "--delta-all", "0.5", "--rng-seed", "0"]
        assert run(capsys, "derand") == run(capsys, "derand", *search, "--max-attempts", "32")

    def test_search_json_summary(self, capsys):
        code, out, err = run(capsys, "derand", "--n", "4", "--vocab", "2", "--p", "0.2", "--rng-seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["success"] is True
        assert len(doc["seeds"]) == doc["k"]
        assert doc["per_attempt_errors"][-1] == 0
        assert "universal bundle" in err

    def test_invalid_p(self, capsys):
        code, _, err = run(capsys, "derand", "--bound-only", "--p", "0.7")
        assert code == 2

    def test_subnormal_delta(self, capsys):
        assert run(capsys, "derand", "--bound-only", "--delta", "5e-324", "--p", "0.1") == (0, "2327\n", "")
        code, out, _ = run(capsys, "derand", "--delta-all", "1e-320", "--n", "2")
        doc = json.loads(out)
        assert (code, doc["success"], doc["k"], len(doc["seeds"])) == (0, True, 9229, 9229)

    def test_bound_past_float_precision_is_usage_error(self, capsys):
        code, out, err = run(capsys, "derand", "--bound-only", "--p", "0.49999999999999994", "--delta", "0.05")
        assert (code, out) == (2, "")
        assert "more than 2^52" in err

    def test_failed_search_exits_1(self, capsys):
        argv = ["derand", "--p", "0.3", "--n", "4", "--delta-all", "0.99", "--rng-seed", "7", "--max-attempts", "1"]
        code, out, err = run(capsys, *argv)
        doc = json.loads(out)
        assert (code, doc["success"], doc["seeds"], doc["per_attempt_errors"]) == (1, False, None, [2])
        assert err == "no universal bundle in 1 attempts\n"

    def test_search_past_call_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "derand", "--p", "0.4999999", "--n", "2")
        assert (code, out) == (2, "")
        assert "decider calls per attempt exceeds budget 1048576" in err

    def test_search_past_input_budget_is_usage_error(self, capsys):
        # 2^20000 has more digits than int-to-string conversion allows by default
        code, out, err = run(capsys, "derand", "--n", "20000")
        assert (code, out, err) == (2, "", "error: 2^20000 inputs exceeds budget 1048576\n")
        code, out, err = run(capsys, "derand", "--vocab", "1", "--n", "1048577")
        assert (code, out, err) == (2, "", "error: word length 1048577 exceeds budget 1048576\n")


class TestBench:
    def test_suite_to_stdout(self, capsys, tmp_path):
        suite = {
            "cases": [
                {"family": "s5", "size": 16, "solver": "serial", "seed": 1},
                {"family": "s5", "size": 16, "solver": "tree", "seed": 1},
            ]
        }
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(suite))
        code, out, err = run(capsys, "bench", "--config", str(cfg))
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "family,size,solver,seed,work,depth,wall_ns,aux"
        assert len(lines) == 3
        assert "ran 2 cases (0 errors)" in err

    def test_csv_and_report_files(self, capsys, tmp_path):
        suite = {"cases": [{"family": "ca", "size": 8, "solver": "compiled-k2", "seed": 2}]}
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(suite))
        csv_path = tmp_path / "out.csv"
        report_path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "bench", "--config", str(cfg), "--csv", str(csv_path), "--report", str(report_path))
        assert code == 0
        assert out == ""
        assert csv_path.read_text().startswith("family,")
        assert "== family ca ==" in report_path.read_text()

    def test_report_to_stdout(self, capsys, tmp_path):
        suite = {"cases": [{"family": "s5", "size": 16, "solver": "tree", "seed": 1}]}
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(suite))
        csv_path = tmp_path / "out.csv"
        code, out, _ = run(capsys, "bench", "--config", str(cfg), "--csv", str(csv_path), "--report", "-")
        records = bench.parse_csv(csv_path.read_text())
        assert (code, out) == (0, bench.emit_report(records) + "\n")
        assert "== family s5 ==" in out

    @pytest.mark.parametrize("entry, key", BAD_CASES)
    def test_strict_case_is_usage_error(self, capsys, tmp_path, entry, key):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"cases": [{"family": "s5", "size": 8, "solver": "tree"}, entry]}))
        code, out, err = run(capsys, "bench", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad suite case #1: ") and f"'{key}'" in err

    def test_separator_in_solver_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"cases": [{"family": "s5", "size": 8, "solver": "tr,ee"}]}))
        code, out, err = run(capsys, "bench", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: bad suite case #0: solver 'tr,ee' holds a CSV separator (',', ';', '=' or a line break)\n"

    def test_bench_without_cases(self, capsys, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        code, out, err = run(capsys, "bench", "--config", str(cfg))
        assert code == 0
        assert len(bench.parse_csv(out)) == len(bench.default_suite()) == 37
        assert err.endswith("ran 37 cases (0 errors)\n")

    def test_no_config_runs_default_sweep(self, capsys):
        code, out, err = run(capsys, "bench")
        expected = bench.emit_csv(bench.run_suite(bench.default_suite()))
        assert code == 0
        assert len(bench.parse_csv(out)) == 37
        assert strip_wall(out) == strip_wall(expected)
        assert hashlib.sha256(strip_wall(out).encode()).hexdigest() == SWEEP_DIGEST
        assert err.endswith("ran 37 cases (0 errors)\n")

    def test_default_sweep_to_csv_and_report_files(self, capsys, tmp_path):
        csv_path, report_path = tmp_path / "bench.csv", tmp_path / "bench_report.txt"
        code, out, err = run(capsys, "bench", "--csv", str(csv_path), "--report", str(report_path))
        assert (code, out) == (0, "")
        assert csv_path.read_text().startswith("family,size,solver,seed,work,depth,wall_ns,aux\n")
        assert hashlib.sha256(report_path.read_text().encode()).hexdigest() == REPORT_DIGEST
        assert "(0 errors)" in err

    @pytest.mark.parametrize("cases", [None, 5, {}])
    def test_cases_that_are_not_an_array(self, capsys, tmp_path, cases):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"cases": cases}))
        code, out, err = run(capsys, "bench", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: suite config needs a 'cases' array\n")

    def test_error_records_exit_1_and_name_each_case(self, capsys, tmp_path):
        suite = {
            "cases": [
                {"family": "cvp", "size": 8, "solver": "bogus", "params": {"n_inputs": 3}},
                {"family": "ca", "size": 8, "solver": "compiled-k30"},
            ]
        }
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(suite))
        code, out, err = run(capsys, "bench", "--config", str(cfg))
        records = bench.parse_csv(out)
        assert code == 1
        assert [(r.family, r.solver) for r in records] == [("cvp", "bogus"), ("ca", "compiled-k30")]
        assert all("error" in r.aux for r in records)
        *failed, summary = err.splitlines()
        assert (len(failed), summary) == (2, "ran 2 cases (2 errors)")
        assert '"n_inputs": 3' in failed[0]
        for idx, (line, record) in enumerate(zip(failed, records)):
            assert line.startswith(f"failed case #{idx} ({record.aux['error']}): ")
            case_json = line.split(": ", 1)[1]
            assert bench.load_suite({"cases": [json.loads(case_json)]}) == [bench.load_suite(suite)[idx]]

    def test_files_written_before_failing(self, capsys, tmp_path):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"cases": [{"family": "s5", "size": 8, "solver": "bogus"}]}))
        csv_path, report_path = tmp_path / "out.csv", tmp_path / "report.txt"
        code, out, _ = run(capsys, "bench", "--config", str(cfg), "--csv", str(csv_path), "--report", str(report_path))
        assert (code, out) == (1, "")
        assert bench.parse_csv(csv_path.read_text())[0].aux["error"].startswith("BenchError")
        assert "ERROR" in report_path.read_text()

    @pytest.mark.parametrize("flags", [("--csv", "nodir/x.csv"), ("--report", "nodir/r.txt")])
    def test_unwritable_output_refused_before_any_case_runs(self, capsys, monkeypatch, tmp_path, flags):
        def not_called(cases):
            raise AssertionError("run_suite ran before the output files were opened")

        monkeypatch.setattr(bench, "run_suite", not_called)
        flag, path = flags
        code, out, err = run(capsys, "bench", flag, str(tmp_path / path))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory") and "nodir" in err

    def test_csv_and_report_on_one_file_refused(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(bench, "run_suite", lambda cases: pytest.fail("run_suite ran"))
        out_path = tmp_path / "out.txt"
        code, out, err = run(capsys, "bench", "--csv", str(out_path), "--report", str(tmp_path / "." / "out.txt"))
        assert (code, out) == (2, "")
        assert err == f"error: --csv and --report name the same file {str(out_path)!r}\n"
        assert not out_path.exists()


class TestConfigMerge:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 2}))
        code, out, _ = run(capsys, "ca", "0", "111", "--config", str(cfg))
        assert (code, out) == (0, "000\n000\n")

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 2}))
        code, out, _ = run(capsys, "ca", "0", "111", "--rows", "1", "--config", str(cfg))
        assert (code, out) == (0, "000\n")

    def test_hyphenated_keys_mirror_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bound-only": True, "p": 0.3, "delta": 0.01}))
        code, out, _ = run(capsys, "derand", "--config", str(cfg))
        assert (code, out) == (0, "59\n")

    def test_misspelt_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_attempts": 1}))
        code, out, err = run(capsys, "derand", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "'max_attempts'" in err and "max-attempts" in err

    def test_refusal_names_none_when_no_key_is_allowed(self, capsys, tmp_path):
        net, cfg = tmp_path / "inv.nl", tmp_path / "c.json"
        net.write_text("input 0\nnot 1 0\noutput 1\n")
        cfg.write_text(json.dumps({"assignment": "0"}))
        code, out, err = run(capsys, "cvp", str(net), "1", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: unknown config key 'assignment' for depthbench cvp (allowed: none)\n"

    def test_cases_key_only_for_bench(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": [], "rows": 1}))
        code, _, err = run(capsys, "ca", "0", "111", "--config", str(cfg))
        assert code == 2
        assert "'cases'" in err

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["s5"], {"seed": None}),
            (["ca", "110", "0110"], {"rows": 2.7}),
            (["ca", "110", "0110"], {"k": True}),
            (["s5"], {"fold": "bogus"}),
            (["derand"], {"bound-only": 1}),
        ],
    )
    def test_value_typed_like_its_flag(self, capsys, tmp_path, argv, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"config key {next(iter(doc))!r}" in err

    def test_bad_json_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        code, _, err = run(capsys, "ca", "0", "1", "--config", str(cfg))
        assert code == 2
        # nesting past the JSON reader's recursion limit is a usage error, not an internal one
        for doc in ("[" * 100_000 + "]" * 100_000, '{"rows": ' + "[" * 990 + "]" * 990 + "}"):
            cfg.write_text(doc)
            for argv in (["ca", "0", "1"], ["s5"], ["bench"]):
                assert run(capsys, *argv, "--config", str(cfg)) == (2, "", "error: config file nests too deeply\n")

    # Each optional flag parses to None when absent, so --config fills only what the command line left unset.
    def test_every_optional_flag_parses_to_none(self):
        parser = build_parser()
        required = {"ca": ["110", "1"], "cvp": ["x.nl"], "s5": [], "do1": ["x.nl"], "derand": [], "bench": []}
        subparsers = parser._subparsers._group_actions[0].choices
        assert set(subparsers) == set(required)
        for sub, positionals in required.items():
            args = vars(parser.parse_args([sub, *positionals]))
            dests = {a.dest for a in subparsers[sub]._actions if a.option_strings and a.dest != "help"}
            assert dests and {dest: args[dest] for dest in dests} == dict.fromkeys(dests), sub

    def test_config_fold_and_flag_fold(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fold": "tree"}))
        assert run(capsys, "s5", "--config", str(cfg)) == (0, "43102\n", "meter: work=15 depth=4\n")
        code, out, err = run(capsys, "s5", "--fold", "serial", "--config", str(cfg))
        assert (code, out, err) == (0, "43102\n", "meter: work=15 depth=15\n")

    def test_flag_p_beats_config_p(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.2, "bound-only": True}))
        assert run(capsys, "derand", "--config", str(cfg)) == (0, "27\n", "")
        assert run(capsys, "derand", "--p", "0.3", "--config", str(cfg)) == (0, "59\n", "")

    def test_config_csv_and_flag_csv(self, capsys, tmp_path):
        cfg, path = tmp_path / "cfg.json", tmp_path / "out.csv"
        case = {"family": "s5", "size": 4, "solver": "tree", "seed": 1}
        cfg.write_text(json.dumps({"cases": [case], "csv": str(path)}))
        code, out, err = run(capsys, "bench", "--config", str(cfg))
        assert (code, out, err) == (0, "", "ran 1 cases (0 errors)\n")
        csv = 'family,size,solver,seed,work,depth,aux\ns5,4,tree,1,3,2,product="43102"'
        assert strip_wall(path.read_text()) == csv
        path.unlink()
        code, out, _ = run(capsys, "bench", "--csv", "-", "--config", str(cfg))
        assert (code, strip_wall(out)) == (0, csv)
        assert not path.exists()

    def test_config_false_does_not_undo_flag(self, capsys, tmp_path, chain5):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"extract": False}))
        code, out, err = run(capsys, "do1", chain5, "--extract", "--exact-oracle", "--config", str(cfg))
        assert (code, out, err) == (0, "4\n", "bracket ok: d1=5 estimate=4 probes=24 (4 <= 5 < 8)\n")


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "ca", "110", "1", "--frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "subcommand" in out or "usage" in out


def call(argv):
    """``main(argv)`` as ``(exit code, stdout, stderr)``; hypothesis tests cannot take ``capsys``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# where each flag's value comes from in one drawn call
SOURCES = ("absent", "argv", "config", "both")


@st.composite
def flag_sources(draw, values):
    """``{flag: (source, argv value, config value)}`` for each flag named in ``values``."""
    return {flag: (draw(st.sampled_from(SOURCES)), draw(value), draw(value)) for flag, value in values.items()}


def spell(command, drawn, defaults, cfg: Path):
    """The argv for ``drawn`` and each flag's value by "flag > config > default"."""
    pairs, doc, chosen = [], {}, {}
    for flag, (source, on_argv, in_config) in drawn.items():
        if source in ("argv", "both"):
            pairs.append([f"--{flag}", str(on_argv)])
        if source in ("config", "both"):
            doc[flag] = in_config
        chosen[flag] = {"absent": defaults[flag], "config": in_config}.get(source, on_argv)
    if doc:
        cfg.write_text(json.dumps(doc))
        pairs.insert(len(pairs) // 2, ["--config", str(cfg)])
    return [*command, *itertools.chain.from_iterable(pairs)], chosen


class TestSharedParser:
    """main builds its parser once per process; no call may leave state on it for the next."""

    @settings(max_examples=80, deadline=None)
    @given(
        s5_flags=flag_sources(
            {"fold": st.sampled_from(("serial", "tree")), "n": st.integers(1, 40), "seed": st.integers(0, 2**20)}
        ),
        derand_flags=flag_sources({"p": st.floats(0, 0.45), "delta": st.floats(1e-9, 0.9)}),
        usage_error=st.sampled_from((["nope"], ["s5", "--n", "x"], ["s5", "--fold", "bogus"], ["derand", "--q"])),
        help_argv=st.sampled_from((["--help"], ["s5", "--help"], ["derand", "--help"])),
    )
    def test_flag_beats_config_beats_default_on_every_call(self, s5_flags, derand_flags, usage_error, help_argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv, v = spell(["s5"], s5_flags, {"fold": "serial", "n": 16, "seed": 0}, Path(tmp, "s5.json"))
            meter = CostMeter()
            fold = s5.fold_tree if v["fold"] == "tree" else s5.fold_serial
            product = fold(s5.random_word(v["seed"], v["n"]), meter)
            meter_line = f"meter: work={meter.work} depth={meter.depth}\n"
            assert call(argv) == (0, s5.format_perm(product) + "\n", meter_line), argv

            # a refused argv and a help page between two calls must leave nothing on the parser
            assert call(usage_error)[:2] == (2, ""), usage_error
            code, out, err = call(help_argv)
            assert (code, err) == (0, "") and out.startswith("usage: depthbench"), help_argv

            argv, v = spell(["derand", "--bound-only"], derand_flags, {"p": 0.3, "delta": 0.01}, Path(tmp, "d.json"))
            try:
                expected = (0, f"{derand.hoeffding_k(v['p'], v['delta'])}\n", "")
            except ValueError as exc:
                expected = (2, "", f"error: {exc}\n")
            assert call(argv) == expected, argv


# runs in a fresh interpreter, so the count starts at the process's first main call
COUNT_BUILDS = """
import argparse, contextlib, io, json, sys
constructed = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    constructed.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from depthbench import cli
at_import = len(constructed)
built = []
build = cli.build_parser
def counting_build():
    built.append(1)
    return build()
cli.build_parser = counting_build
calls = [["ca", "110", "00100", "--rows", "2", "--k", "2"], ["s5", "--n", "5"],
         ["do1", sys.argv[1], "--extract", "--exact-oracle"], ["derand", "--bound-only"], ["nope"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
print(json.dumps({"at_import": at_import, "built": len(built), "codes": codes}))
"""

# the three argvs twice each through main, then once each through a parser built afresh
HELP_TWICE = """
import contextlib, io, json
from depthbench import cli
def run(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]
argvs = [["--help"], ["ca", "--help"], ["nope"]]
main = [[run(cli.main, argv) for argv in argvs] for _ in range(2)]
fresh = [run(cli.build_parser().parse_args, argv) for argv in argvs]
print(json.dumps({"main": main, "fresh": fresh}))
"""


def fresh_process(*args: str) -> subprocess.CompletedProcess:
    """``python3 ARGS`` in a fresh interpreter that imports depthbench from this checkout."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "COLUMNS": "100"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=root, env=env)


class TestOneParserPerProcess:
    def test_import_builds_none_and_five_calls_build_one(self, chain5):
        got = json.loads(fresh_process("-c", COUNT_BUILDS, chain5).stdout)
        assert got == {"at_import": 0, "built": 1, "codes": [0, 0, 0, 0, 2]}

    def test_help_and_usage_bytes_repeat_and_match_a_fresh_parser(self):
        got = json.loads(fresh_process("-c", HELP_TWICE).stdout)
        first, second = got["main"]
        assert first == second == got["fresh"]
        assert [code for code, _out, _err in first] == [0, 0, 2]
        assert first[2][1] == "" and first[2][2].startswith("usage: depthbench")


class TestProcessEntryPoint:
    @pytest.mark.parametrize("code, argv", [(0, ["ca", "110", "00100", "--rows", "3"]), (2, ["ca", "110", "01x0"])])
    def test_python_m_matches_main(self, capsys, code, argv):
        # python3 -m depthbench.cli runs entry(), as the depthbench console script does
        done = fresh_process("-m", "depthbench.cli", *argv)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
        assert done.returncode == code
