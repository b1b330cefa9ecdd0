"""End-to-end CLI behavior: output, stderr meters, exit codes, config merge."""

import itertools
import json

import pytest

from depthbench import automata, s5
from depthbench.cli import main

from oracles import naive_evolve

CHAIN5 = "const 0 1\nor 1 0\nand 2 1\nor 3 2\nand 4 3\nor 5 4\noutput 5\n"


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

    @pytest.mark.parametrize("flag", ["--rows", "--row"])
    def test_k_below_one_is_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "ca", "110", "0110", flag, "3", "--k", "0")
        assert (code, out) == (2, "")
        assert "k must be >= 1" in err

    def test_malformed_tape_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ca", "110", "01x0")
        assert code == 2
        assert "error:" in err

    def test_rule_out_of_range(self, capsys):
        code, _, err = run(capsys, "ca", "300", "010")
        assert code == 2
        assert "0..255" in err
        for extra in (["--row", "0"], ["--row", "0", "--k", "2"], ["--row", "0", "--cell", "1"]):
            code, out, err = run(capsys, "ca", "300", "0110", *extra)
            assert (code, out) == (2, ""), extra
            assert "rule 300 outside 0..255" in err, extra


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

    def test_output_is_valid_perm(self, capsys):
        _, out, _ = run(capsys, "s5", "--n", "30", "--seed", "9")
        s5.parse_perm(out.strip())


class TestDo1:
    def test_chain_depth(self, capsys, tmp_path):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        code, out, _ = run(capsys, "do1", str(net))
        assert (code, out) == (0, "5\n")

    def test_extract_exact(self, capsys, tmp_path):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        code, out, err = run(capsys, "do1", str(net), "--extract", "--exact-oracle")
        assert code == 0
        assert out == "4\n"
        assert "bracket ok" in err
        assert "probes=24" in err

    def test_extract_noisy(self, capsys, tmp_path):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        code, out, err = run(capsys, "do1", str(net), "--extract", "--noise", "0.5", "--seed", "3")
        assert code == 0
        estimate = int(out.strip())
        assert 0.5 * estimate <= 5 <= 4 * estimate
        assert "bracket ok" in err

    def test_extract_needs_an_oracle(self, capsys, tmp_path):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        code, _, err = run(capsys, "do1", str(net), "--extract")
        assert code == 2
        assert "exact-oracle" in err

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
    def test_bound_only(self, capsys):
        code, out, _ = run(capsys, "derand", "--bound-only", "--p", "0.3", "--delta", "0.01")
        assert (code, out) == (0, "59\n")

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

    def test_bench_without_cases(self, capsys, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        code, _, err = run(capsys, "bench", "--config", str(cfg))
        assert code == 2


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


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "ca", "110", "1", "--frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "subcommand" in out or "usage" in out
