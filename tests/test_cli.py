"""End-to-end CLI behavior: output, stderr meters, exit codes, config merge."""

import hashlib
import itertools
import json

import pytest

from depthbench import automata, bench, s5
from depthbench.cli import main

from oracles import naive_evolve
from test_bench import BAD_CASES

# sha256 of the default sweep's CSV without wall_ns: the meter columns the sweep reports
SWEEP_DIGEST = "514787fb6b6a25b46656795d59d0af8c3959c173d766e2084d2f9cdbee7e23d2"

CHAIN5 = "const 0 1\nor 1 0\nand 2 1\nor 3 2\nand 4 3\nor 5 4\noutput 5\n"


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
        ],
    )
    def test_flag_misuse_is_usage_error(self, capsys, extra, message):
        code, out, err = run(capsys, "ca", "110", "0110", *extra)
        assert (code, out) == (2, "")
        assert message in err


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

    def test_readme_example(self, capsys):
        # README's s5 example, byte for byte
        code, out, err = run(capsys, "s5", "--n", "6", "--seed", "42", "--fold", "tree")
        assert (code, out, err) == (0, "21034\n", "meter: work=5 depth=3\n")

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

    def test_exact_oracle_and_noise_refused(self, capsys, tmp_path):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        code, out, err = run(capsys, "do1", str(net), "--extract", "--exact-oracle", "--noise", "0.5")
        assert (code, out, err) == (2, "", "error: --exact-oracle and --noise cannot be combined\n")

    @pytest.mark.parametrize(
        "doc, flags",
        [({"exact-oracle": True}, ["--noise", "0.5"]), ({"noise": 0.5}, ["--exact-oracle"])],
    )
    def test_exact_oracle_and_noise_refused_across_config(self, capsys, tmp_path, doc, flags):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        cfg = tmp_path / "do1.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "do1", str(net), "--extract", *flags, "--config", str(cfg))
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
    def test_unused_oracle_flags_refused(self, capsys, tmp_path, flags, message):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        code, out, err = run(capsys, "do1", str(net), *flags)
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
    def test_unused_oracle_flags_refused_across_config(self, capsys, tmp_path, doc, flags, message):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        cfg = tmp_path / "do1.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "do1", str(net), *flags, "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "netlist, argv, out, err",
        [
            (CHAIN5, [], "5\n", ""),
            (CHAIN5, ["--extract", "--exact-oracle"], "4\n", "bracket ok: d1=5 estimate=4 probes=24 (4 <= 5 < 8)\n"),
            (
                CHAIN5,
                ["--extract", "--noise", "0.5", "--seed", "7"],
                "4\n",
                "bracket ok: d1=5 estimate=4 probes=24 (2 <= 5 <= 16)\n",
            ),
            # one gate at chain length 1: horizon 1, so each probe is a pick that ends the episode
            ("input 0\nor 1 0\noutput 1\n", ["1"], "1\n", ""),
            (
                "input 0\nor 1 0\noutput 1\n",
                ["1", "--extract", "--exact-oracle"],
                "1\n",
                "bracket ok: d1=1 estimate=1 probes=2 (1 <= 1 < 2)\n",
            ),
        ],
    )
    def test_readme_examples_byte_for_byte(self, capsys, tmp_path, netlist, argv, out, err):
        net = tmp_path / "net.nl"
        net.write_text(netlist)
        assert run(capsys, "do1", str(net), *argv) == (0, out, err)

    def test_noise_seed_from_config_and_default(self, capsys, tmp_path):
        net = tmp_path / "chain.net"
        net.write_text(CHAIN5)
        cfg = tmp_path / "do1.json"
        cfg.write_text(json.dumps({"extract": True, "noise": 0.5, "seed": 7}))
        from_config = run(capsys, "do1", str(net), "--config", str(cfg))
        assert from_config == run(capsys, "do1", str(net), "--extract", "--noise", "0.5", "--seed", "7")
        omitted = run(capsys, "do1", str(net), "--extract", "--noise", "0.5")
        assert omitted == run(capsys, "do1", str(net), "--extract", "--noise", "0.5", "--seed", "0")

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

    def test_subnormal_delta(self, capsys):
        code, out, _ = run(capsys, "derand", "--bound-only", "--delta", "5e-324", "--p", "0.1")
        assert (code, out) == (0, "2327\n")
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
        assert "== family ca ==" in report_path.read_text()
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
