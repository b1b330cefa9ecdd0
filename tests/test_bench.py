"""Suite runner determinism, CSV round trips, and the two-path report."""

import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from depthbench import automata, bench
from depthbench.bench import (
    CSV_HEADER,
    BenchCase,
    BenchRecord,
    default_suite,
    emit_csv,
    emit_report,
    family_params,
    load_suite,
    parse_csv,
    run_case,
    run_suite,
)


# Suite entries that used to run with a silently dropped key or a coerced
# value, each with the key its error must name.
BAD_CASES = [
    ({"family": "s5", "size": 8, "solver": "tree", "sede": 3}, "sede"),
    ({"family": "ca", "size": 8, "solver": "plain", "params": {"widht": 8}}, "widht"),
    ({"family": "s5", "size": 2.7, "solver": "tree"}, "size"),
    ({"family": "s5", "size": 8, "solver": "tree", "seed": True}, "seed"),
    ({"family": "ca", "size": 8, "solver": "plain", "params": {"rule": 90.9}}, "rule"),
    ({"family": 5, "size": 8, "solver": "tree"}, "family"),
    ({"family": ["ca"], "size": 8, "solver": "plain"}, "family"),
    ({"family": "s5", "size": 8, "solver": None}, "solver"),
    ({"family": "ca", "size": 8, "solver": ["plain"]}, "solver"),
    ({"family": "derand", "size": 4, "solver": "search", "params": {"p": 10**400}}, "p"),  # past float range
]


# the CSV's field and item separators, and every line break str.splitlines knows
SEPARATORS = ",;=\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# int-looking strings such as "10234" and "01234", text of signs, digits and quotes, and any text
TEXTS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(0, 10**6).map(lambda i: f"0{i}"),
    st.text(alphabet='ab0-+ "', max_size=6),
    st.text(max_size=8),
)
RECORDS = st.lists(
    st.builds(
        BenchRecord,
        TEXTS,
        st.integers(),
        TEXTS,
        st.integers(),
        st.integers(),
        st.integers(),
        st.integers(),
        st.dictionaries(TEXTS, st.one_of(st.integers(), TEXTS), max_size=4),
    ),
    max_size=3,
)


def small_suite():
    cases = []
    for solver in ("plain", "compiled-k1", "compiled-k2", "compiled-k3"):
        cases.append(BenchCase("ca", 12, solver, seed=7, params={"rule": 110, "width": 16}))
    for solver in ("serial", "layered"):
        cases.append(BenchCase("cvp", 64, solver, seed=3))
    for solver in ("serial", "tree"):
        cases.append(BenchCase("s5", 64, solver, seed=5))
    for solver in ("serial", "probe"):
        cases.append(BenchCase("do1", 20, solver, seed=11))
    cases.append(BenchCase("derand", 4, "search", seed=2, params={"p": 0.25}))
    return cases


def by_solver(records, family):
    return {r.solver: r for r in records if r.family == family}


@pytest.mark.parametrize("seed", [0, 1, -1, 2**64 + 1, "bits:0", "bits:17"])
def test_random_bits_match_randint(seed):
    """The ca tapes and cvp assignments are the bits ``randint(0, 1)`` draws, seed for seed."""
    rng = random.Random(seed)
    assert bench._random_bits(seed, 200) == tuple(rng.randint(0, 1) for _ in range(200))

class TestRunners:
    def test_ca_depth_tradeoff(self):
        records = run_suite(small_suite())
        ca = by_solver(records, "ca")
        assert ca["plain"].depth == 12
        assert ca["compiled-k2"].depth == 6
        assert ca["compiled-k3"].depth == 4
        assert ca["plain"].work == 12 * 16
        assert ca["compiled-k2"].work == 6 * 16
        assert [ca[s].aux["table_size"] for s in ("compiled-k1", "compiled-k2", "compiled-k3")] == [8, 32, 128]

    def test_cvp_same_work_less_depth(self):
        records = run_suite(small_suite())
        cvp = by_solver(records, "cvp")
        assert cvp["serial"].work == cvp["layered"].work == 64
        assert cvp["serial"].depth == 64
        assert cvp["layered"].depth < cvp["serial"].depth
        assert cvp["serial"].aux["out"] == cvp["layered"].aux["out"]

    def test_s5_depths(self):
        records = run_suite(small_suite())
        s5r = by_solver(records, "s5")
        assert s5r["serial"].depth == 63
        assert s5r["tree"].depth == math.ceil(math.log2(64))
        assert s5r["serial"].work == s5r["tree"].work == 63
        assert s5r["serial"].aux["product"] == s5r["tree"].aux["product"]

    def test_do1_probe_solver(self):
        records = run_suite(small_suite())
        do1r = by_solver(records, "do1")
        assert do1r["serial"].work == do1r["serial"].depth == 20
        probe = do1r["probe"]
        assert probe.aux["probes"] == probe.work
        assert probe.depth <= 1
        d1, est = probe.aux["d1"], probe.aux["estimate"]
        if est:
            assert est <= d1 < 2 * est

    def test_derand_record(self):
        records = run_suite(small_suite())
        der = by_solver(records, "derand")["search"]
        assert der.aux["found"] == 1
        assert der.depth == der.aux["attempts"]
        assert der.work == der.aux["attempts"] * 16 * der.aux["k"]

    def test_unsupported_solver_yields_error_record(self):
        records = run_suite([BenchCase("ca", 4, "warp", seed=0), BenchCase("s5", 4, "serial", seed=0)])
        assert len(records) == 2
        assert "error" in records[0].aux
        assert records[0].work == records[0].depth == 0
        assert "error" not in records[1].aux
        for family in ("cvp", "s5", "do1", "derand"):
            rec = run_case(BenchCase(family, 4, "warp", seed=0))
            assert rec.aux == {"error": f"BenchError_unsupported_{family}_solver_warp"}, family
            assert rec.work == rec.depth == 0, family

    @pytest.mark.parametrize(
        "case, slug",
        [
            # the family, its params, then its solver are checked before any instance is built
            (BenchCase("ca", 4, "warp", 0, {"widht": 8}), "BenchError_unknown_ca_param_widht_allowed_rule_width"),
            (BenchCase("s5", 0, "warp", 0), "BenchError_unsupported_s5_solver_warp"),
            (BenchCase("cvp", 0, "warp", 0), "BenchError_unsupported_cvp_solver_warp"),
            (BenchCase("ca", 4, "compiled-kx", 0), "BenchError_unsupported_ca_solver_compiled-kx"),
            (BenchCase("derand", 40, "warp", 0, {"p": 0.7}), "BenchError_unsupported_derand_solver_warp"),
            # K is an integer of at least 1 in plain decimal, so each compiled solver has one name
            (BenchCase("ca", 4, "compiled-k0", 0), "BenchError_unsupported_ca_solver_compiled-k0"),
            (BenchCase("ca", 4, "compiled-k-1", 0), "BenchError_unsupported_ca_solver_compiled-k-1"),
            (BenchCase("ca", 4, "compiled-k01", 0), "BenchError_unsupported_ca_solver_compiled-k01"),
            (BenchCase("ca", 4, "compiled-k+2", 0), "BenchError_unsupported_ca_solver_compiled-k_2"),
            (BenchCase("ca", 4, "compiled-k 2", 0), "BenchError_unsupported_ca_solver_compiled-k_2"),
            (BenchCase("ca", 4, "compiled-k\u0663", 0), "BenchError_unsupported_ca_solver_compiled-k"),
            (BenchCase("ca", 4, "compiled-k1_0", 0), "BenchError_unsupported_ca_solver_compiled-k1_0"),
            (BenchCase("ca", 4, "compiled-k-0", 0), "BenchError_unsupported_ca_solver_compiled-k-0"),
            (BenchCase("ca", 4, "compiled-k", 0), "BenchError_unsupported_ca_solver_compiled-k"),
            # an int past float range, too long for str() to format
            (BenchCase("derand", 4, "search", 0, {"p": 10**5000}), "BenchError__p_must_be_a_number_within_float_range"),
        ],
    )
    def test_first_fault_names_the_error_record(self, case, slug):
        rec = run_case(case)
        assert (rec.work, rec.depth, rec.aux) == (0, 0, {"error": slug})

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.one_of(
            st.just("plain"),
            st.one_of(st.integers(0, 16), st.integers(0, 10**30)).map(lambda k: f"compiled-k{k}"),
            st.text(alphabet="0123456789+-_ x٣", max_size=4).map(lambda t: f"compiled-k{t}"),
            st.text(max_size=4).map(lambda t: f"compiled-k{t}"),
            st.text(max_size=12),
        )
    )
    def test_ca_solver_name_is_plain_or_plain_decimal_k(self, name):
        # the oracle: "plain", or "compiled-k" then ASCII digits not starting with 0
        suffix = name[len("compiled-k") :] if name.startswith("compiled-k") else ""
        k = int(suffix) if suffix.isascii() and suffix.isdigit() and not suffix.startswith("0") else None
        rec = run_case(BenchCase("ca", 1, name, 0, {"width": 8}))
        if name != "plain" and k is None:
            assert list(rec.aux) == ["error"] and rec.aux["error"].startswith("BenchError_unsupported_ca_solver")
        elif k is not None and 2 * k + 1 >= automata.TABLE_BUDGET.bit_length():  # 2^(2k+1) entries > budget
            assert list(rec.aux) == ["error"] and rec.aux["error"].startswith("CapacityError_"), rec.aux
        else:
            assert rec.aux == {"table_size": 8 if k is None else 1 << (2 * k + 1)}
            assert (rec.work, rec.depth) == (8, 1)

    def test_unknown_family_yields_error_record(self):
        rec = run_case(BenchCase("quantum", 4, "serial", seed=0))
        assert "error" in rec.aux
        assert rec.family == "quantum"

    def test_rerun_reproduces_everything_but_wall(self):
        first = run_suite(small_suite())
        second = run_suite(small_suite())
        strip = lambda r: (r.family, r.size, r.solver, r.seed, r.work, r.depth, r.aux)
        assert [strip(r) for r in first] == [strip(r) for r in second]


class TestCsv:
    def test_empty_is_header_only(self):
        assert emit_csv([]) == CSV_HEADER + "\n"

    def test_one_record_two_lines(self):
        rec = BenchRecord("s5", 8, "tree", 1, 7, 3, 1234, {"product": "01234"})
        text = emit_csv([rec])
        assert text == CSV_HEADER + "\ns5,8,tree,1,7,3,1234,product=01234\n"

    def test_round_trip_exact(self):
        records = run_suite(small_suite())
        assert parse_csv(emit_csv(records)) == records

    @settings(max_examples=200, deadline=None)
    @given(records=RECORDS)
    def test_drawn_records_round_trip_or_are_refused(self, records):
        texts = [t for r in records for t in (r.family, r.solver, *r.aux, *r.aux.values()) if isinstance(t, str)]
        if any(ch in SEPARATORS for t in texts for ch in t):
            with pytest.raises(ValueError, match="holds a CSV separator"):
                emit_csv(records)
        else:
            assert parse_csv(emit_csv(records)) == records

    def test_strings_quoted_only_where_needed(self):
        aux = {"a": "12", "b": "012", "c": "1.5", "d": '"x"', "e": '"', "f": "", "g": -3}
        text = emit_csv([BenchRecord("s5", 1, "tree", 0, 0, 0, 0, aux)])
        assert text.endswith(',a="12";b=012;c=1.5;d=""x"";e=";f=;g=-3\n')
        assert parse_csv(text)[0].aux == aux

    @pytest.mark.parametrize("value", [1.5, True, None, (1,)])
    def test_aux_value_must_be_int_or_str(self, value):
        with pytest.raises(ValueError, match="must be an int or a str"):
            emit_csv([BenchRecord("s5", 1, "tree", 0, 0, 0, 0, {"v": value})])

    @pytest.mark.parametrize("value", [1.5, True, "7", None])
    @pytest.mark.parametrize("column", ["size", "seed", "work", "depth", "wall_ns"])
    def test_int_column_must_be_an_int(self, column, value):
        record = dataclasses.replace(BenchRecord("ca", 1, "plain", 0, 1, 1, 1, {}), **{column: value})
        with pytest.raises(ValueError, match=f"^{column} {re.escape(repr(value))} must be an int$"):
            emit_csv([record])

    @pytest.mark.parametrize("sep", [",", ";", "=", "\n", "\r"])
    @pytest.mark.parametrize("field", ["family", "solver", "aux key", "aux value"])
    def test_separator_in_text_field_rejected(self, field, sep):
        text = f"x{sep}y"
        family, solver = (text if field == "family" else "s5"), (text if field == "solver" else "tree")
        aux = {text: 1} if field == "aux key" else {"a": text if field == "aux value" else "b"}
        with pytest.raises(ValueError, match=f"^{field} .* holds a CSV separator"):
            emit_csv([BenchRecord(family, 1, solver, 0, 0, 0, 0, aux)])

    @pytest.mark.parametrize("field", ["family", "solver", "aux key"])
    @pytest.mark.parametrize("value", [5, None, True])
    def test_text_field_must_be_a_str(self, field, value):
        family, solver = (value if field == "family" else "s5"), (value if field == "solver" else "tree")
        aux = {value: 1} if field == "aux key" else {}
        with pytest.raises(ValueError, match=f"^{field} {value!r} must be a str$"):
            emit_csv([BenchRecord(family, 1, solver, 0, 0, 0, 0, aux)])

    @pytest.mark.parametrize("aux", [None, "ab"])
    def test_aux_must_be_a_dict(self, aux):
        with pytest.raises(ValueError, match=f"^aux {aux!r} must be a dict$"):
            emit_csv([BenchRecord("s5", 1, "tree", 0, 0, 0, 0, aux)])

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("nope\n")

    def test_bad_field_count_rejected(self):
        with pytest.raises(ValueError, match="8 fields"):
            parse_csv(CSV_HEADER + "\na,b,c\n")


class TestReport:
    def test_empty_input_keeps_sections(self):
        text = emit_report([])
        for family in ("ca", "cvp", "s5", "do1", "derand"):
            assert f"== family {family} ==" in text
        assert text.count("(no records)") == 5

    def test_table_size_column(self):
        records = run_suite(small_suite())
        text = emit_report(records)
        assert "table_size" in text
        for size in (8, 32, 128):
            assert f" {size}" in text

    def test_memorization_figure_symbolic(self):
        records = run_suite(small_suite())
        text = emit_report(records)
        assert "e^(64 ln 120) ~ 10^" in text

    def test_two_paths_byte_identical(self):
        records = run_suite(small_suite())
        direct = emit_report(records)
        via_csv = emit_report(parse_csv(emit_csv(records)))
        assert direct == via_csv

    def test_error_rows_marked(self):
        records = run_suite([BenchCase("ca", 4, "warp", seed=0)])
        assert "ERROR" in emit_report(records)


class TestSuiteConfig:
    def test_load_suite(self):
        doc = {
            "cases": [
                {"family": "s5", "size": 32, "solver": "tree", "seed": 4},
                {"family": "ca", "size": 8, "solver": "plain", "params": {"rule": 90}},
            ]
        }
        cases = load_suite(doc)
        assert cases[0] == BenchCase("s5", 32, "tree", 4)
        assert cases[1].params == {"rule": 90}
        assert cases[1].seed == 0

    def test_missing_cases_rejected(self):
        with pytest.raises(ValueError, match="cases"):
            load_suite({})

    def test_bad_case_rejected(self):
        with pytest.raises(ValueError, match="case #0"):
            load_suite({"cases": [{"family": "s5"}]})

    @pytest.mark.parametrize("key", ["family", "size", "solver"])
    def test_missing_key_named(self, key):
        entry = {"family": "s5", "size": 8, "solver": "tree"}
        del entry[key]
        with pytest.raises(ValueError, match=f"^bad suite case #0: missing key '{key}'$"):
            load_suite({"cases": [entry]})

    @pytest.mark.parametrize("entry, key", BAD_CASES)
    def test_strict_case_rejected(self, entry, key):
        good = {"family": "s5", "size": 8, "solver": "tree"}
        with pytest.raises(ValueError, match=f"^bad suite case #1: .*'{key}'"):
            load_suite({"cases": [good, entry]})

    @pytest.mark.parametrize("sep", [",", ";", "=", "\n"])
    @pytest.mark.parametrize("key", ["family", "solver"])
    def test_separator_in_family_or_solver_rejected(self, key, sep):
        good = {"family": "s5", "size": 8, "solver": "tree"}
        with pytest.raises(ValueError, match=f"^bad suite case #1: {key} .* holds a CSV separator"):
            load_suite({"cases": [good, {**good, key: f"tr{sep}ee"}]})

    def test_param_types(self):
        derand = {"family": "derand", "size": 4, "solver": "search"}
        case = load_suite({"cases": [{**derand, "params": {"p": 0, "delta_all": 1}}]})[0]
        assert family_params("derand", case.params) == {"p": 0.0, "vocab": 2, "delta_all": 1.0, "max_attempts": 16}
        for params, message in [
            ({"p": True}, "'p' must be a number, not True"),
            ({"vocab": 2.0}, "'vocab' must be an integer, not 2.0"),
            ({"max_attempts": "16"}, "'max_attempts' must be an integer, not '16'"),
        ]:
            with pytest.raises(ValueError, match=f"^bad suite case #0: {message}$"):
                load_suite({"cases": [{**derand, "params": params}]})
        with pytest.raises(ValueError, match=r"unknown s5 param 'rule' \(allowed: none\)"):
            load_suite({"cases": [{"family": "s5", "size": 8, "solver": "tree", "params": {"rule": 90}}]})
        with pytest.raises(ValueError, match="'params' must be a JSON object"):
            load_suite({"cases": [{"family": "ca", "size": 8, "solver": "plain", "params": [["rule", 90]]}]})

    def test_unknown_family_params_left_to_run_time(self):
        case = load_suite({"cases": [{"family": "quantum", "size": 4, "solver": "serial", "params": {"x": 1}}]})[0]
        assert run_case(case).aux["error"].startswith("BenchError_unsupported_family")

    def test_runner_rejects_misspelt_param(self):
        rec = run_case(BenchCase("ca", 4, "plain", seed=0, params={"widht": 8}))
        assert rec.aux["error"].startswith("BenchError_unknown_ca_param_widht")

    def test_default_suite_runs_clean(self):
        records = run_suite(default_suite())
        assert all("error" not in r.aux for r in records)
        assert all(r.work >= r.depth >= 0 for r in records)
