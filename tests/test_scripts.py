"""The scripts under scripts/ run end to end on small arguments."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_bench_writes_csv_and_report(tmp_path, capsys):
    csv_path, report_path = tmp_path / "bench.csv", tmp_path / "report.txt"
    code = load("run_bench").main(["--csv", str(csv_path), "--report", str(report_path)])
    assert code == 0
    assert csv_path.read_text().startswith("family,size,solver,seed,work,depth,wall_ns,aux\n")
    assert "== family ca ==" in report_path.read_text()
    assert "(0 errors)" in capsys.readouterr().err


def test_do1_probe_demo_brackets_hold(capsys):
    code = load("do1_probe_demo").main(["--sizes", "8", "16", "--per-size", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].split()[0] == "gates"
    assert len([line for line in out[2:] if line.strip()]) == 2 * 2 + 1  # 4 table rows, then the verdict
    assert out[-1] == "all brackets hold"
