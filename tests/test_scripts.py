"""The scripts under scripts/ run end to end on small arguments."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_do1_probe_demo_brackets_hold(capsys):
    code = load("do1_probe_demo").main(["--sizes", "8", "16", "--per-size", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].split()[0] == "gates"
    assert len([line for line in out[2:] if line.strip()]) == 2 * 2 + 1  # 4 table rows, then the verdict
    assert out[-1] == "all brackets hold"
