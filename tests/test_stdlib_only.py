"""The runtime stays dependency-free: importing any ``depthbench`` module pulls in only the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "depthbench"

# runs in a fresh interpreter, so modules the test runner loaded do not hide an import
PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
print(json.dumps(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library():
    names = sorted(f"depthbench.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert "depthbench.cli" in names
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(names)],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    imported = set(json.loads(out.stdout))
    assert "depthbench" in imported
    assert sorted(imported - {"depthbench"} - sys.stdlib_module_names) == []


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
