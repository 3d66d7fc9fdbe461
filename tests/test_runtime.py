"""The installed package runs on numpy alone and ships no test oracle.

The import runs in a fresh interpreter, so modules the test session has
already loaded (pytest, hypothesis, scipy, the oracles) do not mask a
runtime import of them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import oem_mmwave

ORACLES = Path(__file__).with_name("oracles.py")
TEST_ONLY = ("scipy", "hypothesis", "pytest", "oracles")


def _oracle_names():
    tree = ast.parse(ORACLES.read_text())
    return sorted(
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    )


def test_runtime_imports_no_test_dependency_and_exports_no_oracle(tmp_path):
    names = _oracle_names()
    assert names
    script = (
        "import json, sys\n"
        "import oem_mmwave, oem_mmwave.cli\n"
        f"test_only = [m for m in {TEST_ONLY!r} if m in sys.modules]\n"
        f"exported = [n for n in {names!r} if hasattr(oem_mmwave, n)]\n"
        "print(json.dumps([test_only, exported]))\n"
    )
    src = str(Path(oem_mmwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    )
    test_only, exported = json.loads(result.stdout)
    assert test_only == []
    assert exported == []
