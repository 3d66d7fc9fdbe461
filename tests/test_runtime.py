"""The installed package runs on numpy alone, ships no test oracle and
exports exactly the public names listed here.

The import runs in a fresh interpreter, so modules the test session has
already loaded (pytest, hypothesis, scipy, the oracles) do not mask a
runtime import of them.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import oem_mmwave

ORACLES = Path(__file__).with_name("oracles.py")
TEST_ONLY = ("scipy", "hypothesis", "pytest", "oracles")

# The 29 public names ``oem_mmwave`` binds, besides ``__version__`` and
# its submodules.  A name added to or dropped from the API changes this
# list, as dropping ``adjacent_distances`` (its spacings come through
# ``scenario_check``) did.
PUBLIC_NAMES = (
    "DecomposedSignal", "DishDesign", "ModeChannels", "OemConfig", "PatchDesign", "PatchSpec",
    "PowerPolicy", "ScenarioReport", "SePoint", "SnrGrid", "bessel_j", "build_layout",
    "build_mode_channels", "classify_region", "decompose_modes", "design_dish",
    "design_patch", "ergodic_se_mimo", "ergodic_se_oem", "feed_impedance", "instantaneous_se",
    "mode_power_profile", "propagate", "scenario_check", "sweep", "synthesize_elements",
    "waterfill_ergodic", "waterfill_instantaneous", "zf_detect",
)


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


def test_public_names_are_pinned():
    public = sorted(
        name for name, value in vars(oem_mmwave).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == sorted(PUBLIC_NAMES)
