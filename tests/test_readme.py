"""The README's library quick start runs as written.

The block runs in a fresh interpreter against the source tree, so an
API change that leaves the README behind fails the unit suite.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import oem_mmwave

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    src = str(Path(oem_mmwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
