"""The README's quick starts run as written.

Each block runs in a fresh interpreter against the source tree, so an
API or CLI change that leaves the README behind fails the unit suite.
"""

import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import oem_mmwave
from oem_mmwave import OemConfig

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(oem_mmwave.__file__).resolve().parents[1])


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.S | re.M)


def _run(argv, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_python_quick_start_runs(tmp_path):
    blocks = _blocks("python")
    assert len(blocks) == 1
    result = _run([sys.executable, "-c", blocks[0]], tmp_path)
    assert result.returncode == 0, result.stderr


def _cli_commands():
    """The ``oem-sim`` commands of the README's CLI block, continuation lines joined."""
    [block] = [b for b in _blocks("sh") if "oem-sim " in b]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [shlex.split(line) for line in lines]


def test_cli_quick_start_runs(tmp_path):
    # the library quick start's link, and a two-channel SNR file
    OemConfig(
        n_tx=16, m_rx=16, u_elems=4, v_elems=4,
        r1=0.1, r2=0.004, wavelength=299792458.0 / 35e9,
        phi=math.radians(30), phi_c=math.radians(3),
    ).save(tmp_path / "link.json")
    (tmp_path / "gamma.csv").write_text("i,l,gamma\n0,0,4.0\n0,1,1.0\n")
    commands = _cli_commands()
    assert len(commands) == 6
    for command in commands:
        assert command[0] == "oem-sim"
        result = _run([sys.executable, "-m", "oem_mmwave.cli", *command[1:]], tmp_path)
        assert result.returncode == 0, (command, result.stderr)
