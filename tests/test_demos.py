"""Each demo's standard output, pinned byte for byte.

A demo runs in a fresh interpreter with the package on ``PYTHONPATH`` and a
temporary working directory, and its output must equal the file of the same
name under ``tests/demo_stdout/``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_its_output_pinned():
    pinned = sorted(p.stem for p in (ROOT / "tests" / "demo_stdout").glob("*.txt"))
    assert pinned == [d.stem for d in DEMOS] and pinned


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "demo_stdout" / f"{demo.stem}.txt").read_bytes()
