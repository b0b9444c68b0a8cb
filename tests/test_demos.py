"""The ``demos/`` scripts print what they printed when their output was
stored in ``tests/data/demos/``, byte for byte.

A change meant to move a demo's output stores it again from the root of
the checkout with

    PYTHONPATH=src python3 demos/NAME.py > tests/data/demos/NAME.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STORED = Path(__file__).resolve().parent / "data" / "demos"


def test_every_demo_has_its_output_stored():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in STORED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_stored_output(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (STORED / f"{demo.stem}.txt").read_bytes()
