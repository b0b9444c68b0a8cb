"""Start-up: what a fresh ``import prosomark`` loads, and its timing tool."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _loaded_by_setup(modules, *flags) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after the setup,
    ``import prosomark`` and ``Config().load_lexica()``."""
    code = ("import sys, prosomark; prosomark.Config().load_lexica(); "
            f"print(sorted({set(modules)!r} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.splitlines()[-1]


def test_import_loads_no_dataclasses_or_inspect():
    # the records are plain classes, so start-up compiles no generated methods
    assert _loaded_by_setup({"dataclasses", "inspect"}) == "[]"


def test_import_loads_no_typing_or_importlib_resources():
    # -S: without the site start-up, which may load both itself, only the
    # setup's own imports count
    assert _loaded_by_setup({"typing", "importlib.resources"}, "-S") == "[]"


def test_import_cost_tool_runs(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "import_cost.py"), "--runs", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    heads = [line for line in lines if not line.startswith(" ")]
    assert [line.partition(":")[0] for line in heads] == \
        ["bytecode writing off", "bytecode writing on"]
    assert all(re.search(r"setup median [\d.]+ ms \(min [\d.]+, max [\d.]+, 1 runs\); "
                         r"prosomark's own modules [\d.]+ ms$", line) for line in heads)
    # the ten slowest imports of each setting, every one made by the setup
    modules = [line.split()[-1] for line in lines if line.startswith(" ")]
    assert len(modules) == 20 and "prosomark.pipeline" in modules[:10]
