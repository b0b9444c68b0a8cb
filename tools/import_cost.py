"""Time the start-up of ``prosomark``: import plus ``Config().load_lexica()``.

Usage, from the root of a checkout (standard library only):

    python3 tools/import_cost.py [--runs N]

It runs the benchmark's setup code (``bench/run.py``'s ``setup_s``: import
the package, load the lexica) in ``N`` fresh interpreters (default 21)
under ``-X importtime``, first with bytecode writing off, then on.  Off is
``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs: the package's source
is compiled on every start.  On writes the bytecode under a temporary
``PYTHONPYCACHEPREFIX``, after one uncounted run that fills it, so the
checkout stays clean.  Both settings go into each child's environment
only.

For each setting it prints the median and the range of the setup's wall
time (``-X importtime`` adds its own small cost to it), the sum of the
median import self-times of the package's own modules, and the ``TOP``
modules the setup imports with the largest median self-time.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "prosomark"
TOP = 10

#: set off from the interpreter's own start-up imports by a line on stderr
MARK = "-- setup --"

SETUP_CODE = f"""\
import sys, time
print({MARK!r}, file=sys.stderr, flush=True)
t = time.perf_counter()
import prosomark
prosomark.Config().load_lexica()
print(time.perf_counter() - t)
"""


def self_times(stderr: str) -> dict[str, int]:
    """Module -> self time in microseconds, from the ``-X importtime`` lines
    of the modules the setup imports."""
    out = {}
    for line in stderr.partition(MARK)[2].splitlines():
        if line.startswith("import time:") and "|" in line:
            own, _, name = line[len("import time:"):].split("|")
            if own.strip().isdigit():
                out[name.strip()] = int(own)
    return out


def setup_run(env: dict[str, str]) -> tuple[float, dict[str, int]]:
    """One fresh interpreter: the setup's wall seconds and module self-times."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout.split()[-1]), self_times(proc.stderr)


def measure(env: dict[str, str], runs: int) -> tuple[list[float], dict[str, list[int]]]:
    """The wall seconds of ``runs`` setups, and each module's self-times."""
    walls, modules = [], {}
    for _ in range(runs):
        wall, times = setup_run(env)
        walls.append(wall)
        for name, us in times.items():
            modules.setdefault(name, []).append(us)
    return walls, modules


def report(label: str, walls: list[float], modules: dict[str, list[int]]):
    medians = {name: statistics.median(us) for name, us in modules.items()}
    package = sum(us for name, us in medians.items()
                  if name == PACKAGE or name.startswith(PACKAGE + "."))
    print(f"bytecode writing {label}: setup median {statistics.median(walls) * 1e3:.1f} ms "
          f"(min {min(walls) * 1e3:.1f}, max {max(walls) * 1e3:.1f}, {len(walls)} runs); "
          f"{PACKAGE}'s own modules {package / 1e3:.1f} ms")
    for name in sorted(medians, key=medians.get, reverse=True)[:TOP]:
        print(f"  {medians[name] / 1e3:8.2f} ms  {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=21, help="fresh interpreters per setting")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    base = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    base.pop("PYTHONPYCACHEPREFIX", None)
    report("off", *measure(dict(base, PYTHONDONTWRITEBYTECODE="1"), args.runs))
    base.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryDirectory() as cache:
        env = dict(base, PYTHONPYCACHEPREFIX=cache)
        setup_run(env)                      # writes the bytecode; not counted
        report("on", *measure(env, args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
