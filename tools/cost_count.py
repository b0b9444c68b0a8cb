"""Count the work of a compile: instructions and calls in ``src/prosomark``.

Usage, from the root of a checkout (standard library only):

    python3 tools/cost_count.py [--seed N] [--write]

It runs documents of the benchmark's three workloads at seed ``N``
(default 1), through the benchmark's own runners (``bench/run.py``):
``story_shallow`` and ``story_sidecar`` at 1k and 16k tokens, each
compiled and rendered three ways, and the first ``CLI_DOCS`` invocations
of ``cli_batch`` through ``prosomark.cli.run``.  Each document runs once
untraced, so the lexica, the caches and the memoized event text are warm,
then once under ``CostCounter``: the tracer of ``tools/line_census.py``,
counting instead of collecting.  It prints one JSON object: per workload,
the raw input tokens and, per stage and in total, the instructions
(``ops``) and calls with their count per token.  ``--write`` also writes
that object, with the Python version it was counted on, to
``BENCH_cost.json`` at the root of the checkout, where
``tests/test_cost_count.py`` recounts part of it; a change that moves the
counts refreshes the file.

A frame counts to the stage of the nearest function of ``stages()`` on
the stack: tokenize, split, analyze (the sidecar parse or the shallow
analysis, and ``resolved``), docindex, segment, plan or render; any other
to ``other``.  Calls count frame entries, the resumptions of a generator
included.  An instruction is one bytecode instruction run in a traced
frame (an ``opcode`` trace event).  Unlike line events, which fire each
time evaluation moves to another line, the count does not depend on how
the code is laid out over lines.  The counts depend on the code and the
input alone, not on the host's speed or ``PYTHONHASHSEED``, so two runs
print the same JSON.  They do depend on the Python minor version, whose
compiler emits different instructions.

The blind spot: work that runs in C adds no instruction of its own.  A
slice copy, ``x in list``, list concatenation, ``sorted``, ``str.join`` or a
regular expression costs time in proportion to its input and counts as
the one instruction that calls it.  So a count per token that stays flat
as documents grow does not prove linear time, and a count is no speed:
the benchmark's wall-clock pairs stay the measure of that.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]

from line_census import PACKAGE, Tracer  # noqa: E402

BENCH_FILE = ROOT / "BENCH_cost.json"
OTHER = "other"
SIZES = (("1k", 1000), ("16k", 16000))
CLI_DOCS = 40


class CostCounter(Tracer):
    """Instructions and calls of the frames under ``root``, per stage.

    ``stages`` maps a code object to the stage that its frames, and the
    frames they call, count to; the frames called outside every such frame
    count to ``other``.  ``counts`` maps a stage to its
    ``[instructions, calls]``.  An instruction is one ``opcode`` trace
    event, which each frame sends once ``f_trace_opcodes`` is set on it."""

    def __init__(self, root: Path, stages: dict):
        super().__init__(root)
        self.stages = stages
        self.counts: dict[str, list[int]] = {}
        self._stack = [OTHER]

    def local(self, frame):
        frame.f_trace_opcodes = True
        stage = self.stages.get(frame.f_code, self._stack[-1])
        self._stack.append(stage)
        local = self._local.get(stage)
        if local is None:
            count = self.counts[stage] = [0, 0]
            stack = self._stack

            def local(frame, event, arg):
                if event == "opcode":
                    count[0] += 1
                elif event == "return":   # also sent when an exception leaves
                    stack.pop()
                return local
            self._local[stage] = local
        self.counts[stage][1] += 1
        return local


def stages() -> dict:
    """The code objects that open a stage of a compile and its renders."""
    from prosomark import annotations, docindex, emit, ingest, phrasing, pipeline
    entries = {
        "tokenize": (ingest.tokenize,),
        "split": (ingest.split_document,),
        "analyze": (annotations.parse_sidecar, annotations.shallow_analyze,
                    annotations.check_clause_spans, annotations.resolved),
        "docindex": (docindex.DocIndex.__init__,),
        "segment": (phrasing.segment,),
        "plan": (pipeline._Compile.__init__, pipeline._Compile.build_script),
        "render": (emit.render_markup, emit.render_tobi, phrasing.render_groups),
    }
    return {fn.__code__: stage for stage, fns in entries.items() for fn in fns}


def count(run, stage_of: dict, root: Path = PACKAGE) -> dict[str, list[int]]:
    """The counts of one call of ``run()``, made after a first, untraced one."""
    run()
    with CostCounter(root, stage_of) as counter:
        run()
    return counter.counts


def report(counts: dict[str, list[int]], tokens: int) -> dict:
    def entry(ops, calls):
        return {"ops": ops, "calls": calls,
                "ops_per_token": round(ops / tokens, 2),
                "calls_per_token": round(calls / tokens, 2)}
    return {"tokens": tokens,
            "stages": {stage: entry(*c) for stage, c in sorted(counts.items())},
            "total": entry(*map(sum, zip(*counts.values())))}


def measure(seed: int, sizes=SIZES) -> dict:
    """The counts of the stories of ``sizes`` and of the ``cli_batch``
    slice at seed ``seed``, keyed ``workload:size``."""
    import prosomark
    import prosomark.cli
    import run as bench
    import workloads as wl

    cfg = prosomark.Config().load_lexica()
    fx = wl.Fixtures.load(prosomark.lexica.data_path("fixtures"))
    stage_of = stages()
    story = bench.StoryRunner(prosomark, cfg)
    out = {}
    for label, size in sizes:
        for name, doc in (("story_shallow", wl.story_shallow(seed, 0, fx, size)),
                          ("story_sidecar",
                           wl.story_sidecar(seed, 0, fx, cfg.multiwords, size))):
            out[f"{name}:{label}"] = report(
                count(lambda: story.execute(doc), stage_of), doc.tokens)

    docs = [wl.cli_doc(seed, i, fx) for i in range(CLI_DOCS)]
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        cli = bench.CliRunner(prosomark, fx, Path(tmp))

        def run_cli():
            codes.extend(cli.execute(cli.prepare(doc)) for doc in docs)
        counts = count(run_cli, stage_of)
    if any(codes):
        raise RuntimeError(f"a cli_batch document exited with {max(codes)}")
    out[f"cli_batch:0-{CLI_DOCS - 1}"] = report(counts, sum(d.tokens for d in docs))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count instructions and calls per stage.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", action="store_true",
                        help=f"also write the counts to {BENCH_FILE.name}")
    args = parser.parse_args(argv)
    try:
        workloads = measure(args.seed)
    except RuntimeError as exc:
        print(f"cost_count: {exc}", file=sys.stderr)
        return 1
    result = {"seed": args.seed, "workloads": workloads}
    print(json.dumps(result, indent=1))
    if args.write:
        result = {"python": platform.python_version(), **result}
        BENCH_FILE.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
