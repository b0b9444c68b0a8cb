"""The work per token stays flat as one sentence grows.

Each shape of ``tools/corpus_digest.py`` is one sentence: a piece repeated
``n`` times, then an end.  It is compiled and rendered three ways under the
counter of ``tools/cost_count.py`` at n = 100 and n = 400, and its
instructions in ``src/prosomark`` per token may rise by at most 10%.  A stage
that rescans the sentence or its groups for each word rises by half or
more.  The counter cannot see loops that run in C (see its docstring).
"""

import importlib.util
from pathlib import Path

import pytest

from prosomark import Config, render_markup, render_tobi, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
CFG = Config().load_lexica()


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COST = _load("cost_count")
SHAPES = _load("corpus_digest").SHAPES


def _ops_per_token(text: str) -> float:
    tokens = []

    def compile_and_render():
        res = run_pipeline(text, None, CFG)
        render_markup(res.doc, res.script)
        render_tobi(res.doc, res.script)
        res.groups_text()
        tokens.append(res.doc.token_count())

    counts = COST.count(compile_and_render, {})
    return sum(ops for ops, _ in counts.values()) / tokens[-1]


@pytest.mark.parametrize("piece,end", SHAPES.values(), ids=SHAPES.keys())
def test_line_events_per_token_stay_flat(piece, end):
    small = _ops_per_token(piece * 100 + end)
    large = _ops_per_token(piece * 400 + end)
    assert large / small <= 1.10, f"{small:.1f} -> {large:.1f} instructions per token"
