"""Byte identity over the corpus of ``tools/corpus_digest.py``, the
breaks that close breath groups on every document of it, and the
planner's rule triggers on a slice of it.

``tests/data/corpus_digest.tsv`` holds one ``name<TAB>sha256`` line per
document, as the tool prints them.  A change that means to move output
regenerates the file from the root of the checkout with

    python3 tools/corpus_digest.py > tests/data/corpus_digest.tsv

and names the documents whose hash moved.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from prosomark import Config, pipeline
from prosomark.lexica import data_path

from conftest import breaks_off_group_ends

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "data" / "corpus_digest.tsv"


def _digest_tool():
    spec = importlib.util.spec_from_file_location(
        "corpus_digest", ROOT / "tools" / "corpus_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: prints ``name hash`` for both fixtures, without and with their sidecars,
#: and the first 300 ``fuzz:`` documents of the corpus
_SLICE = """
import sys
sys.path.insert(0, sys.argv[1])
import corpus_digest as tool
cfg = tool.Config().load_lexica()
fx = tool.wl.Fixtures.load(tool.data_path("fixtures"))
for name, text, sidecar, config in tool.corpus(fx, cfg):
    kind, _, i = name.partition(":")
    if kind == "fuzz" and int(i) >= 300:
        break
    if kind in ("fixture", "fuzz"):
        print(name, tool.digest(tool.run_pipeline(text, sidecar, config)))
"""


def test_output_does_not_depend_on_the_hash_seed():
    # the planner keeps sets of positions and of strings: no output may
    # follow their iteration order, which the hash seed decides
    runs = [subprocess.Popen([sys.executable, "-c", _SLICE, str(ROOT / "tools")],
                             stdout=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "4242")]
    outs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert len(outs[0].splitlines()) == 304
    assert outs[0] == outs[1]


def test_rule_triggers_skip_only_rules_that_place_nothing(monkeypatch, config):
    # a rule skipped for want of a trigger word would have placed nothing:
    # the same documents compile to the same scripts with every rule run
    # on every sentence
    tool = _digest_tool()
    fx = tool.wl.Fixtures.load(data_path("fixtures"))
    docs = []
    for name, text, sidecar, cfg in tool.corpus(fx, config):
        kind, _, rest = name.partition(":")
        if (kind == "fixture" and not rest.endswith("+nopov") or kind == "shape"
                or kind == "fuzz" and int(rest) < 300):
            docs.append((name, text, sidecar, cfg))
    assert len(docs) == 4 + 300 + 2 * len(tool.SHAPES)
    gated = [tool.run_pipeline(text, sidecar, cfg).script.items
             for _, text, sidecar, cfg in docs]
    monkeypatch.setattr(pipeline, "_SENTENCE_RULES",
                        tuple((rule, None) for rule, _ in pipeline._SENTENCE_RULES))
    moved = [name for (name, text, sidecar, cfg), items in zip(docs, gated)
             if tool.run_pipeline(text, sidecar, cfg).script.items != items]
    assert moved == []


def test_every_corpus_document_keeps_its_bytes():
    tool = _digest_tool()
    expected = dict(line.split("\t") for line in
                    EXPECTED.read_text(encoding="utf-8").splitlines())
    cfg = Config().load_lexica()
    fx = tool.wl.Fixtures.load(data_path("fixtures"))
    got = {}
    off_group_ends = []
    for name, text, sidecar, config in tool.corpus(fx, cfg):
        result = tool.run_pipeline(text, sidecar, config)
        got[name] = tool.digest(result)
        off_group_ends += [f"{name}: {off}" for off in breaks_off_group_ends(result)]
    assert not off_group_ends, "breaks inside a breath group: " + ", ".join(off_group_ends)
    moved = sorted(name for name in expected.keys() & got.keys()
                   if expected[name] != got[name])
    assert not moved, f"{len(moved)} documents changed output: {', '.join(moved)}"
    assert got.keys() == expected.keys(), (
        f"missing: {sorted(expected.keys() - got.keys())}, "
        f"new: {sorted(got.keys() - expected.keys())}")
    assert len(got) == 2557
