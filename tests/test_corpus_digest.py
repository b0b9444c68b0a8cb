"""Byte identity over the corpus of ``tools/corpus_digest.py``.

``tests/data/corpus_digest.tsv`` holds one ``name<TAB>sha256`` line per
document, as the tool prints them.  A change that means to move output
regenerates the file from the root of the checkout with

    python3 tools/corpus_digest.py > tests/data/corpus_digest.tsv

and names the documents whose hash moved.
"""

import importlib.util
from pathlib import Path

from prosomark import Config
from prosomark.lexica import data_path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "data" / "corpus_digest.tsv"


def _digest_tool():
    spec = importlib.util.spec_from_file_location(
        "corpus_digest", ROOT / "tools" / "corpus_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_corpus_document_keeps_its_bytes():
    tool = _digest_tool()
    expected = dict(line.split("\t") for line in
                    EXPECTED.read_text(encoding="utf-8").splitlines())
    cfg = Config().load_lexica()
    fx = tool.wl.Fixtures.load(data_path("fixtures"))
    got = {name: tool.digest(tool.run_pipeline(text, sidecar, config))
           for name, text, sidecar, config in tool.corpus(fx, cfg)}
    moved = sorted(name for name in expected.keys() & got.keys()
                   if expected[name] != got[name])
    assert not moved, f"{len(moved)} documents changed output: {', '.join(moved)}"
    assert got.keys() == expected.keys(), (
        f"missing: {sorted(expected.keys() - got.keys())}, "
        f"new: {sorted(got.keys() - expected.keys())}")
    assert len(got) == 1946
