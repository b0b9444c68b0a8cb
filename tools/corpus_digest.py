"""Print one ``name<TAB>sha256`` line per document of a fixed output corpus.

Usage, from the root of a checkout (standard library only):

    python3 tools/corpus_digest.py > digests.txt

The hash covers a document's markup, ToBI, breath groups and diagnostics,
compiled with the default configuration (point-of-view tracking off for the
``+nopov`` documents) by the ``prosomark`` under this checkout's ``src/``.  Running the script in two checkouts and comparing the
outputs with ``diff`` lists every document whose output differs.
``tests/test_corpus_digest.py`` does that against the copy kept in
``tests/data/corpus_digest.tsv``; a change that means to move output
regenerates that file with this script.

The corpus, 2,557 documents:

* ``fixture:<name>`` and ``fixture:<name>+ann`` - both fixtures, without and
  with their sidecars;
* ``story_shallow:<size>:<seed>`` and ``story_sidecar:<size>:<seed>`` - both
  benchmark story generators at 1k, 4k and 16k tokens, seeds 1-3;
* ``cli:<i>`` - ``cli_doc(1, i)`` of the benchmark for i = 4..403;
* ``fuzz:<i>`` - 1,500 texts from ``fuzz_text`` below;
* ``<name>+nopov`` - both fixtures, without and with their sidecars, and the
  1k and 4k stories, compiled with point-of-view tracking off;
* ``shape:<name>:<n>`` - one sentence of each of the ``SHAPES``, its
  repeated piece ``n`` times then its end, for n = 50 and 200;
* ``sidecar:<i>`` - 600 texts from ``fuzz_text``, each with a random valid
  sidecar from ``fuzz_sidecar`` below;
* ``point:<name>`` - the ``POINTS``, each a text and sidecar written to
  reach one statement that no other document of the corpus reaches.
"""

from __future__ import annotations

import copy
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads as wl  # noqa: E402
from prosomark import (Config, render_markup, render_tobi, run_pipeline,  # noqa: E402
                       tokenize)
from prosomark import annotations as an  # noqa: E402
from prosomark.lexica import data_path  # noqa: E402

STORY_SIZES = (("1k", 1000), ("4k", 4000), ("16k", 16000))
FUZZ_SEED = 99
FUZZ_COUNT = 1500
FUZZ_WORDS = ("the a cat fox crow mouse bell old sly and but or while if to of "
              "her said cried replied saw ran came nobody every who that is was "
              "very sad alas now then come on dear").split()
FUZZ_MARKS = (",", ".", "?", "!", ":", '"', '"', "“", "”")
#: name -> (repeated piece, end): sentences whose length stresses one stage
SHAPES = {
    "saw_this": ("the cat saw this ", "dog."),
    "commas": ("the cat, ", "ran."),
    "ran_and": ("the cat ran and ", "ran."),
    "quantifiers": ("all mice and nobody ", "agree."),
    "wordless": (". , ; ", ""),
    "short_commas": ("the, ", "ran."),
    "dashes": ("the cat -- ", "ran."),
    "quotes": ('"the cat," ', "ran."),
}
SHAPE_SIZES = (50, 200)
SIDECAR_SEED = 36
SIDECAR_COUNT = 600
#: topic id -> its predicate
SIDECAR_TOPICS = {"a": "cat", "b": "fox", "c": "crow", "d": "mouse"}
#: name -> (text, sidecar or None), with the statement each one reaches
POINTS = {
    # render_groups: a sentence without a breath group prints no line
    "wordless_lines": ("?\n?\n", None),
    # _shallow_tense: "had" before a past participle is the perfect
    "perfect": ("He had walked home.\n", None),
    # _plan_group_finals: a final that already carries a break takes no
    # contour; parse_sidecar: a semantic id with two lemmas warns
    "final_keeps_its_break": ("He ran; but, she fell.\n", "".join(
        "\t".join(fields) + "\n" for fields in (
            ["CLAUSE", "1", "main/prop", "external", "factive", "null", "background",
             "activity", "ran", "pres", "narration", "objective", "0-1"],
            ["CLAUSE", "2", "main/prop", "external", "factive", "null", "background",
             "activity", "fell", "pres", "narration", "objective", "3-6"],
            ["TOPIC", "main", "1", "cat", "a", "3,nil,sing", "animate", "agent"],
            ["TOPIC", "main", "2", "dog", "a", "3,nil,sing", "animate", "agent"]))),
}


def fuzz_text(rng: random.Random) -> str:
    """1-80 pieces: words, punctuation, straight and curly quotes and
    paragraph breaks, 30% of them glued to the piece before."""
    parts = []
    for _ in range(rng.randint(1, 80)):
        r = rng.random()
        piece = (rng.choice(FUZZ_WORDS) if r < 0.7 else rng.choice(FUZZ_MARKS)
                 if r < 0.95 else "\n\n")
        parts.append(("" if rng.random() < 0.3 else " ") + piece)
    return "".join(parts).lstrip(" ")


def fuzz_sidecar(rng: random.Random, n_tokens: int) -> str:
    """A valid sidecar for a text of ``n_tokens`` tokens: 1-8 clauses, each
    spanning at most 30 of the text's tokens, relevance foreground,
    background or ``_``, 0-2 TOPIC lines per clause over the ids of
    ``SIDECAR_TOPICS``, and DISC lines in about 30% of sidecars."""
    lines = []
    count = rng.randint(1, 8)
    for no in range(1, count + 1):
        frm = rng.randrange(n_tokens)
        to = rng.randrange(frm, min(n_tokens, frm + 30))
        aspect = rng.choice(an.ASPECTS)
        change = rng.choice([c for c in an.CHANGES if not (c == "graded" and aspect == "state")])
        lines.append("\t".join([
            "CLAUSE", str(no), rng.choice(("main", "coord", "sub", "xcomp", "adjunct")) + "/prop",
            rng.choice(an.VIEWS), rng.choice(an.FACTIVITIES), change,
            rng.choice(an.RELEVANCES + ("_",)), aspect, rng.choice(FUZZ_WORDS),
            rng.choice(an.TENSES), rng.choice(an.DISC_RELS), rng.choice(an.SUBJECTIVITIES),
            f"{frm}-{to}"]))
        for _ in range(rng.randint(0, 2)):
            sid = rng.choice(sorted(SIDECAR_TOPICS))
            lines.append("\t".join([
                "TOPIC", rng.choice(an.TOPIC_TYPES), str(no), SIDECAR_TOPICS[sid], sid,
                "3,nil,sing", "animate", rng.choice(("agent", "theme"))]))
    if rng.random() < 0.3:
        for no in range(1, count + 1):
            origin = rng.choice(["nil"] + [str(k) for k in range(1, no)])
            lines.append("\t".join(["DISC", f"s_{no}", str(no), rng.choice(an.MOVES),
                                     f"{origin}-{no}"]))
    return "\n".join(lines) + "\n"


def corpus(fx: wl.Fixtures, cfg: Config):
    """(name, text, sidecar, config) for every document, in a fixed order."""
    def documents(sizes):
        for name, text, ann in (("belling_cat", fx.fable, fx.fable_ann),
                                ("fox_crow", fx.fox, fx.fox_ann)):
            yield f"fixture:{name}", text, None
            yield f"fixture:{name}+ann", text, ann
        for label, size in sizes:
            for seed in (1, 2, 3):
                doc = wl.story_shallow(seed, 0, fx, size)
                yield f"story_shallow:{label}:{seed}", doc.text, doc.sidecar
                doc = wl.story_sidecar(seed, 0, fx, cfg.multiwords, size)
                yield f"story_sidecar:{label}:{seed}", doc.text, doc.sidecar

    for name, text, sidecar in documents(STORY_SIZES):
        yield name, text, sidecar, cfg
    for i in range(len(wl.GOLDENS), len(wl.GOLDENS) + 400):
        yield f"cli:{i}", wl.cli_doc(1, i, fx).text, None, cfg
    rng = random.Random(FUZZ_SEED)
    for i in range(FUZZ_COUNT):
        yield f"fuzz:{i}", fuzz_text(rng), None, cfg
    nopov = copy.copy(cfg)
    nopov.pov_tracking = False
    for name, text, sidecar in documents(STORY_SIZES[:2]):
        yield f"{name}+nopov", text, sidecar, nopov
    for name, (piece, end) in SHAPES.items():
        for n in SHAPE_SIZES:
            yield f"shape:{name}:{n}", piece * n + end, None, cfg
    rng = random.Random(SIDECAR_SEED)
    for i in range(SIDECAR_COUNT):
        text = fuzz_text(rng)
        while not (tokens := tokenize(text, cfg.multiwords)):
            text = fuzz_text(rng)
        yield f"sidecar:{i}", text, fuzz_sidecar(rng, len(tokens)), cfg
    for name, (text, sidecar) in POINTS.items():
        yield f"point:{name}", text, sidecar, cfg


def digest(result) -> str:
    h = hashlib.sha256()
    for part in (render_markup(result.doc, result.script),
                 render_tobi(result.doc, result.script),
                 result.groups_text(), "\n".join(result.diagnostics)):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def main() -> int:
    cfg = Config().load_lexica()
    fx = wl.Fixtures.load(data_path("fixtures"))
    for name, text, sidecar, config in corpus(fx, cfg):
        print(f"{name}\t{digest(run_pipeline(text, sidecar, config))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
