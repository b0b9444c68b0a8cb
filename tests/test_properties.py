"""Property tests: what every compile keeps, on arbitrary text and sidecars.

The examples are derandomized and no example database is written, so the
suite stays deterministic and leaves no files behind.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prosomark.annotations import (ASPECTS, CHANGES, DISC_RELS, FACTIVITIES,
                                   MOVES, RELEVANCES, SUBJECTIVITIES, TENSES,
                                   TOPIC_TYPES, VIEWS)
from prosomark.cli import run
from prosomark.config import Config
from prosomark.emit import render_markup, render_tobi, strip_markup
from prosomark.ingest import WORD, reconstruct, tokenize
from prosomark.pipeline import run_pipeline

CFG = Config().load_lexica()


def _settings(examples):
    return settings(derandomize=True, database=None, max_examples=examples,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


#: the marks and words the rules react to, weighted by repetition
_PIECES = (['"', '"', "“", "”", ",", ",", ".", ".", "!", "?", ":", ";",
            "\n\n", "come on", "nobody", "said", "baby", "and", "when", "to"]
           + [" "] * 8 + ["cat", "fox", "the", "ran", "sadly", "very"] * 2)

texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
    st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)),
             max_size=30).map("".join),
)


def _outputs(result):
    return (render_markup(result.doc, result.script),
            render_tobi(result.doc, result.script), result.groups_text())


@_settings(300)
@given(texts)
def test_compile_invariants(text):
    result = run_pipeline(text, None, CFG)
    markup, tobi, groups = _outputs(result)
    assert result.script.validate() == []

    for sent in result.doc.sentences:
        toks = sent.tokens
        words = [i for i, t in enumerate(toks) if t.kind == WORD]
        covered = [i for g in result.groups[sent.index]
                   for i in g.positions() if toks[i].kind == WORD]
        assert covered == words, sent.index

    # phonetic overrides are spoken in place of their surface
    tokens = result.doc.tokens()
    expected = " ".join(t.phon_override or t.surface for t in tokens)
    assert strip_markup(markup).split() == expected.split()

    tokenized = tokenize(text, CFG.multiwords)
    rebuilt = reconstruct(tokenized)
    assert text.startswith(rebuilt) and not text[len(rebuilt):].strip()
    assert reconstruct(tokenized, text[len(rebuilt):]) == text
    # the document keeps every token
    assert [(t.pre_ws, t.surface) for t in tokens] == \
        [(t.pre_ws, t.surface) for t in tokenized]

    assert _outputs(run_pipeline(text, None, CFG)) == (markup, tobi, groups)


def test_a_document_without_a_word_keeps_its_tokens():
    assert [t.surface for t in run_pipeline(":", None, CFG).doc.tokens()] == [":"]


# Sidecars through the command line ---------------------------------------------

_junk = st.text(max_size=4)
_numbers = st.integers(-1, 14).map(str)


def _field(choices):
    return st.one_of(st.sampled_from(choices), _junk)


_spans = st.one_of(st.builds("{}-{}".format, st.one_of(st.just("nil"), _numbers),
                             _numbers), _junk)
_clause = st.tuples(
    st.just("CLAUSE"), _numbers,
    _field(("main/prop", "sub/prop", "xcomp/prop", "coord", "adjunct/manner")),
    _field(VIEWS), _field(FACTIVITIES), _field(CHANGES), _field(RELEVANCES + ("_",)),
    _field(ASPECTS), st.sampled_from(("ran", "said", "cat", "")), _field(TENSES),
    _field(DISC_RELS), _field(SUBJECTIVITIES), _spans)
_topic = st.tuples(
    st.just("TOPIC"), _field(TOPIC_TYPES), _numbers, st.sampled_from(("cat", "fox")),
    st.sampled_from(("id1", "id2")), _field(("3,f,sg", "3,nil,nil", "1,2")),
    st.just("animal"), st.just("agent"))
_disc = st.tuples(st.just("DISC"), st.just("s_1"), _numbers, _field(MOVES), _spans)


@st.composite
def _lines(draw):
    fields = list(draw(st.one_of(_clause, _topic, _disc)))
    if draw(st.booleans()) and draw(st.booleans()):
        fields = fields[:draw(st.integers(1, len(fields)))]   # a short line
    return draw(st.sampled_from(("\t", " "))).join(fields)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sidecars")
    (path / "in.txt").write_text(
        'The fox said: "Come on, baby." Nobody ran, and the cat sat.\n', encoding="utf-8")
    return path


@_settings(100)
@given(lines=st.lists(_lines(), max_size=8))
def test_sidecar_ends_in_an_exit_code(workdir, lines):
    sidecar = workdir / "in.ann"
    sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run([str(workdir / "in.txt"), "--sidecar", str(sidecar), "--emit", "both",
                "--out", str(workdir / "out.txt")])
    assert code in (0, 2)
