"""Property tests: what every compile keeps, on arbitrary text and sidecars.

The examples are derandomized and no example database is written, so the
suite stays deterministic and leaves no files behind.
"""

import contextlib
import io
import re
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prosomark.annotations import (ASPECTS, CHANGES, DISC_RELS, FACTIVITIES,
                                   MOVES, RELEVANCES, SUBJECTIVITIES, TENSES,
                                   TOPIC_TYPES, VIEWS)
from prosomark.cli import run
from prosomark.config import _LEXICA, EMIT_MODES, TITLE_MODES, Config
from prosomark.emit import render_markup, render_tobi, strip_markup
from prosomark.ingest import QUOTE, WORD, reconstruct, split_document, tokenize
from prosomark.pipeline import run_pipeline

from conftest import breaks_off_group_ends

CFG = Config().load_lexica()


def _settings(examples):
    return settings(derandomize=True, database=None, max_examples=examples,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


#: the marks and words the rules react to, weighted by repetition
_PIECES = (['"', '"', "“", "”", ",", ",", ".", ".", "!", "?", ":", ";",
            "\n\n", "come on", "nobody", "said", "baby", "and", "when", "to",
            "long", "ago", "long ago"]
           + [" "] * 8 + ["cat", "fox", "the", "ran", "sadly", "very"] * 2)

#: the multiwords and frozen patterns of the lexica, and what may follow
#: each of their words: the pieces above rarely fall next to each other
_PHRASES = sorted({p for index in (CFG.multiwords, CFG.frozen_index)
                   for cands in index.values() for p, _ in cands})
_GAPS = (" ", "\n", "\n\n", " \n\t\n", ", ", ". ", '" ')


@st.composite
def _spaced_phrase(draw):
    """A lexicon phrase with a drawn gap after each of its words."""
    return "".join(w + draw(st.sampled_from(_GAPS))
                   for w in draw(st.sampled_from(_PHRASES)))


texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
    st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)),
             max_size=30).map("".join),
    st.lists(st.one_of(_spaced_phrase(), st.sampled_from(_PIECES)),
             max_size=20).map("".join),
)


def _outputs(result):
    return (render_markup(result.doc, result.script),
            render_tobi(result.doc, result.script), result.groups_text())


@_settings(300)
@given(texts)
# a multiword never spans a blank line, and prints on one ToBI line
@example("The cat sat. The mice met long\n\nago the cat ran.")
@example("The mice met long\nago.")
def test_compile_invariants(text):
    result = run_pipeline(text, None, CFG)
    markup, tobi, groups = _outputs(result)
    assert result.script.validate() == []
    # each line of the reading is a breath group: BI-3, BI-4 and BI-22
    # close one
    assert breaks_off_group_ends(result) == []

    for sent in result.doc.sentences:
        toks = sent.tokens
        # the word list the stages read matches the finished sentence
        assert sent.words == [t.normalized if t.kind == WORD else None
                              for t in toks], sent.index
        words = [i for i, t in enumerate(toks) if t.kind == WORD]
        covered = [i for g in result.groups[sent.index]
                   for i in g.positions() if toks[i].kind == WORD]
        assert covered == words, sent.index
        # a title ends without terminal punctuation
        assert not sent.is_title or sent.terminal == "none", sent.index
        # an unpunctuated sentence ends its paragraph: the group-final rule
        # closes it with the paragraph break
        if sent.terminal == "none" and sent is not result.doc.sentences[-1]:
            nxt = result.doc.sentences[sent.index + 1]
            assert nxt.paragraph_index != sent.paragraph_index, sent.index

    # no token spans a blank line, and each sentence that prints a token
    # prints one line of ToBI
    tokens = result.doc.tokens()
    assert not any(re.search(r"\n[ \t]*\n", t.surface) for t in tokens)
    printing = [s for s in result.doc.sentences if any(t.kind != QUOTE for t in s.tokens)]
    lines = tobi.split("\n")[:-1]
    assert len(lines) == len(printing) and all(line.strip() for line in lines)

    # phonetic overrides are spoken in place of their surface
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


#: a whitespace run holding 0-3 blank lines
_line_breaks = st.builds(lambda n, pad: "\n" + (pad + "\n") * n,
                         st.integers(0, 3), st.sampled_from(("", " ", "\t ")))
_paragraphs = st.lists(st.one_of(st.sampled_from(("cat", "ran", ".", "!", " ")), _line_breaks),
                       max_size=24).map("".join)


@_settings(300)
@given(_paragraphs)
def test_paragraphs_are_the_blocks_that_hold_a_token(text):
    # the blank-line-separated blocks that hold a token, and each token's block
    blocks = [n for n in map(len, map(tokenize, re.split(r"\n[ \t]*\n", text))) if n]
    block_of = [b for b, n in enumerate(blocks) for _ in range(n)]
    doc = split_document(tokenize(text), "off")
    assert doc.paragraph_count == len(blocks)
    # a sentence lies in the block of its first word (of its first token,
    # without one): where every block holds a word, the indices start at 0
    # and rise by at most 1
    start = 0
    for sent in doc.sentences:
        first = next((k for k, t in enumerate(sent.tokens) if t.kind == WORD), 0)
        assert sent.paragraph_index == block_of[start + first], sent.index
        start += len(sent.tokens)


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


# Config files through the command line -----------------------------------------

#: the values each key takes; a lexicon path is the shipped file or its
#: copy next to the config
_GOOD = {"min_len": [str(n) for n in range(5)], "max_len": [str(n) for n in range(4, 15)],
         "max_subj": [str(n) for n in range(7)], "title_mode": TITLE_MODES,
         "emit_mode": EMIT_MODES, "pov_tracking": ("1", "TRUE", "yes", "On", "0", "off"),
         **{key: (str(getattr(CFG, key)), getattr(CFG, key).name) for key in _LEXICA}}
#: values no key takes, and lexicon paths no file answers: a missing file
#: and a symlink to itself
_BAD = ("-1", "two", "1.5", "Force", "maybe", "missing.tsv", "loop")

_setting = st.sampled_from(sorted(_GOOD)).flatmap(
    lambda key: st.builds("{} = {}{}".format, st.just(key), st.sampled_from(_GOOD[key]),
                          st.sampled_from(("", "  # a note"))))
_neutral = st.sampled_from(("", "   ", "# a comment", "\t# an indented comment"))
_broken = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(_GOOD) + ["colour"]),
              st.one_of(st.sampled_from(_BAD), st.text(max_size=4))),
    st.sampled_from(("emit_mode", "emit_mode =", "just words", "= 3")))


@st.composite
def _config_lines(draw):
    """Settings, comments and blank lines; half the time one broken line among them."""
    lines = draw(st.lists(st.one_of(_setting, _setting, _neutral), max_size=5))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_broken))
    return lines


@pytest.fixture(scope="module")
def config_dir(workdir):
    for key in _LEXICA:
        shutil.copy(getattr(CFG, key), workdir)
    (workdir / "loop").symlink_to("loop")
    return workdir


@_settings(150)
@given(lines=_config_lines(), bom=st.booleans(), line_end=st.sampled_from(("\n", "\r\n")))
@example(lines=["affect_path = loop"], bom=False, line_end="\n")
def test_config_ends_in_an_exit_code(config_dir, lines, bom, line_end):
    # any config compiles or fails on one line, never with a traceback
    config = config_dir / "c.cfg"
    config.write_bytes((("\ufeff" if bom else "") + line_end.join(lines) + line_end).encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([str(config_dir / "in.txt"), "--config", str(config),
                    "--out", str(config_dir / "out.txt")])
    messages = err.getvalue().splitlines()
    assert code in (0, 1)
    assert all(message.startswith("prosomark: ") for message in messages)
    assert code == 0 or len(messages) == 1
