"""Property tests: what every compile keeps, on arbitrary text and sidecars.

The examples are derandomized and no example database is written, so the
suite stays deterministic and leaves no files behind.
"""

import contextlib
import io
import itertools
import re
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prosomark import lexica
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


# Line ends ---------------------------------------------------------------------

#: the line ends, written out as the test's own reference
_LINE_END = re.compile(r"\r\n|\r|\n")
#: characters that str.splitlines breaks a line at and no file of the package does
_NOT_LINE_ENDS = ("\v", "\f", "\x1c", "\x85", "\u2028")
_line_ends = st.sampled_from(("\n", "\r\n", "\r"))


@_settings(300)
@given(st.text(alphabet=st.sampled_from("ab #\t\r\n" + "".join(_NOT_LINE_ENDS))))
def test_lines_split_at_line_end(text):
    # lexica.lines splits with str methods where LINE_END would with a regex
    expected = [(k, line.split("#", 1)[0].strip())
                for k, line in enumerate(_LINE_END.split(text), start=1)]
    assert list(lexica.lines(text)) == [(k, line) for k, line in expected if line]
    assert lexica.LINE_END.split(text)[::2] == _LINE_END.split(text)


_COMMENT = "  # a{}note"


def _noted(draw, lines: list[str], tails=(_COMMENT, "{}x")) -> int | None:
    """Half the time, append to one of ``lines`` that holds no line end one
    of ``tails``, a comment or a value's tail, holding a character that
    ends no line; the index of that line."""
    whole = [k for k, line in enumerate(lines) if not _LINE_END.search(line)]
    if not whole or draw(st.booleans()):
        return None
    k = draw(st.sampled_from(whole))
    lines[k] += draw(st.sampled_from(tails)).format(draw(st.sampled_from(_NOT_LINE_ENDS)))
    return k


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


def _sidecar_run(workdir, text: str) -> tuple[int, str, str]:
    """The exit code, stderr and output of a compile of in.txt with ``text`` as its sidecar."""
    sidecar, out = workdir / "in.ann", workdir / "out.txt"
    sidecar.write_bytes(text.encode())
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([str(workdir / "in.txt"), "--sidecar", str(sidecar), "--emit", "both",
                    "--out", str(out)])
    return code, err.getvalue(), out.read_text(encoding="utf-8") if out.exists() else ""


@st.composite
def _sidecar_lines(draw):
    """Records, half the time one of them with a comment holding a
    character that ends no line; also the records without it."""
    plain = draw(st.lists(_lines(), max_size=8))
    lines = list(plain)
    _noted(draw, lines, (_COMMENT,))
    return lines, plain


@_settings(100)
@given(drawn=_sidecar_lines(), line_end=_line_ends)
def test_sidecar_ends_in_an_exit_code(workdir, drawn, line_end):
    # any sidecar compiles or fails with exit 2, and its line ends and
    # comments change nothing: not the exit code, the output, nor the line
    # an error names
    lines, plain = drawn
    text = line_end.join(lines) + line_end
    result = _sidecar_run(workdir, text)
    assert result[0] in (0, 2)
    lf = _LINE_END.sub("\n", line_end.join(plain) + line_end)
    if lf != text:
        assert result == _sidecar_run(workdir, lf)


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
    """Settings, comments and blank lines; half the time one broken line among
    them, and half the time a character that ends no line inside a comment
    or a value.  Also the indices of the lines an error may name."""
    lines = draw(st.lists(st.one_of(_setting, _setting, _neutral), max_size=5))
    suspects = set()
    if draw(st.booleans()):
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, draw(_broken))
        suspects.add(k)
    suspects.add(_noted(draw, lines))
    return lines, suspects - {None}


@pytest.fixture(scope="module")
def config_dir(workdir):
    for key in _LEXICA:
        shutil.copy(getattr(CFG, key), workdir)
    (workdir / "loop").symlink_to("loop")
    return workdir


@_settings(150)
@given(drawn=_config_lines(), bom=st.booleans(), line_end=_line_ends)
@example(drawn=(["affect_path = loop"], set()), bom=False, line_end="\n")
def test_config_ends_in_an_exit_code(config_dir, drawn, bom, line_end):
    # any config compiles or fails on one line, never with a traceback; a
    # line the error names is one of the suspects, counted at \n, \r\n and \r
    lines, suspects = drawn
    text = line_end.join(lines) + line_end
    config = config_dir / "c.cfg"
    config.write_bytes((("\ufeff" if bom else "") + text).encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([str(config_dir / "in.txt"), "--config", str(config),
                    "--out", str(config_dir / "out.txt")])
    messages = err.getvalue().splitlines()
    assert code in (0, 1)
    assert all(message.startswith("prosomark: ") for message in messages)
    assert code == 0 or len(messages) == 1
    named = re.match(rf"prosomark: config error: {re.escape(str(config))}:(\d+): ", err.getvalue())
    if named:
        # the numbers of the lines each suspect spans: a broken line may hold a line end
        starts = list(itertools.accumulate((len(line + line_end) for line in lines), initial=0))
        firsts = {k: len(_LINE_END.findall(text, 0, starts[k])) + 1 for k in suspects}
        assert any(firsts[k] <= int(named[1]) <= firsts[k] + len(_LINE_END.findall(lines[k]))
                   for k in suspects), named[0]


# Lexicon files through the command line -----------------------------------------

#: words of in.txt, the words of two shipped multiwords, and a word it lacks
_LEX_WORDS = ("fox", "said", "come", "on", "baby", "nobody", "ran", "cat", "sat",
              "long", "ago", "dead", "body", "sly")
#: the second field of each lexicon with one: its tags, or phonetic strings
_SECOND = {"phonetic_path": ("fAks", "kat"), "frozen_path": lexica.FROZEN_ROLES,
           "affect_path": lexica.AFFECT_TAGS}
#: the lexica of phrases; each other one takes one word a line
_PHRASE_LEXICA = ("multiword_path", "frozen_path", "affect_path")

_phrase = st.lists(st.sampled_from(_LEX_WORDS), min_size=1, max_size=3).map(" ".join)
#: lines any lexicon may hold that no entry of it gives: a non-word token, a
#: bad tag, blank and comment lines, and a character that ends no line
#: between words or in a comment
_odd_line = st.one_of(
    st.sampled_from(("!", "oh no!", "cat\tbogus", "", "   ", "# a note")),
    st.builds("{}{}{}".format, st.sampled_from(_LEX_WORDS), st.sampled_from(_NOT_LINE_ENDS),
              st.sampled_from(("cat", "sat\tsad", "# dead\tsad"))))


def _entry(key):
    words = _phrase if key in _PHRASE_LEXICA else st.sampled_from(_LEX_WORDS)
    if key not in _SECOND:
        return words
    return st.builds("{}{}{}".format, words, st.sampled_from(("\t", " ")),
                     st.sampled_from(_SECOND[key]))


@st.composite
def _lexicon_files(draw):
    """Bytes for some of the six lexica, each of drawn entries; half the
    time one of them gets an odd line, and then half the time a byte that
    is not UTF-8."""
    files = {key: [draw(_entry(key)) for _ in range(draw(st.integers(0, 3)))]
             for key in draw(st.sets(st.sampled_from(_LEXICA), min_size=1))}
    odd = draw(st.sampled_from(sorted(files))) if draw(st.booleans()) else None
    if odd is not None:
        files[odd].insert(draw(st.integers(0, len(files[odd]))), draw(_odd_line))
    data = {key: "".join(line + draw(_line_ends) for line in lines).encode()
            for key, lines in files.items()}
    if odd is not None and draw(st.booleans()):
        data[odd] += b"\xff\n"
    return data


_lexicon_runs = itertools.count()


@_settings(100)
@given(files=_lexicon_files())
def test_lexica_end_in_an_exit_code(workdir, files):
    # any lexicon files compile or fail on one line with exit 1
    n = next(_lexicon_runs)     # fresh names: no earlier example's cached build applies
    paths = []
    for key, data in files.items():
        path = workdir / f"lexicon{n}_{key}"
        path.write_bytes(data)
        paths.append(f"{key} = {path.name}\n")
    config = workdir / "lexica.cfg"
    config.write_text("".join(paths), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([str(workdir / "in.txt"), "--config", str(config),
                    "--out", str(workdir / "out.txt")])
    messages = err.getvalue().splitlines()
    assert code in (0, 1)
    assert all(message.startswith("prosomark: ") for message in messages)
    assert code == 0 or len(messages) == 1
