"""Tokenization, document splitting, comma classes, phonetic exceptions."""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prosomark.annotations import DiscourseNode
from prosomark.config import Config
from prosomark.docindex import POVSpan
from prosomark.emit import GLUE_LEFT, GLUE_RIGHT, ScriptItem, render_markup
from prosomark.ingest import (COMMA, OTHER_PUNCT, QUOTE, TERMINAL,
                              TERMINAL_CHARS, QUOTE_CHARS, WORD, Token,
                              classify_comma, reconstruct, split_document,
                              tokenize)
from prosomark.phrasing import END_STOPPED, BreathGroup
from prosomark.pipeline import run_pipeline
from prosomark.prosody import BreakIndex, FrozenMatch, ParamEvent
from conftest import load


def words(tokens):
    return [t.normalized for t in tokens if t.kind == "word"]


def _with_markup(event):
    """``event`` after its markup is read: the cached text is no field."""
    assert event.markup
    return event


@pytest.mark.parametrize("record,shown", [
    (Token("long ago", "long_ago", 3, WORD, "\n", "lONg", 2),
     "Token(surface='long ago', normalized='long_ago', index=3, kind='word', pre_ws='\\n', "
     "phon_override='lONg', source_words=2)"),
    (BreathGroup([0, 2], "comma", END_STOPPED),
     "BreathGroup(words=[0, 2], trigger='comma', junction='end_stopped')"),
    (ScriptItem(None, GLUE_LEFT, "H*-L", BreakIndex.BI2, 9),
     "ScriptItem(event=None, glue='left', tone_label='H*-L', bi=<BreakIndex.BI2: '2'>, at=9)"),
    (FrozenMatch("exhortative", 2, 3, 5),
     "FrozenMatch(role='exhortative', pattern_length=2, tail_position=3, length=5)"),
    (ScriptItem(_with_markup(ParamEvent(44.0, 140, 0.3)), GLUE_RIGHT),
     "ScriptItem(event=ParamEvent(pbas=44.0, rate=140, volm=0.3, slnc=None, rset=False), "
     "glue='right', tone_label=None, bi=None, at=0)"),
    (DiscourseNode("3", 4, "up", (None, 2)),
     "DiscourseNode(sent_id='3', clause_no=4, move='up', attach=(None, 2))"),
    (POVSpan(1, 5, [0, 1]), "POVSpan(start_token=1, end_token=5, sentences=[0, 1])"),
], ids=["Token", "BreathGroup", "ScriptItem", "FrozenMatch", "ScriptItem_event",
        "DiscourseNode", "POVSpan"])
def test_record_repr_names_the_class_and_every_field(record, shown):
    # so that a failing == between records shows what differs
    assert repr(record) == shown


def test_multiword_merge_long_ago(config):
    toks = tokenize("Long ago, the mice", config.multiwords)
    assert words(toks) == ["long_ago", "the", "mice"]
    assert toks[0].surface == "Long ago"
    assert toks[0].source_words == 2


def test_multiword_merge_got_up(config):
    toks = tokenize("an old mouse got up and said", config.multiwords)
    assert "got_up" in words(toks)


def test_empty_input(config):
    assert tokenize("", config.multiwords) == []


def test_round_trip_fable(config):
    text = load("belling_cat.txt")
    toks = tokenize(text, config.multiwords)
    trailing = text[len(reconstruct(toks)):]
    assert reconstruct(toks, trailing) == text
    assert trailing.strip() == ""


def test_round_trip_random_texts(config):
    rng = random.Random(7)
    vocab = ["Long", "ago", "the", "mice;", "cat,", '"said"', "it's",
             "one another...", "A", "by this means"]
    for _ in range(200):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.3:
            text += "\n\n" + " ".join(rng.choice(vocab) for _ in range(3))
        toks = tokenize(text, config.multiwords)
        trailing = text[len(reconstruct(toks)):]
        assert reconstruct(toks, trailing) == text


# The tokenizer as it was before it took its pieces from one re.split: the
# reference the one-pass tokenizer must agree with token for token.

_REF_TOKEN_RE = re.compile(r"[^\s\w]|[\w'-]+", re.UNICODE)


def _ref_raw_tokens(text):
    pos = 0
    for m in _REF_TOKEN_RE.finditer(text):
        yield text[pos:m.start()], m.group(0)
        pos = m.end()


def _ref_kind_of(chunk):
    if chunk == ",":
        return COMMA
    if chunk in TERMINAL_CHARS:
        return TERMINAL
    if chunk in QUOTE_CHARS:
        return QUOTE
    if len(chunk) == 1 and not chunk.isalnum():
        return OTHER_PUNCT
    return WORD


def _ref_tokenize(text, multiwords=None):
    pieces = list(_ref_raw_tokens(text))
    by_first = {}
    for mw in multiwords or []:
        by_first.setdefault(mw[0], []).append(mw)
    for cands in by_first.values():
        cands.sort(key=len, reverse=True)
    tokens = []
    i = 0
    while i < len(pieces):
        pre, chunk = pieces[i]
        kind = _ref_kind_of(chunk)
        if kind == WORD:
            low = chunk.lower()
            match = None
            for cand in by_first.get(low, []):
                n = len(cand)
                if i + n > len(pieces):
                    continue
                window = pieces[i:i + n]
                # a merge never spans a blank line
                if all(_ref_kind_of(c) == WORD and c.lower() == w
                       for (_, c), w in zip(window, cand)) \
                        and not any(re.search(r"\n[ \t]*\n", p) for p, _ in window[1:]):
                    match = cand
                    break
            if match:
                n = len(match)
                surface = chunk
                for pre2, chunk2 in pieces[i + 1:i + n]:
                    surface += pre2 + chunk2
                tokens.append(Token(surface, "_".join(match), len(tokens),
                                    WORD, pre, source_words=n))
                i += n
                continue
            tokens.append(Token(chunk, low, len(tokens), WORD, pre))
        else:
            tokens.append(Token(chunk, chunk, len(tokens), kind, pre))
        i += 1
    return tokens


_MULTIWORD_LISTS = {
    "shipped": Config().load_lexica().multiwords,
    # entries sharing first words, some a prefix of another, one starting
    # inside another, one with a word that starts with an underscore
    "shared_first_words": [["come", "on"], ["come", "on", "in"], ["come", "now"],
                           ["by", "this"], ["by", "this", "means"],
                           ["this", "means"], ["long", "ago"], ["one", "_x"]],
}

#: multiword phrases split by spaces or newlines, their words and the
#: separators between them, apostrophes and hyphens, straight and curly
#: quotes, non-ASCII letters (some change length when lowercased) and
#: punctuation, weighted by repetition
_ALPHABET = (["come on in", "come on", "Come  now", "by this means", "by\nthis",
              "long ago", "LONG\n\nAgo", "got up", "one another", "one _x",
              "this means"] * 2
             + ["long", "ago", "got", "up", "by", "this", "means", "one",
                "another", "come", "on", "in", "now", "Come"] * 2
             + [" "] * 12 + ["\n", "\n\n", "  ", "\t", " \n "] * 2
             + ["'", "-", "it's", "well-known", "'tis", "--", "o'er-",
                '"', "“", "”", "‘", "’", "é", "Éclair", "ß", "İ", "Σ", "ǅ",
                "ﬁ", "_", "_x", ",", ".", "!", "?", ":", ";", "…", "3"])

_texts = st.lists(st.sampled_from(_ALPHABET), max_size=40).map("".join)


@pytest.mark.parametrize("multiwords", ["shipped", "shared_first_words"])
@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_texts)
def test_tokenize_matches_the_reference(multiwords, text):
    mws = _MULTIWORD_LISTS[multiwords]
    assert tokenize(text, mws) == _ref_tokenize(text, mws)


def test_tokenize_idempotent_on_normalized_word(config):
    once = tokenize("mice", config.multiwords)
    again = tokenize(once[0].normalized, config.multiwords)
    assert [t.normalized for t in again] == [t.normalized for t in once]


def test_lone_dash_or_apostrophe_is_punctuation(config):
    toks = tokenize("'tis -- _b don't o'er- '", config.multiwords)
    assert [(t.surface, t.kind) for t in toks] == [
        ("'", OTHER_PUNCT), ("tis", WORD), ("-", OTHER_PUNCT), ("-", OTHER_PUNCT),
        ("_b", WORD), ("don't", WORD), ("o'er-", WORD), ("'", OTHER_PUNCT)]
    # the dashes neither join a group nor count toward its length
    res = run_pipeline("The old cat -- the grey one -- ran away.", None, config)
    assert res.groups_text() == "the old cat β\nthe grey one β\nran away β\n"


def test_title_detected(config):
    text = load("belling_cat.txt")
    doc = split_document(tokenize(text, config.multiwords), text)
    assert doc.sentences[0].is_title
    assert doc.sentences[0].paragraph_index == 0
    assert not any(s.is_title for s in doc.sentences[1:])
    assert doc.sentences[1].paragraph_index == 1


def test_single_sentence_single_paragraph(config):
    text = "Mice ran."
    doc = split_document(tokenize(text, config.multiwords), text, "off")
    assert len(doc.sentences) == 1
    assert doc.paragraph_count == 1


def test_paragraph_count_matches_blank_line_blocks(config):
    text = "One ran. Two ran.\n\nThree ran."
    # one-line oracle: blocks are the non-empty blank-line-separated chunks
    expected = len([b for b in text.split("\n\n") if b.strip()])
    doc = split_document(tokenize(text, config.multiwords), text, "off")
    assert doc.paragraph_count == expected == 2
    assert [s.paragraph_index for s in doc.sentences] == [0, 0, 1]


def test_tokens_before_the_first_word_open_the_first_sentence(config):
    text = '" . Hello there.'
    res = run_pipeline(text, None, config)
    assert render_markup(res.doc, res.script).startswith('" . ')
    assert reconstruct(res.doc.tokens()) == text
    # the sentence lies in its first word's paragraph
    text = ". \n\nHello there."
    doc = split_document(tokenize(text, config.multiwords), text, "off")
    assert [(s.paragraph_index, len(s.tokens)) for s in doc.sentences] == [(1, 4)]
    assert reconstruct(doc.tokens()) == text


def test_title_force_and_off(config):
    text = "A plain sentence here.\n\nMore text follows."
    toks = tokenize(text, config.multiwords)
    assert not split_document(toks, text, "auto").sentences[0].is_title
    assert split_document(tokenize(text, config.multiwords), text,
                          "force").sentences[0].is_title


def test_comma_appositive(config):
    text = "they could outwit their common enemy, the cat."
    doc = split_document(tokenize(text, config.multiwords), text, "off")
    sent = doc.sentences[0]
    comma = next(i for i, t in enumerate(sent.tokens) if t.kind == "comma")
    assert classify_comma(sent, comma) == "appositive"


def test_comma_without_a_following_word(config):
    text = "The cat sat ,"
    sent = split_document(tokenize(text, config.multiwords), text, "off").sentences[0]
    assert classify_comma(sent, 3) == "other"
    with pytest.raises(ValueError, match="non-comma"):
        classify_comma(sent, 2)


def test_comma_classes_read_a_bounded_window(config):
    # a comma reads at most five words past it: a copy of the rest of the
    # sentence per comma is quadratic in a run of commas
    text = "the, " * 400 + "ran."
    sent = split_document(tokenize(text, config.multiwords), text, "off").sentences[0]
    sizes = []

    class SliceLog(list):
        def __getitem__(self, key):
            got = super().__getitem__(key)
            if isinstance(key, slice):
                sizes.append(len(got))
            return got

    sent.__dict__["words"] = SliceLog(sent.words)
    commas = [i for i, t in enumerate(sent.tokens) if t.kind == COMMA]
    assert len(commas) == 400
    assert {classify_comma(sent, i) for i in commas} == {"other"}
    assert sizes and max(sizes) <= 5


def test_comma_total_over_fable(fable_result):
    # every comma receives exactly one class from the closed set
    classes = {"appositive", "vocative", "parenthetical", "other"}
    for sent in fable_result.doc.sentences:
        for i, t in enumerate(sent.tokens):
            if t.kind == "comma":
                assert classify_comma(sent, i) in classes


def test_comma_classes_at_gold_boundaries(fable_result):
    # the decomposition's comma boundaries carry the expected classes
    doc = fable_result.doc
    by_surface = {}
    for sent in doc.sentences:
        for i, t in enumerate(sent.tokens):
            if t.kind == "comma":
                prev = next(t2.normalized for t2 in reversed(sent.tokens[:i])
                            if t2.kind == "word")
                by_surface.setdefault(prev, classify_comma(sent, i))
    assert by_surface["enemy"] == "appositive"
    assert by_surface["venture"] == "parenthetical"


def test_phon_exception_hue(config):
    toks = tokenize("hue", config.multiwords)
    assert config.phon_lexicon[toks[0].normalized] == "hUW"


def test_phon_exception_absent(config):
    toks = tokenize("cat", config.multiwords)
    assert toks[0].normalized not in config.phon_lexicon


def test_phon_exception_case_folding(config):
    # oracle: the lexicon's keys are already case-folded
    folded = {k.lower(): v for k, v in config.phon_lexicon.items()}
    toks = tokenize("Hue", config.multiwords)
    assert dict(config.phon_lexicon) == folded
    assert config.phon_lexicon[toks[0].normalized] == folded["hue"] == "hUW"


def test_pipeline_sets_phonetic_overrides(config):
    # the compile's own loop: every listed word in any case, and no other
    # token
    result = run_pipeline("Hue HUE hue cat.", None, config)
    assert [(t.surface, t.phon_override) for t in result.doc.tokens()] == [
        ("Hue", "hUW"), ("HUE", "hUW"), ("hue", "hUW"), ("cat", None), (".", None)]


def test_phon_lexicon_is_case_insensitive(tmp_path):
    path = tmp_path / "phonetic.tsv"
    path.write_text("HUE\thUW\n")
    cfg = Config(phonetic_path=path).load_lexica()
    assert cfg.phon_lexicon == {"hue": "hUW"}
    result = run_pipeline("Hue.", None, cfg)
    assert result.doc.tokens()[0].phon_override == "hUW"


def test_phonetic_entry_of_a_multiword_applies(tmp_path):
    # the merged token's normalized form joins its words with "_"
    path = tmp_path / "phonetic.tsv"
    path.write_text("long ago\tlOng@gO\n")
    result = run_pipeline("Long ago, hue.", None, Config(phonetic_path=path).load_lexica())
    assert [(t.surface, t.phon_override) for t in result.doc.tokens()] == [
        ("Long ago", "lOng@gO"), (",", None), ("hue", None), (".", None)]
