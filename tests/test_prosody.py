"""Break indices, tone selection, point of view, frozen matches."""

import itertools
import random
import re
import sys
import threading

import pytest

from prosomark import lexica
from prosomark.annotations import AnnotationSet, shallow_analyze
from prosomark.config import Config
from prosomark.docindex import DocIndex
from prosomark.emit import DEFAULT_TABLE, render_markup, render_tobi
from prosomark.ingest import split_document, tokenize
from prosomark.pipeline import ProsodyManager, _Compile, _SentencePlan, run_pipeline
from conftest import is_contour_label, load
from prosomark.prosody import (BI_REALIZATION, RSET, BreakContext, BreakIndex,
                               ToneContext, assign_break_index, ev,
                               match_frozen, select_tone, track_point_of_view)


# Break indices ---------------------------------------------------------------

def test_bi_end_stopped_at_punct():
    assert assign_break_index(BreakContext(at_punct=True)) == BreakIndex.BI3


def _breaks_after(result, word):
    """The break indices of the events right after each token ``word``."""
    out, current = [], None
    for it in result.script.items:
        if it.kind == "token":
            current = [] if it.token.normalized == word else None
            if current is not None:
                out.append(current)
        elif it.kind == "event" and current is not None and it.bi is not None:
            current.append(it.bi)
    return out


def test_bi_title(config, fable_result):
    # the title line closes with the title break, a silence without reset
    assert _breaks_after(fable_result, "aesop") == [[BreakIndex.BI44]]
    res = run_pipeline("The Fox\n\nThe cat sat.", None, config)
    assert render_tobi(res.doc, res.script).splitlines()[0] == "H*-L The Fox BI-44 H*-H"
    assert "Fox [[slnc 400]]\n" in render_markup(res.doc, res.script)


def test_bi_head_with_dependent(fable_result):
    # "to consider what measures": a complement opener follows the head;
    # "could take to outwit": a looser continuation follows it
    assert _breaks_after(fable_result, "consider") == [[BreakIndex.BI33]]
    assert _breaks_after(fable_result, "take") == [[BreakIndex.BI32]]
    line = render_tobi(fable_result.doc, fable_result.script).splitlines()[1]
    assert "L-L% consider BI-33 what" in line and "L-L% take BI-32 to" in line


def test_bi_quantifier_and_exclamative(fable_result, fox_result):
    # "and nobody spoke": the standalone quantifier closes with BI-23
    assert _breaks_after(fable_result, "nobody") == [[BreakIndex.BI23]]
    # "who is to bell the cat?": the exclamative's last word takes BI-22
    assert _breaks_after(fable_result, "cat")[-1] == [BreakIndex.BI22]
    assert _breaks_after(fox_result, "me") == [[BreakIndex.BI22]]
    assert "me BI-22 H*-H-1 !" in render_tobi(fox_result.doc, fox_result.script)


def test_bi_paragraph_final_only_without_punctuation():
    # punctuation outranks the paragraph boundary
    ctx = BreakContext(at_punct=True, sentence_final=True, paragraph_final=True)
    assert assign_break_index(ctx) == BreakIndex.BI3
    ctx = BreakContext(sentence_final=True, paragraph_final=True)
    assert assign_break_index(ctx) == BreakIndex.BI4


def test_bi_default_enjambed():
    assert assign_break_index(BreakContext()) == BreakIndex.BI2


# Tone contours ---------------------------------------------------------------

@pytest.mark.parametrize("label", sorted(
    {c.label for row in DEFAULT_TABLE.rows for c in row.contours}))
def test_contour_label_round_trip(label):
    # every label of the table is an inventory shape, and each contour that
    # carries it is found again at its row and index
    assert is_contour_label(label)
    carriers = [c for row in DEFAULT_TABLE.rows for c in row.contours
                if c.label == label]
    for c in carriers:
        assert DEFAULT_TABLE.row(c.row_id).contours[c.index] is c


def test_select_tone_examples():
    up = select_tone(ToneContext(position="sentence_initial", move="up",
                                 relevance="foreground", paragraph_initial=True,
                                 after_first_paragraph=True))
    assert up.label == "H*-H-1"
    plain_up = select_tone(ToneContext(position="sentence_initial", move="up",
                                       relevance="foreground"))
    assert plain_up.label == "H*-H"
    sad = select_tone(ToneContext(affect="sad"))
    assert sad.label == "L*-L%"
    default = select_tone(ToneContext(position="sentence_internal",
                                      move="level", relevance="background"))
    assert default.label == "H*-L"


def test_select_tone_total_over_enum_product():
    moves = ("root", "up", "down", "level")
    relevances = ("foreground", "background")
    positions = ("sentence_initial", "sentence_internal", "group_final")
    affects = ("neutral", "sad", "exclaim", "exhort")
    flags = (False, True)
    count = 0
    for pos, move, rel, affect, quote in itertools.product(
            positions, moves, relevances, affects, flags):
        tone = select_tone(ToneContext(position=pos, move=move, relevance=rel,
                                       affect=affect, in_quote=quote))
        assert tone is DEFAULT_TABLE.row(tone.row_id).contours[tone.index]
        count += 1
    assert count == 4 * 2 * 3 * 4 * 2


# Point of view ----------------------------------------------------------------

def _doc(text, config):
    return split_document(tokenize(text, config.multiwords), text, "off")


def test_pov_attributed_quote(config):
    text = '"You will all agree", said he, "that our danger is real".'
    doc = _doc(text, config)
    spans = track_point_of_view(doc, shallow_analyze(doc), config.comm_verbs)
    assert len(spans) == 2
    # both quotes take the speaker of "said", not an anonymous one
    assert all(s.holder != "character:anon" for s in spans)


def test_pov_no_quotes_single_narrator(config):
    doc = _doc("The mice had a council.", config)
    spans = track_point_of_view(doc, shallow_analyze(doc), config.comm_verbs)
    assert spans == []


def test_pov_multi_sentence_span(config, fox_result):
    spans = fox_result.pov_spans
    assert len(spans) == 1
    assert spans[0].sentences == [1, 2, 3]
    assert spans[0].holder == "character:fox"


def test_pov_unbalanced_quote_diagnostic(config):
    res = run_pipeline('He said "this is odd. And it never closes.', None, config)
    assert res.diagnostics == ["quotation left open at document end"]


def test_diagnostics_are_per_compile(config):
    manager = ProsodyManager(config)
    first = manager.process('He said "hi.')
    second = manager.process('He said "hi.')
    assert first.diagnostics == second.diagnostics == [
        "quotation left open at document end"]
    assert first.diagnostics is not second.diagnostics


def test_force_closed_pov_covers_every_sentence(config):
    res = run_pipeline('He said "hi. She ran. It fell. Done.', None, config)
    assert [s.sentences for s in res.pov_spans] == [[0, 1, 2, 3]]
    # each continuation sentence opens with the downstepped contour
    opening, current = {}, None
    for it in res.script.items:
        if it.kind == "sentence_start":
            current = it.sentence_index
        elif it.kind == "event" and it.tone_label and current not in opening:
            opening[current] = it.tone_label
    assert [opening[i] for i in (1, 2, 3)] == ["H-!H*-1"] * 3


def test_unclosed_quote_ends_at_its_paragraph(config):
    # the second paragraph renders as if no quotation came before it
    tail = "\n\nThe cat sat. It fell."
    quoted = run_pipeline('He said "hi. She ran.' + tail, None, config)
    plain = run_pipeline("He said hi. She ran." + tail, None, config)
    lines = render_tobi(quoted.doc, quoted.script).splitlines()
    assert lines[-2:] == render_tobi(plain.doc, plain.script).splitlines()[-2:]
    assert lines[-2:] == ["The cat sat . H*-H", "It fell ."]
    assert [s.sentences for s in quoted.pov_spans] == [[0, 1]]


def test_threads_can_share_one_manager(config):
    # four different documents of about 4k tokens: the fixtures' sentences
    # shuffled and regrouped into paragraphs of four
    sentences = re.split(r"(?<=[.!?])\s+", load("belling_cat.txt").split("\n\n", 1)[1]
                         + " " + load("fox_crow.txt"))
    texts = []
    for k in range(4):
        rng = random.Random(k)
        picked = [rng.choice(sentences) for _ in range(160)]
        texts.append("\n\n".join(" ".join(picked[i:i + 4]) for i in range(0, 160, 4)))
    solo = [ProsodyManager(config).process(t) for t in texts]
    manager = ProsodyManager(config)
    shared = [None] * len(texts)
    start = threading.Barrier(len(texts))

    def compile_one(k):
        start.wait(timeout=60)
        shared[k] = manager.process(texts[k])

    threads = [threading.Thread(target=compile_one, args=(k,))
               for k in range(len(texts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for one, other in zip(solo, shared):
        assert render_markup(one.doc, one.script) == render_markup(other.doc, other.script)
        assert render_tobi(one.doc, one.script) == render_tobi(other.doc, other.script)
    assert set(vars(manager)) == {"config"}


def test_fable_has_no_downstep(fable_result):
    labels = [it.tone_label for it in fable_result.script.items
              if it.kind == "event" and it.tone_label]
    assert not any("!H" in lbl for lbl in labels)


def test_bi0_bi1_representable_never_emitted(fable_result, fox_result):
    assert BreakIndex.BI0.label == "BI-0"
    assert BreakIndex.BI1.label == "BI-1"
    assert BreakIndex.BI0 not in BI_REALIZATION
    assert BreakIndex.BI1 not in BI_REALIZATION
    for res in (fable_result, fox_result):
        emitted = {it.bi for it in res.script.items
                   if it.kind == "event" and it.bi is not None}
        assert BreakIndex.BI0 not in emitted
        assert BreakIndex.BI1 not in emitted


def test_script_token_order_invariant(fable_result):
    assert fable_result.script.validate() == []


# Frozen expressions ------------------------------------------------------------

def test_frozen_come_on_baby(config):
    toks = tokenize("Come on, baby", config.multiwords)
    m = match_frozen(toks, 0, config.frozen_table)
    assert m is not None
    assert (m.role, m.pattern_length, m.tail_position, m.length) == \
        ("exhortative", 2, 3, 4)
    row = DEFAULT_TABLE.row(m.role)
    tail = DEFAULT_TABLE.row(f"{m.role}_tail")
    assert [c.label for c in row.contours + tail.contours] == ["H*+L-", "!L+H*%"]
    assert row.flat_params() + tail.flat_params() == [
        ev(pbas=57.0, rate=170, volm=+0.5),
        ev(pbas=36.0, rate=170, volm=+0.5),
        ev(pbas=24.0, rate=130, volm=+0.5),
        ev(pbas=60.0, rate=150, volm=+0.5),
        ev(slnc=100),
        RSET]


def test_frozen_no_match(config):
    toks = tokenize("the cat sat", config.multiwords)
    assert match_frozen(toks, 0, config.frozen_table) is None


def test_frozen_longest_match_wins(config):
    table = [(["come", "on"], "exhortative"), (["come", "on", "in"], "exhortative")]
    toks = tokenize("come on in", config.multiwords)

    def oracle(tokens, start):
        # brute force: all entries whose full pattern matches here; longest wins
        best = None
        for pattern, _ in table:
            window = [t.normalized for t in tokens[start:start + len(pattern)]]
            if window == pattern and (best is None or len(pattern) > best):
                best = len(pattern)
        return best

    m = match_frozen(toks, 0, table)
    assert m.length == m.pattern_length == oracle(toks, 0) == 3
    assert m.tail_position is None


def test_frozen_determinism(config):
    toks = tokenize("Come on, baby", config.multiwords)
    first = match_frozen(toks, 0, config.frozen_table)
    second = match_frozen(toks, 0, config.frozen_table)
    assert first == second


# Quantifier slowdowns ----------------------------------------------------------

def test_mark_quantifier_slowdown_direct(config, fable_result):
    from prosomark.prosody import mark_quantifier_slowdown
    doc = fable_result.doc
    # "and nobody spoke": standalone quantifier pronoun
    sent = doc.sentences[9]
    group = next(g for g in fable_result.groups[9]
                 if any(sent.tokens[i].normalized == "nobody" for i in g.positions()))
    out = mark_quantifier_slowdown(group, sent, config.quantifiers)
    assert len(out) == 1
    pos, row_id, covered = out[0]
    assert sent.tokens[pos].normalized == "nobody"
    assert row_id == "slowdown_quantifier" and covered == {pos}
    assert DEFAULT_TABLE.row(row_id).bi == BreakIndex.BI23
    # "you will all agree": modifier quantifier before the group-final head
    sent3 = doc.sentences[3]
    group3 = next(g for g in fable_result.groups[3]
                  if any(sent3.tokens[i].normalized == "agree" for i in g.positions()))
    out3 = mark_quantifier_slowdown(group3, sent3, config.quantifiers)
    assert len(out3) == 1
    pos3, row_id3, covered3 = out3[0]
    assert sent3.tokens[pos3].normalized == "all"
    assert row_id3 == "slowdown_head" and DEFAULT_TABLE.row(row_id3).bi is None
    assert [sent3.tokens[i].normalized for i in sorted(covered3)] == ["all", "agree"]
    # no quantifier, non-final head: nothing
    sent1 = doc.sentences[1]
    group1 = fable_result.groups[1][1]   # "the mice had a general council"
    assert mark_quantifier_slowdown(group1, sent1, config.quantifiers) == []


def test_quantifier_slowdown_nobody(fable_result):
    # (rate 110, volm +0.3) before "nobody", then the quantifier-class pause
    script = fable_result.script.items
    for i, item in enumerate(script):
        if item.kind == "token" and item.token.normalized == "nobody":
            before = script[i - 1]
            after = script[i + 1]
            assert before.kind == "event"
            assert (before.event.rate, before.event.volm) == (110, +0.3)
            assert after.event.slnc == 100 and after.bi == BreakIndex.BI23
            break
    else:
        pytest.fail("nobody not found")


def test_head_slowdown_all_agree(fable_result):
    script = fable_result.script.items
    for i, item in enumerate(script):
        if item.kind == "token" and item.token.normalized == "all":
            before = script[i - 1]
            assert before.kind == "event"
            assert (before.event.rate, before.event.volm) == (130, +0.5)
            break
    else:
        pytest.fail("all not found")


def test_no_slowdown_without_quantifier(config):
    res = run_pipeline("The cat sat down.", None, config)
    rates = [it.event.rate for it in res.script.items
             if it.kind == "event" and it.event.rate and it.event.pbas is None]
    assert rates == []


# Affect spans ------------------------------------------------------------------

def _ref_affect_spans(toks, consumed, affect):
    """The three-window search tried at every word: the reference for the
    planner's first-word prefilter."""
    hits = []
    i = 0
    while i < len(toks):
        if toks[i].kind != "word" or i in consumed:
            i += 1
            continue
        matched = 0
        for length in (3, 2, 1):
            window = toks[i:i + length]
            if len(window) < length or any(t.kind != "word" for t in window):
                continue
            if affect.get(" ".join(t.normalized for t in window)) == "sad":
                matched = length
                break
        if matched:
            hits.append((i, i + matched - 1))
            i += matched
        else:
            i += 1

    def only_connectors(a, b):
        between = toks[a:b]
        return bool(between) and all(
            t.kind == "comma" or (t.kind == "word" and t.normalized in ("and", "or"))
            for t in between)

    merged = []
    for start, end in hits:
        if merged and only_connectors(merged[-1][1] + 1, start):
            merged[-1][1] = end
            merged[-1][2] += 1
        else:
            merged.append([start, end, 1])
    out = []
    for start, end, n_hits in merged:
        while start > 0 and toks[start - 1].kind == "word" \
                and toks[start - 1].normalized in lexica.NEGATION_WORDS:
            start -= 1
        if n_hits == 1 and end + 1 < len(toks) and toks[end + 1].kind == "word" \
                and not lexica.function_word(toks[end + 1].normalized):
            end += 1
        out.append((start, end))
    return out


def test_affect_spans_match_the_window_search():
    # one-word and multiword entries, sad and not, sharing first words
    affect = {"alas": "sad", "sorrow": "sad", "cold": "sad", "cold night": "exclaim",
              "cold night air": "sad", "broken heart": "sad", "broken": "exhort",
              "out of luck": "sad", "out": "exclaim", "poor old soul": "sad",
              "poor": "exclaim", "dear": "exhort", "dear me": "sad"}
    vocab = ("alas sorrow cold night air broken heart out of luck poor old soul "
             "dear me the cat and or without not never ran sat").split()
    marks = (",", ",", ".", "!", '"', ":")
    cfg = Config(affect_words=affect)
    rng = random.Random(515)
    sentences = 0
    for _ in range(400):
        text = " ".join(rng.choice(vocab) if rng.random() < 0.85 else rng.choice(marks)
                        for _ in range(rng.randint(1, 30)))
        doc = split_document(tokenize(text, []), text, "off")
        ann = AnnotationSet()
        compile_ = _Compile(cfg, doc, ann, DocIndex(doc, ann))
        for sent in doc.sentences:
            plan = _SentencePlan(sent, [], False, False)
            plan.consumed = {i for i in range(len(sent.tokens)) if rng.random() < 0.1}
            assert compile_._affect_spans(plan) == \
                _ref_affect_spans(sent.tokens, plan.consumed, affect), text
            sentences += 1
    assert sentences > 400
