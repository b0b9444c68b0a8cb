"""Break indices, tone selection, point of view, frozen matches."""

import importlib
import itertools
import random
import re
import sys
import threading
from pathlib import Path

import pytest

from prosomark import lexica, pipeline
from prosomark.annotations import AnnotationSet, shallow_analyze
from prosomark.config import Config
from prosomark.docindex import DocIndex
from prosomark.emit import DEFAULT_TABLE, render_markup, render_tobi
from prosomark.ingest import QUOTE, Sentence, phrase_index, split_document, tokenize
from prosomark.pipeline import ProsodyManager, _Compile, _SentencePlan, run_pipeline
from conftest import is_contour_label, load
from prosomark.prosody import (BI_REALIZATION, RSET, BreakIndex, FrozenMatch,
                               ToneContext, ev, match_frozen, select_tone,
                               span_for_sentence, track_point_of_view)


# Break indices ---------------------------------------------------------------

def _breaks_after(result, word):
    """The break indices of the events right after each token ``word``,
    before the next token: those whose nearest token before them it is."""
    out = {t.index: [] for t in result.doc.tokens() if t.normalized == word}
    for it in result.script.items:
        if (it.at - 1) // 2 in out and it.bi is not None:
            out[(it.at - 1) // 2].append(it.bi)
    return list(out.values())


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


@pytest.mark.parametrize("text,tobi", [
    ("She looks at it\n\nHe looks at her.",
     "She looks at H*-L% it BI-4\nHe looks at H*-L% her BI-3 .\n"),
    ("She looks at it.\n\nHe looks at her",
     "She looks at H*-L% it BI-3 .\nHe looks at H*-L% her BI-4\n"),
    ("She looks at it; he looks at her\n\nHe looks at it.",
     "She looks at H*-L% it BI-3 ; he looks at H*-L% her BI-4\n"
     "He looks at H*-L% it BI-3 .\n"),
], ids=["unpunctuated_first", "unpunctuated_last", "unpunctuated_two_groups"])
def test_bi_paragraph_final_only_without_punctuation(text, tobi):
    # a punctuated sentence closes with BI-3 even at its paragraph's end; an
    # unpunctuated one, which always ends its paragraph, closes its last
    # group with BI-4 and any group before with BI-3
    res = run_pipeline(text, None, Config(title_mode="off").load_lexica())
    assert render_tobi(res.doc, res.script) == tobi


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


@pytest.mark.parametrize("record,field", [
    (ev(pbas=38.0, rate=160, volm=+0.5), "pbas"),
    (DEFAULT_TABLE.row("title").contours[0], "label"),
    (DEFAULT_TABLE.row("eog_internal"), "bi"),
])
def test_table_records_are_frozen(record, field):
    # the mapping table and its events are shared by every compile
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


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
    spans = track_point_of_view(doc, shallow_analyze(doc))
    # the reporting clause between the two quotations belongs to neither
    marks = [t.index for t in doc.tokens() if t.kind == QUOTE]
    assert [(s.start_token, s.end_token) for s in spans] == \
        [(marks[0], marks[1]), (marks[2], marks[3])]


def test_pov_no_quotes_single_narrator(config):
    doc = _doc("The mice had a council.", config)
    spans = track_point_of_view(doc, shallow_analyze(doc))
    assert spans == []


def test_pov_multi_sentence_span(config, fox_result):
    spans = fox_result.pov_spans
    assert len(spans) == 1
    assert spans[0].sentences == [1, 2, 3]


def test_span_for_sentence(config):
    # sentence 1 closes the first quotation and opens the second
    doc = _doc('"Hi. Go," he said, "now. Stay." The cat ran.', config)
    spans = track_point_of_view(doc, AnnotationSet())
    assert [s.sentences for s in spans] == [[0, 1], [1, 2]]
    assert [span_for_sentence(spans, i) for i in range(4)] == \
        [spans[0], spans[0], spans[1], None]


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
    sentence_of = {t.index: s.index for s in res.doc.sentences for t in s.tokens}
    opening = {}
    for it in res.script.items:
        if it.tone_label and sentence_of[it.at // 2] not in opening:
            opening[sentence_of[it.at // 2]] = it.tone_label
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
    labels = [it.tone_label for it in fable_result.script.items if it.tone_label]
    assert not any("!H" in lbl for lbl in labels)


def test_bi0_bi1_representable_never_emitted(fable_result, fox_result):
    assert BreakIndex.BI0.label == "BI-0"
    assert BreakIndex.BI1.label == "BI-1"
    assert BreakIndex.BI0 not in BI_REALIZATION
    assert BreakIndex.BI1 not in BI_REALIZATION
    for res in (fable_result, fox_result):
        emitted = {it.bi for it in res.script.items if it.bi is not None}
        assert BreakIndex.BI0 not in emitted
        assert BreakIndex.BI1 not in emitted


def test_script_token_order_invariant(fable_result):
    assert fable_result.script.validate() == []


# Frozen expressions ------------------------------------------------------------

def test_frozen_come_on_baby(config):
    sent = Sentence(tokenize("Come on, baby", config.multiwords))
    m = match_frozen(sent, 0, phrase_index(config.frozen_table))
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
    sent = Sentence(tokenize("the cat sat", config.multiwords))
    assert match_frozen(sent, 0, phrase_index(config.frozen_table)) is None


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

    m = match_frozen(Sentence(toks), 0, phrase_index(table))
    assert m.length == m.pattern_length == oracle(toks, 0) == 3
    assert m.tail_position is None


def test_frozen_tie_goes_to_the_longer_pattern(config):
    # "hey" with its address-term tail and "hey dear" both cover two
    # tokens: the longer pattern wins, wherever the table lists it
    for table in ([(("hey",), "exhortative"), (("hey", "dear"), "exhortative")],
                  [(("hey", "dear"), "exhortative"), (("hey",), "exhortative")]):
        sent = Sentence(tokenize("hey dear", config.multiwords))
        m = match_frozen(sent, 0, phrase_index(table))
        assert (m.pattern_length, m.tail_position, m.length) == (2, None, 2)


def test_frozen_determinism(config):
    sent = Sentence(tokenize("Come on, baby", config.multiwords))
    first = match_frozen(sent, 0, phrase_index(config.frozen_table))
    second = match_frozen(sent, 0, phrase_index(config.frozen_table))
    assert first == second


def test_frozen_pattern_that_is_a_multiword_matches(tmp_path, config):
    # tokenize merges the shipped multiword "got up" into one token.  The
    # match opens with its row's first tuple and places the address tail
    # as the shipped "come on" does; where the row's second tuple goes on a
    # merged token is not settled, so the text between is not asserted.
    frozen = tmp_path / "frozen.tsv"
    frozen.write_text("got up\texhortative\n", encoding="utf-8")
    res = run_pipeline("Got up, baby.", None, Config(frozen_path=frozen).load_lexica())
    got = render_markup(res.doc, res.script)
    res = run_pipeline("Come on, baby.", None, config)
    shipped = render_markup(res.doc, res.script)
    assert got.startswith(shipped[:shipped.index("Come")] + "Got up ")
    assert got.endswith(shipped[shipped.index(" , "):])


class _EveryWord(dict):
    """A phrase index that holds every word as a first word."""

    def __contains__(self, word):
        return True


def _brute_frozen(table):
    """``match_frozen`` by brute force over the ``(pattern, role)`` pairs of
    ``table``: the longest pattern whose words start at the sentence's
    position, then its address-term tail after any commas."""
    def match(sentence, start, _index):
        tokens = sentence.tokens
        words = [t.normalized if t.kind == "word" else None for t in tokens]
        hits = [(len(p), role) for p, role in table
                if words[start:start + len(p)] == list(p)]
        if not hits:
            return None
        n, role = max(hits, key=lambda h: h[0])
        j = start + n
        while j < len(tokens) and tokens[j].kind == "comma":
            j += 1
        if j < len(tokens) and words[j] in lexica.DEAR_TERMS:
            return FrozenMatch(role, n, j, j - start + 1)
        return FrozenMatch(role, n, None, n)
    return match


def _counted_compile(monkeypatch, text, config, brute_force=False):
    """The markup and ToBI of a compile, and its ``match_frozen`` calls.
    With ``brute_force`` the frozen rule tries ``_brute_frozen`` at every
    word of a sentence rather than the phrase index at the first words of
    its patterns."""
    calls = []
    matcher = _brute_frozen(config.frozen_table) if brute_force else match_frozen

    def counted(sentence, start, index):
        calls.append(start)
        return matcher(sentence, start, index)

    init = _Compile.__init__

    def init_every_position(self, *args):
        init(self, *args)
        self.frozen_index = _EveryWord(self.frozen_index)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "match_frozen", counted)
        if brute_force:
            m.setattr(_Compile, "__init__", init_every_position)
        res = run_pipeline(text, None, config)
    return render_markup(res.doc, res.script) + render_tobi(res.doc, res.script), len(calls)


def _frozen_start_count(text, config):
    starts = {pattern[0] for pattern, _ in config.frozen_table}
    return sum(1 for t in tokenize(text, config.multiwords)
               if t.kind == "word" and t.normalized in starts)


def test_frozen_prefilter_finds_every_match(monkeypatch, tmp_path):
    # two patterns sharing a first word and a one-word pattern
    frozen = tmp_path / "frozen.tsv"
    frozen.write_text("come on\texhortative\ncome now\texhortative\nhush\texhortative\n")
    cfg = Config(frozen_path=frozen).load_lexica()
    text = ("Come on, baby. He said come, come now, dear! Come on,, dear. "
            "Hush, hush, dear. The cat would come on home. Now hush. Come.")
    fast, fast_calls = _counted_compile(monkeypatch, text, cfg)
    slow, slow_calls = _counted_compile(monkeypatch, text, cfg, brute_force=True)
    assert fast == slow
    # the tail after two commas is placed
    assert "on , , [[pbas 24.000; rate 130; volm +0.5]]dear" in fast
    assert fast_calls == _frozen_start_count(text, cfg) == 9
    assert slow_calls > fast_calls


def test_frozen_rule_tries_only_first_words(monkeypatch, config):
    # the benchmark's story generator
    monkeypatch.syspath_prepend(Path(__file__).resolve().parent.parent / "bench")
    wl = importlib.import_module("workloads")
    fx = wl.Fixtures.load(lexica.data_path("fixtures"))
    for text in (load("fox_crow.txt"), wl.story_shallow(1, 0, fx, 1000).text):
        _, calls = _counted_compile(monkeypatch, text, config)
        assert calls == _frozen_start_count(text, config)


# Quantifier slowdowns ----------------------------------------------------------

def test_mark_quantifier_slowdown_direct(config, fable_result):
    # the quantifier rule run alone on one breath group at a time
    doc = fable_result.doc
    compile_ = _Compile(config, doc, fable_result.ann,
                        DocIndex(doc, fable_result.ann))

    def plan_for(si, word):
        sent = doc.sentences[si]
        group = next(g for g in fable_result.groups[si]
                     if any(sent.tokens[i].normalized == word for i in g.positions()))
        plan = _SentencePlan(sent, [group], False, False)
        compile_._plan_quantifiers(plan)
        return sent, plan

    # "and nobody spoke": standalone quantifier pronoun
    sent, plan = plan_for(9, "nobody")
    assert len(plan.prefix) == 1
    [(pos, [item])] = plan.prefix.items()
    assert sent.tokens[pos].normalized == "nobody"
    assert (item.event.rate, item.event.volm) == (110, +0.3)
    assert list(plan.suffix) == [pos] and plan.has_bi_suffix(pos)
    assert [p.bi for p in plan.suffix[pos] if p.bi is not None] == \
        [DEFAULT_TABLE.row("slowdown_quantifier").bi]
    assert DEFAULT_TABLE.row("slowdown_quantifier").bi == BreakIndex.BI23
    assert plan.consumed == set()
    # "you will all agree": modifier quantifier before the group-final head
    sent3, plan3 = plan_for(3, "agree")
    assert len(plan3.prefix) == 1
    [(pos3, [item3])] = plan3.prefix.items()
    assert sent3.tokens[pos3].normalized == "all"
    assert (item3.event.rate, item3.event.volm) == (130, +0.5)
    assert plan3.suffix == {} and DEFAULT_TABLE.row("slowdown_head").bi is None
    assert [sent3.tokens[i].normalized for i in sorted(plan3.consumed)] == ["all", "agree"]
    # no quantifier, non-final head: nothing
    sent1 = doc.sentences[1]
    plan1 = _SentencePlan(sent1, [fable_result.groups[1][1]],   # "the mice had a general council"
                          False, False)
    compile_._plan_quantifiers(plan1)
    assert plan1.prefix == {} and plan1.suffix == {} and plan1.consumed == set()

def test_quantifier_slowdown_nobody(fable_result):
    # (rate 110, volm +0.3) before "nobody", then the quantifier-class pause
    i = next(t.index for t in fable_result.doc.tokens() if t.normalized == "nobody")
    before = [it for it in fable_result.script.items if it.at == 2 * i]
    after = [it for it in fable_result.script.items if it.at == 2 * i + 1]
    assert (before[-1].event.rate, before[-1].event.volm) == (110, +0.3)
    assert after[0].event.slnc == 100 and after[0].bi == BreakIndex.BI23


def test_head_slowdown_all_agree(fable_result):
    # "you will all agree": the modifier quantifier takes the head slowdown,
    # which covers the group-final head, so "agree" gets no contour and no
    # break
    tokens = fable_result.doc.tokens()
    i = next(t.index for t in tokens if t.normalized == "all")
    assert tokens[i + 1].normalized == "agree"
    before = [it for it in fable_result.script.items if it.at == 2 * i]
    assert (before[-1].event.rate, before[-1].event.volm) == (130, +0.5)
    assert before[-1].tone_label is None and before[-1].bi is None
    # no event between "all" and "agree", nor between "agree" and the next token
    assert [it for it in fable_result.script.items if 2 * i < it.at <= 2 * i + 4] == []


def test_no_slowdown_without_quantifier(config):
    res = run_pipeline("The cat sat down.", None, config)
    rates = [it.event.rate for it in res.script.items
             if it.event.rate and it.event.pbas is None]
    assert rates == []


# Affect spans ------------------------------------------------------------------

def _ref_affect_spans(toks, consumed, affect):
    """The three-window search tried at every word: the reference for the
    planner's phrase lookup on entries of three words or fewer."""
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


def _affect_config(tmp_path, affect):
    """A loaded config whose affect list holds the entries of ``affect``,
    without multiwords."""
    (tmp_path / "affect.tsv").write_text("".join(f"{k}\t{v}\n" for k, v in affect.items()))
    (tmp_path / "multiwords.txt").write_text("")
    return Config(affect_path=tmp_path / "affect.tsv",
                  multiword_path=tmp_path / "multiwords.txt").load_lexica()


def test_affect_spans_match_the_window_search(tmp_path):
    # one-word and multiword entries, sad and not, sharing first words
    affect = {"alas": "sad", "sorrow": "sad", "cold": "sad", "cold night": "exclaim",
              "cold night air": "sad", "broken heart": "sad", "broken": "exhort",
              "out of luck": "sad", "out": "exclaim", "poor old soul": "sad",
              "poor": "exclaim", "dear": "exhort", "dear me": "sad"}
    vocab = ("alas sorrow cold night air broken heart out of luck poor old soul "
             "dear me the cat and or without not never ran sat").split()
    marks = (",", ",", ".", "!", '"', ":")
    cfg = _affect_config(tmp_path, affect)
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


def test_affect_phrase_that_is_a_multiword_matches(tmp_path):
    # tokenize merges the shipped multiword "dead body" into one token
    affect = tmp_path / "affect.tsv"
    affect.write_text("dead body\tsad\n", encoding="utf-8")
    res = run_pipeline("They found the dead body there.", None,
                       Config(affect_path=affect).load_lexica())
    assert render_markup(res.doc, res.script) == (
        "[[pbas 44.000; rate 140; volm +0.3]]They found the "
        "[[pbas 36.000; rate 110; volm -0.2]]dead body there [[rset 0]] .\n")


def test_affect_phrase_of_four_words(tmp_path):
    # an entry longer than the three-word windows of the reference
    affect = {"out of my mind": "sad", "out": "exclaim"}
    text = "She went out of my mind and ran."
    doc = split_document(tokenize(text, []), text, "off")
    ann = AnnotationSet()
    compile_ = _Compile(_affect_config(tmp_path, affect), doc, ann, DocIndex(doc, ann))
    sent = doc.sentences[0]
    plan = _SentencePlan(sent, [], False, False)
    assert compile_._affect_spans(plan) == [(2, 5)]
    assert _ref_affect_spans(sent.tokens, set(), affect) == []


# Rule planner --------------------------------------------------------------------

def _sidecar(*clauses):
    """CLAUSE lines for (pred, span, relevance) triples, numbered from 1."""
    return "".join(
        f"CLAUSE\t{n}\tmain/prop\texternal\tfactive\tnull\t{rel}\tactivity\t{pred}"
        f"\tpres\tnarration\tobjective\t{span}\n"
        for n, (pred, span, rel) in enumerate(clauses, 1))


#: one input per cross-rule guard that no corpus document exercises, with
#: the ToBI output the guard keeps and, in the comment, the output without it
@pytest.mark.parametrize("text,clauses,affect,tobi", [
    # affect skips frozen words; without: "H*+L- L*-L% Come [[rset 0]] on"
    ("Come on, dear.", None, "come\tsad\n",
     "H*+L- Come on , !L+H*% dear BI-23 .\n"),
    # connectives skip consumed words; without: "H*-H-1 L-L% but BI-32 why"
    ('He said, "Run; but why?"', None, None,
     "H*-H He said , H*-L Run BI-3 ; H*-H-1 but why BI-22 H*-H-1 ? [[rset 0]]\n"),
    # a head already given a prefix takes no head contour; without:
    # "H-H*-2 L-L% said BI-33 that"
    ("He said that it fell.", [("said", "0-4", "background"), ("x", "1-4", "foreground")],
     None, "He BI-2 H-H*-2 said that it H*-L% fell BI-3 .\n"),
    # a suppressed quoted final that already has a break is not chained
    # onward; without: "L-L% but BI-32 BI-2 ."
    ('"Run; but. Go now," he said.', None, None,
     "Run ; L-L% but BI-32 . BI-2 H-!H*-1 H*-H\nGo H*-L now BI-3 , he said .\n"),
    # a group final that already has a break takes no contour; without:
    # "L-L% H*-L% but BI-32 BI-3"
    ("He ran; but, she fell.", [("ran", "0-1", "background"), ("fell", "3-6", "background")],
     None, "He ran ; L-L% but BI-32 , she H*-L% fell BI-3 .\n"),
    # a comparative group that opens with a pause takes no second one;
    # without: "BI-2 H-H*-2 BI-2 than"
    ("The cat ran faster than the dog ran.", None, None,
     "H*-H The cat ran faster BI-2 H-H*-2 than the dog ran .\n"),
], ids=["affect_skips_frozen", "connective_skips_consumed", "head_skips_prefixed",
        "suppressed_final_keeps_its_break", "final_keeps_its_break",
        "comparative_pause_once"])
def test_planner_guard_decides(tmp_path, config, text, clauses, affect, tobi):
    if affect is not None:
        path = tmp_path / "affect.tsv"
        path.write_text(affect)
        config = Config(affect_path=path).load_lexica()
    res = run_pipeline(text, clauses and _sidecar(*clauses), config)
    assert render_tobi(res.doc, res.script) == tobi


@pytest.mark.parametrize("text,clauses,tobi", [
    # a sidecar predicate (a lemma here) absent from its span: no head
    # contour, where "said" gives "He L-L% said BI-33 that"
    ("He said that it fell.", [("say", "0-4", "background")],
     "He said that it H*-L% fell BI-3 .\n"),
    # a quoted exclamative whose clause starts in an earlier sentence opens
    # at its own first word (the contour ends the line before)
    ('He said, "Run. Why now?"', [("said", "0-7", "background")],
     "He said , H*-L% Run BI-2 . H-!H*-1 H*-H-1\nWhy now BI-22 H*-H-1 ? [[rset 0]]\n"),
], ids=["pred_outside_span", "exclamative_clause_starts_earlier"])
def test_planner_fallback(config, text, clauses, tobi):
    res = run_pipeline(text, _sidecar(*clauses), config)
    assert render_tobi(res.doc, res.script) == tobi
