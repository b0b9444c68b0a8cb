"""Mapping table conversions and the two renderers."""

import enum
import re
import sys

import pytest

from prosomark.emit import (DEFAULT_TABLE, GLUE_COMPOUND, ProsodicScript,
                            ScriptItem, bi_to_params, params_to_bi,
                            params_to_tobi, render_markup, render_tobi,
                            strip_markup, tone_to_params)
from prosomark.pipeline import run_pipeline
from prosomark.prosody import (BI_REALIZATION, RSET, BreakIndex, ParamEvent,
                               ev, select_tone)
from conftest import is_contour_label


def _contour(row_id, i=0):
    return DEFAULT_TABLE.row(row_id).contours[i]


# tone_to_params ---------------------------------------------------------------

def test_title_row():
    params = tone_to_params(_contour("title"))
    assert params == [ev(pbas=38.0, rate=160, volm=+0.5)]


def test_default_tone_is_the_title_row():
    assert tone_to_params(select_tone()) == \
        DEFAULT_TABLE.row("title").flat_params()


def test_end_of_group_row_includes_break():
    params = tone_to_params(_contour("eog_internal"))
    assert params == [ev(pbas=38.0, rate=130, volm=+0.3), ev(slnc=200), RSET]
    # only the last contour of a row carries the row's break
    assert tone_to_params(_contour("adjunct_bg", 0)) == [ev(pbas=40.0, rate=120, volm=+0.5)]
    assert tone_to_params(_contour("adjunct_bg", 1)) == [
        ev(pbas=38.0, rate=130, volm=+0.3), ev(slnc=200), RSET]


def test_sad_row():
    params = tone_to_params(_contour("sad"))
    assert params == [ev(pbas=36.0, rate=110, volm=-0.2), RSET]


# params_to_tobi ---------------------------------------------------------------

def test_silence_400_is_title_break():
    out = params_to_tobi([ev(slnc=400)])
    assert out == [("", "BI-44")]


def test_paragraph_initial_tuple():
    out = params_to_tobi([ev(pbas=54.0, rate=170, volm=+0.3)])
    assert out == [("H*-H-1", None)]


def test_full_table_round_trip():
    for row in DEFAULT_TABLE.rows:
        got = params_to_tobi(row.flat_params())
        labels = " ".join(c.label for c in row.contours)
        assert got == [(labels, row.bi.label if row.bi else None)], row.row_id


def test_a_tuple_of_events_inverts_as_a_list_does():
    for row in DEFAULT_TABLE.rows:
        flat = row.flat_params()
        assert params_to_tobi(tuple(flat)) == params_to_tobi(list(flat)), row.row_id


def test_every_fixture_event_comes_from_the_table(fable_result, fox_result,
                                                  fox_nopov_result):
    # each event is a row's parameter event, a break index's silence or
    # reset, or a silence without reset fused in front of a row event; a
    # labelled event opens the tuple of a row contour with that label
    row_events = {e for row in DEFAULT_TABLE.rows for tup in row.params for e in tup}
    breaks = {ev(slnc=ms) for ms, _ in BI_REALIZATION.values()} | {RSET}
    fused = {ev(e.pbas, e.rate, e.volm, ms) for e in row_events if e.pbas is not None
             for ms, reset in BI_REALIZATION.values() if not reset}
    openings = {(c.label, row.params[i][0])
                for row in DEFAULT_TABLE.rows for i, c in enumerate(row.contours)}
    for res in (fable_result, fox_result, fox_nopov_result):
        events = res.script.items
        assert events
        for it in events:
            assert it.event in row_events | breaks | fused, it.event
            if it.bi is not None:
                assert it.event.slnc == BI_REALIZATION[it.bi][0], it
            if it.tone_label is not None:
                opening = ev(it.event.pbas, it.event.rate, it.event.volm)
                assert (it.tone_label, opening) in openings, it


def test_unknown_tuple_placeholder():
    out = params_to_tobi([ev(pbas=99.0, rate=999, volm=+9.9)])
    assert out == [("X-?", None)]
    # a bare reset carries no label of its own
    assert params_to_tobi([RSET, ev(pbas=99.0)]) == [("X-?", None)]


#: ``params_to_tobi`` over every event of the fixtures' scripts, with their
#: sidecars.  An ``X-?`` is a lone tuple of a two-tuple row, a silence fused
#: in front of a row tuple or a ``head_bi33`` tuple closed by BI-32; a row
#: without labels (``announce``, ``slowdown_head``) reads as ``('', None)``
BELLING_CAT_PAIRS = [('H*-L', None), ('', 'BI-44'), ('H*-H', None), ('L*-L%', None),
    ('L-L%', 'BI-33'), ('X-?', None), ('', 'BI-32'), ('', 'BI-2'), ('H*-L', None),
    ('H*-L%', 'BI-3'), ('H*-L%', 'BI-3'), ('L-L%', 'BI-33'), ('H*-L%', 'BI-3'),
    ('', 'BI-2'), ('H*-L%', 'BI-3'), ('X-?', None), ('', 'BI-32'), ('', None),
    ('', 'BI-2'), ('H*-L%', 'BI-3'), ('', 'BI-2'), ('H-H*-2', None),
    ('H*-L%', 'BI-3'), ('', None), ('H*-L%', 'BI-3'), ('L*-L%', None),
    ('H*-L%', 'BI-3'), ('', 'BI-2'), ('H-H*-2', None), ('', None),
    ('H*-L%', 'BI-3'), ('H*-L%', 'BI-3'), ('H*-L%', 'BI-3'), ('L-L%', 'BI-33'),
    ('', 'BI-2'), ('H-H*-2', None), ('', 'BI-2'), ('H*-L%', 'BI-3'), ('X-?', None),
    ('H*-L%', 'BI-3'), ('', 'BI-2'), ('L-L%', 'BI-33'), ('H*-L%', 'BI-3'),
    ('', 'BI-2'), ('H-H*-2', None), ('H*-L%', 'BI-3'), ('', 'BI-2'),
    ('H-H*-2', None), ('', 'BI-2'), ('H*-L%', 'BI-3'), ('', None), ('', None),
    ('H*-H-1', None), ('X-?', None), ('', 'BI-2'), ('', 'BI-23'),
    ('H*-L%', 'BI-3'), ('H*-H-1', None), ('', None), ('H*-L%-1', None),
    ('', 'BI-32'), ('L*-L%', None)]
FOX_CROW_PAIRS = [('', None), ('', None), ('', 'BI-3'), ('X-?', None), ('', 'BI-2'),
    ('X-?', None), ('H*-L%', 'BI-3'), ('H*-L', None), ('X-?', None), ('', 'BI-2'),
    ('X-?', None), ('', 'BI-2'), ('', 'BI-2'), ('', 'BI-2'), ('X-?', None),
    ('H*-L', None), ('', 'BI-3'), ('', 'BI-2'), ('H-H*-2', None), ('L*-L%', None),
    ('H*-L%', 'BI-3')]


@pytest.mark.parametrize("name,pairs", [("fable_result", BELLING_CAT_PAIRS),
                                        ("fox_result", FOX_CROW_PAIRS)])
def test_whole_script_inverts(request, name, pairs):
    script = request.getfixturevalue(name).script
    assert params_to_tobi([it.event for it in script.items]) == pairs


def test_bi_bijection_all_eight():
    seen = set()
    for bi, (silence, reset) in BI_REALIZATION.items():
        events = bi_to_params(bi)
        assert events[0].slnc == silence
        assert (len(events) == 2) == reset
        assert params_to_bi(events) == bi
        seen.add((silence, reset))
    assert len(seen) == 8  # distinct realizations, hence a bijection


def test_silences_outside_the_realization_table():
    # 400 ms is only realized without a reset, so before an unrelated reset
    # it is still BI-44; a silence of no index, or no leading silence, has none
    assert params_to_bi([ev(slnc=400), RSET]) == BreakIndex.BI44
    assert params_to_bi([ev(slnc=77), RSET]) is None
    assert params_to_bi([ev(slnc=77)]) is None
    assert params_to_bi([ev(pbas=38.0)]) is None
    assert params_to_bi([]) is None


def test_param_event_fields_are_checked():
    with pytest.raises(ValueError, match="reset events carry no other fields"):
        ParamEvent(slnc=100, rset=True)
    with pytest.raises(ValueError, match="at least one field"):
        ParamEvent()


# Event formatting --------------------------------------------------------------

def test_format_plain_event():
    assert ev(pbas=38.0, rate=160, volm=+0.5).markup == \
        "[[pbas 38.000; rate 160; volm +0.5]]"


def test_format_negative_volume():
    assert ev(pbas=36.0, rate=110, volm=-0.2).markup == \
        "[[pbas 36.000; rate 110; volm -0.2]]"


def test_format_fused_silence_first():
    assert ev(slnc=300, pbas=54.0, rate=170, volm=+0.3).markup == \
        "[[slnc 300; pbas 54.000; rate 170; volm +0.3]]"


def test_format_rate_only():
    assert ev(rate=130, volm=+0.5).markup == "[[rate 130; volm +0.5]]"


def test_format_reset():
    assert RSET.markup == "[[rset 0]]"


def test_event_markup_is_kept_on_the_event():
    event = ev(pbas=38.0, rate=160, volm=+0.5)
    assert event.markup is event.markup
    assert event == ev(pbas=38.0, rate=160, volm=+0.5)
    assert hash(event) == hash(ev(pbas=38.0, rate=160, volm=+0.5))
    fused = ev(event.pbas, event.rate, event.volm, slnc=100)
    assert fused.markup == "[[slnc 100; pbas 38.000; rate 160; volm +0.5]]"


# Renderers ----------------------------------------------------------------------

def test_markup_title_event_bytes(fable_result):
    markup = render_markup(fable_result.doc, fable_result.script)
    assert markup.startswith("[[pbas 38.000; rate 160; volm +0.5]]Belying")
    assert "[[slnc 400]]" in markup.split("\n\n")[0]


def test_markup_bi3_compound(fable_result):
    markup = render_markup(fable_result.doc, fable_result.script)
    assert "cat[[slnc 200]],[[rset 0]]" in markup


def test_markup_phon_override(fox_result):
    markup = render_markup(fox_result.doc, fox_result.script)
    assert "[[inpt PHON]]hUW[[inpt TEXT]]" in markup
    assert "hue" not in markup


def test_markup_deterministic(fable_result):
    first = render_markup(fable_result.doc, fable_result.script)
    for _ in range(3):
        assert render_markup(fable_result.doc, fable_result.script) == first


def test_markup_silence_reset_pairing(fable_result, fox_result):
    # lexical scan of the emitted text: end-of-group silences take the
    # compound reset, title/run-on silences never do
    for res in (fable_result, fox_result):
        markup = render_markup(res.doc, res.script)
        for m in re.finditer(r"\[\[slnc (\d+)\]\](,\[\[rset 0\]\])?", markup):
            silence, reset = int(m.group(1)), bool(m.group(2))
            if silence in (30, 50, 200):
                assert reset, m.group(0)
            if silence == 400:
                assert not reset, m.group(0)


@pytest.mark.parametrize("render", [render_markup, render_tobi], ids=["markup", "tobi"])
def test_render_refuses_a_bad_script(fable_result, render):
    # both renderers refuse each malformed script with the same one message,
    # which names the problem that validate() reports
    def silence(ms, bi, at=1):
        return ScriptItem(ev(slnc=ms), bi=bi, at=at)

    reset = ScriptItem(RSET, GLUE_COMPOUND, at=1)
    past = 2 * fable_result.doc.tokens()[-1].index + 2
    for items, problem in [
            ([silence(100, BreakIndex.BI2, at=3), silence(100, BreakIndex.BI2, at=1)],
             "events out of document order"),
            ([silence(200, BreakIndex.BI3)], "BI-3 silence not followed by a reset"),
            ([silence(100, BreakIndex.BI2), reset], "BI-2 silence must not take a reset"),
            ([silence(100, BreakIndex.BI1)], "BI-1 has no realization"),
            ([ScriptItem(None, bi=BreakIndex.BI2, at=1)], "an item holds no event"),
            ([ScriptItem(None, at=1)], "an item holds no event"),
            ([silence(100, BreakIndex.BI2, at=past)],
             "an event placed past the document's last token")]:
        script = ProsodicScript(items)
        assert script.validate() == ([] if "past" in problem else [problem])
        with pytest.raises(ValueError) as refused:
            render(fable_result.doc, script)
        assert str(refused.value) == "invalid prosodic script: " + problem


@pytest.mark.parametrize("render,last_piece", [(render_markup, "[[slnc 100]]"),
                                               (render_tobi, "BI-2")], ids=["markup", "tobi"])
def test_render_refuses_an_event_past_the_last_token(fable_result, render, last_piece):
    # an event after the last token's place is refused, not dropped
    last = 2 * fable_result.doc.tokens()[-1].index + 1

    def script(at):
        return ProsodicScript([ScriptItem(ev(slnc=100), bi=BreakIndex.BI2, at=at)])

    assert render(fable_result.doc, script(last)).endswith(last_piece + "\n")
    with pytest.raises(ValueError, match="past the document's last token"):
        render(fable_result.doc, script(last + 1))


def test_markup_strip_reproduces_tokens(fable_result):
    markup = render_markup(fable_result.doc, fable_result.script)
    stripped = " ".join(strip_markup(markup).split())
    tokens = " ".join(t.surface for t in fable_result.doc.tokens())
    assert stripped == " ".join(tokens.split())


def test_tobi_fox_first_line(fox_result):
    tobi = render_tobi(fox_result.doc, fox_result.script)
    lines = tobi.splitlines()
    assert lines[1] == ("What a noble bird I see BI-3 above me BI-22 "
                        "H*-H-1 ! BI-2 H-!H*-1")


def test_tobi_makes_no_call_into_enum(fox_result):
    # each printed break index reads its label off the member
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        tobi = render_tobi(fox_result.doc, fox_result.script)
    finally:
        sys.setprofile(None)
    assert "BI-3" in tobi
    assert calls == []


def test_tobi_prints_a_merged_token_on_one_line(config):
    # the markup keeps the surface; ToBI prints its inner whitespace as one space
    res = run_pipeline("The mice met long\n\tago.", None, config)
    assert "long\n\tago" in render_markup(res.doc, res.script)
    assert render_tobi(res.doc, res.script) == "H*-H The mice met H*-L% long ago BI-3 .\n"


def test_tobi_empty_document(config):
    from prosomark.ingest import Document
    assert render_tobi(Document(), ProsodicScript()) == ""


def test_tobi_labels_parse_back(fox_result, fable_result):
    """Oracle: an independent label parser accepts every printed label."""
    bi_labels = {bi.label for bi in BI_REALIZATION}

    def parses(token: str) -> bool:
        return token in bi_labels or is_contour_label(token)

    for res in (fox_result, fable_result):
        tobi = render_tobi(res.doc, res.script)
        tobi = re.sub(r"\[\[inpt PHON\]\].*?\[\[inpt TEXT\]\]", "w", tobi)
        tobi = tobi.replace("[[rset 0]]", "w")
        surfaces = {t.surface for t in res.doc.tokens()}
        for tok in tobi.split():
            if tok in surfaces or tok.startswith("[["):
                continue
            if any(ch.islower() for ch in tok):
                continue  # plain words
            if tok in ("!", "?", ".", ",", ";", ":", '"', "w"):
                continue
            assert parses(tok), tok
