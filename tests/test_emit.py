"""Mapping table conversions and the two renderers."""

import dataclasses
import re

import pytest

from prosomark.emit import (DEFAULT_TABLE, ProsodicScript, bi_to_params,
                            format_event, params_to_bi, params_to_tobi,
                            render_markup, render_tobi, strip_markup,
                            tone_to_params)
from prosomark.prosody import (BI_REALIZATION, RSET, BreakIndex, ToneContext, ev,
                               select_tone)
from conftest import is_contour_label


def _contour(row_id, i=0):
    return DEFAULT_TABLE.row(row_id).contours[i]


# tone_to_params ---------------------------------------------------------------

def test_title_row():
    params = tone_to_params(_contour("title"))
    assert params == [ev(pbas=38.0, rate=160, volm=+0.5)]


def test_default_tone_is_the_title_row():
    assert tone_to_params(select_tone(ToneContext())) == \
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


def test_every_fixture_event_comes_from_the_table(fable_result, fox_result,
                                                  fox_nopov_result):
    # each event is a row's parameter event, a break index's silence or
    # reset, or a silence without reset fused in front of a row event; a
    # labelled event opens the tuple of a row contour with that label
    row_events = {e for row in DEFAULT_TABLE.rows for tup in row.params for e in tup}
    breaks = {ev(slnc=ms) for ms, _ in BI_REALIZATION.values()} | {RSET}
    fused = {dataclasses.replace(e, slnc=ms) for e in row_events if e.pbas is not None
             for ms, reset in BI_REALIZATION.values() if not reset}
    openings = {(c.label, row.params[i][0])
                for row in DEFAULT_TABLE.rows for i, c in enumerate(row.contours)}
    for res in (fable_result, fox_result, fox_nopov_result):
        events = [it for it in res.script.items if it.kind == "event"]
        assert events
        for it in events:
            assert it.event in row_events | breaks | fused, it.event
            if it.bi is not None:
                assert it.event.slnc == BI_REALIZATION[it.bi][0], it
            if it.tone_label is not None:
                opening = dataclasses.replace(it.event, slnc=None)
                assert (it.tone_label, opening) in openings, it


def test_unknown_tuple_placeholder():
    out = params_to_tobi([ev(pbas=99.0, rate=999, volm=+9.9)])
    assert out == [("X-?", None)]


def test_bi_bijection_all_eight():
    seen = set()
    for bi, (silence, reset) in BI_REALIZATION.items():
        events = bi_to_params(bi)
        assert events[0].slnc == silence
        assert (len(events) == 2) == reset
        assert params_to_bi(events) == bi
        seen.add((silence, reset))
    assert len(seen) == 8  # distinct realizations, hence a bijection


# Event formatting --------------------------------------------------------------

def test_format_plain_event():
    assert format_event(ev(pbas=38.0, rate=160, volm=+0.5)) == \
        "[[pbas 38.000; rate 160; volm +0.5]]"


def test_format_negative_volume():
    assert format_event(ev(pbas=36.0, rate=110, volm=-0.2)) == \
        "[[pbas 36.000; rate 110; volm -0.2]]"


def test_format_fused_silence_first():
    assert format_event(ev(slnc=300, pbas=54.0, rate=170, volm=+0.3)) == \
        "[[slnc 300; pbas 54.000; rate 170; volm +0.3]]"


def test_format_rate_only():
    assert format_event(ev(rate=130, volm=+0.5)) == "[[rate 130; volm +0.5]]"


def test_format_reset():
    assert format_event(RSET) == "[[rset 0]]"


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


def test_markup_validation_refuses_bad_script(fable_result):
    script = ProsodicScript()
    script.add_event(ev(slnc=200), bi=BreakIndex.BI3)  # missing its reset
    with pytest.raises(ValueError):
        render_markup(fable_result.doc, script)


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
