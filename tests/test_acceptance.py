"""Acceptance suite: one test per shipped criterion, exact tolerances.

Each test prints a PASS line so the suite doubles as a checklist when run
with ``pytest -s tests/test_acceptance.py``.
"""

import copy
import random
import re
import time

from prosomark.annotations import classify_relevance, fold_topics, parse_sidecar
from prosomark.config import Config
from prosomark.docindex import DocIndex
from prosomark.emit import (DEFAULT_TABLE, bi_to_params, params_to_bi,
                            params_to_tobi, render_markup, render_tobi,
                            tone_to_params)
from prosomark.ingest import split_document, tokenize
from prosomark.annotations import TopicRecord, TopicStack, update_topic_stack, shallow_analyze
from prosomark.phrasing import segment
from prosomark.pipeline import run_pipeline
from prosomark.prosody import BI_REALIZATION, BreakIndex, ev
from conftest import load


def report(name):
    print(f"PASS: {name}")


def test_criterion_1_breath_group_reproduction(fable_result):
    """Table-style decomposition reproduced exactly, in under a second."""
    start = time.monotonic()
    produced = fable_result.groups_text()
    elapsed = time.monotonic() - start
    assert produced == load("belling_cat.groups.golden")
    cfg = Config().load_lexica()
    t0 = time.monotonic()
    res = run_pipeline(load("belling_cat.txt"), load("belling_cat.ann"), cfg)
    assert res.groups_text() == load("belling_cat.groups.golden")
    assert time.monotonic() - t0 < 1.0
    report("criterion 1: breath groups reproduce the decomposition exactly")


def test_criterion_2_markup_reproduction(fable_result):
    """Byte-for-byte markup against the canonical golden file, whose
    documented deviations from the source fragment number at most 15."""
    produced = render_markup(fable_result.doc, fable_result.script)
    assert produced == load("belling_cat.markup.golden")
    notes = load("deviations.md")
    listed = re.findall(r"^\d+\.", notes, flags=re.M)
    assert 1 <= len(listed) <= 15
    report(f"criterion 2: markup byte-exact; {len(listed)} documented deviations")


def test_criterion_3_bi_mapping_bijective():
    expected = {
        BreakIndex.BI4: (300, True), BreakIndex.BI3: (200, True),
        BreakIndex.BI2: (100, False), BreakIndex.BI32: (30, True),
        BreakIndex.BI33: (50, True), BreakIndex.BI23: (100, True),
        BreakIndex.BI22: (300, False), BreakIndex.BI44: (400, False),
    }
    assert BI_REALIZATION == expected
    realizations = set()
    for bi, (silence, reset) in expected.items():
        events = bi_to_params(bi)
        assert events[0].slnc == silence and (len(events) == 2) == reset
        assert params_to_bi(events) == bi
        realizations.add((silence, reset))
    assert len(realizations) == 8
    report("criterion 3: all 8 break indices round-trip exactly")


def test_criterion_4_tone_table_fidelity():
    for row in DEFAULT_TABLE.rows:
        for i, c in enumerate(row.contours):
            got = tone_to_params(c)
            want = list(row.params[i])
            if i == len(row.contours) - 1 and row.bi is not None:
                silence, reset = BI_REALIZATION[row.bi]
                want = want + bi_to_params(row.bi)
            assert got == want, (row.row_id, c.label)
        inverted = params_to_tobi(row.flat_params())
        labels = " ".join(c.label for c in row.contours)
        assert inverted == [(labels, row.bi.label if row.bi else None)], row.row_id
    report(f"criterion 4: all {len(DEFAULT_TABLE.rows)} tone rows exact and invertible")


def test_criterion_5_relevance_rule():
    ann = parse_sidecar(load("edge_prop.ann"))
    rows = [c for c in ann.clauses if c.clause_no != 29]
    assert len(rows) == 18
    hits = 0
    for c in rows:
        blind = copy.copy(c)
        blind.relevance = None
        hits += classify_relevance(blind) == c.relevance
    assert hits == 18
    report("criterion 5: relevance column reproduced 18/18")


def test_criterion_6_direct_speech_downstep(fox_result, fox_nopov_result):
    tobi = render_tobi(fox_result.doc, fox_result.script)
    assert tobi == load("fox_crow.tobi.golden")
    lines = tobi.splitlines()
    assert "H*-H-1" in lines[1]
    assert lines[1].endswith("H-!H*-1")        # continuation announced
    assert lines[2].endswith("H-!H*-1")
    contrast = render_tobi(fox_nopov_result.doc, fox_nopov_result.script)
    assert contrast == load("fox_crow_nopov.tobi.golden")
    c_lines = contrast.splitlines()
    assert c_lines[1].endswith("!")
    assert not c_lines[2].endswith("H-!H*-1")
    report("criterion 6: downstepped continuations present, absent without POV")


def test_criterion_7_frozen_expression(config):
    cfg = Config().load_lexica()
    cfg.title_mode = "off"
    res = run_pipeline("Come on, baby", None, cfg)
    events = [it.event for it in res.script.items]
    from prosomark.prosody import RSET
    assert events == [
        ev(pbas=57.0, rate=170, volm=+0.5),
        ev(pbas=36.0, rate=170, volm=+0.5),
        ev(pbas=24.0, rate=130, volm=+0.5),
        ev(pbas=60.0, rate=150, volm=+0.5),
        ev(slnc=100),
        RSET,
    ]
    labels = [it.tone_label for it in res.script.items if it.tone_label]
    assert labels == ["H*+L-", "!L+H*%"]
    report("criterion 7: exhortative five-event sequence exact")


def test_criterion_8_topic_stack():
    ann = parse_sidecar(load("edge_prop.ann"))
    states = fold_topics(ann)
    assert states[3].main == "id2"
    assert states[15].main == "id2"
    assert states[15].persistence["id7"] == 2
    body_mentions = [t for t in ann.topics if t.semantic_id == "id7"]
    assert len(body_mentions) == 2
    rng = random.Random(2025)
    ids = [f"id{i}" for i in range(1, 10)]
    for _ in range(1000):
        stack = TopicStack()
        for clause_no in range(1, rng.randint(2, 10)):
            mentions = [TopicRecord("poten", clause_no, f"w{s}", s)
                        for s in rng.sample(ids, rng.randint(1, 4))]
            stack = update_topic_stack(stack, mentions)
            slots = stack.slots()
            assert len(slots) == len(set(slots))
    report("criterion 8: topic stack promotions and uniqueness hold")


def test_criterion_9_invariant_suite(fable_result, fox_result):
    start = time.monotonic()

    # silence/reset pairing on both fixtures
    for res in (fable_result, fox_result):
        assert res.script.validate() == []
        markup = render_markup(res.doc, res.script)
        for m in re.finditer(r"\[\[slnc (\d+)\]\](,\[\[rset 0\]\])?", markup):
            silence, reset = int(m.group(1)), bool(m.group(2))
            if silence in (30, 50, 200):
                assert reset
            if silence == 400:
                assert not reset

    # breath-group partition on fixtures
    for res in (fable_result, fox_result):
        for sent in res.doc.sentences:
            if sent.is_title:
                continue
            words = [i for i, t in enumerate(sent.tokens) if t.kind == "word"]
            covered = []
            for g in res.groups[sent.index]:
                covered.extend(i for i in g.positions()
                               if sent.tokens[i].kind == "word")
            assert covered == words

    # select_tone totality
    import itertools
    from prosomark.prosody import ToneContext, select_tone
    for pos, move, rel, affect in itertools.product(
            ("sentence_initial", "sentence_internal", "group_final"),
            ("root", "up", "down", "level"),
            ("foreground", "background"),
            ("neutral", "sad", "exclaim", "exhort")):
        assert select_tone(ToneContext(position=pos, move=move,
                                       relevance=rel, affect=affect)).label

    # 500 random synthetic sentences: partition + deterministic output
    rng = random.Random(31337)
    vocab = ("the a cat dog mouse bird old small said saw ran came and but "
             "or while when if because nobody all some every to of in her "
             "his very now then sly impossible one council bell").split()
    cfg = Config().load_lexica()
    cfg.title_mode = "off"
    for _ in range(500):
        n = rng.randint(1, 14)
        body = []
        for i in range(n):
            body.append(rng.choice(vocab))
            if i < n - 1 and rng.random() < 0.12:
                body.append(",")
        text = " ".join(body).replace(" ,", ",") + rng.choice([".", "?", "!"])
        if rng.random() < 0.2:
            text = '"' + text + '"'
        doc = split_document(tokenize(text, cfg.multiwords), text, "off")
        ix = DocIndex(doc, shallow_analyze(doc))
        for sent in doc.sentences:
            groups = segment(sent, ix, cfg)
            words = [i for i, t in enumerate(sent.tokens) if t.kind == "word"]
            covered = []
            for g in groups:
                covered.extend(i for i in g.positions()
                               if sent.tokens[i].kind == "word")
            assert covered == words, text

    # byte-identical across three runs
    outputs = set()
    for _ in range(3):
        cfg = Config().load_lexica()
        res = run_pipeline(load("belling_cat.txt"), load("belling_cat.ann"), cfg)
        outputs.add(render_markup(res.doc, res.script)
                    + render_tobi(res.doc, res.script) + res.groups_text())
    assert len(outputs) == 1

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(f"criterion 9: invariant suite green in {elapsed:.1f}s")
