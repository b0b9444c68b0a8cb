"""Tests for the benchmark itself: seeded inputs, sidecar tiling, tracing."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import pytest  # noqa: E402

import prosomark  # noqa: E402
import prosomark.ingest  # noqa: E402
import prosomark.pipeline  # noqa: E402
from prosomark import Config, parse_sidecar, tokenize  # noqa: E402
from prosomark.lexica import data_path  # noqa: E402

import hostclock  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def fx():
    return wl.Fixtures.load(data_path("fixtures"))


@pytest.fixture(scope="module")
def multiwords():
    return Config().load_lexica().multiwords


def test_same_seed_same_inputs(fx, multiwords):
    assert wl.story_shallow(7, 2, fx, target=2000) == wl.story_shallow(7, 2, fx, target=2000)
    assert wl.story_shallow(7, 2, fx, target=2000) != wl.story_shallow(8, 2, fx, target=2000)
    assert (wl.story_sidecar(7, 0, fx, multiwords, target=2000)
            == wl.story_sidecar(7, 0, fx, multiwords, target=2000))
    batch = [wl.cli_doc(7, i, fx) for i in range(60)]
    assert batch == [wl.cli_doc(7, i, fx) for i in range(60)]
    assert batch != [wl.cli_doc(8, i, fx) for i in range(60)]


def test_story_size_and_cli_mix(fx):
    doc = wl.story_shallow(3, 0, fx, target=4000)
    assert 4000 <= doc.tokens < 4400
    assert doc.text.count("\n\n") > 20 and doc.text.count('"') > 10
    docs = [wl.cli_doc(3, i, fx) for i in range(wl.GOLDEN_BLOCK + 4)]
    goldens = [d.golden_name for d in docs if d.golden_name]
    assert goldens == [g[4] for g in wl.GOLDENS] * 2
    assert {d.emit for d in docs} == set(wl.EMIT_MODES)
    assert any("Come on, dear" in (d.text or "") for d in docs)


def test_tiled_sidecar_aligns_with_tiled_text(fx, multiwords):
    def clause_words(text, ann):
        toks = tokenize(text, multiwords)
        return [(c.pred, tuple(t.surface for t in toks[ann.clause_spans[c.clause_no][0]:
                                                      ann.clause_spans[c.clause_no][1] + 1]))
                for c in ann.clauses]

    originals = set(clause_words(fx.fable, parse_sidecar(fx.fable_ann))
                    + clause_words(fx.fox, parse_sidecar(fx.fox_ann)))
    doc = wl.story_sidecar(5, 0, fx, multiwords, target=1500)
    ann = parse_sidecar(doc.sidecar)
    tiled = clause_words(doc.text, ann)
    assert len(tiled) > 50 and set(tiled) <= originals
    numbers = {c.clause_no for c in ann.clauses}
    assert numbers == set(range(1, len(numbers) + 1))
    for node in ann.nodes:
        assert node.attach[1] == node.clause_no
        assert node.attach[0] is None or node.attach[0] in numbers
    assert len({n.sent_id for n in ann.nodes}) > len(parse_sidecar(fx.fable_ann).nodes)


def test_renumber_sidecar_shifts_spans_and_clauses(fx):
    lines = wl.renumber_sidecar(fx.fox_ann, copy=2, token_offset=100, clause_offset=40)
    assert lines[0].split("\t")[1] == "41"
    assert lines[0].split("\t")[-1] == "100-102"
    disc = [ln.split("\t") for ln in lines if ln.startswith("DISC")]
    assert disc[0][1:] == ["f_0.2", "41", "up", "nil-41"]
    assert disc[1][4] == "41-42"


def test_self_times_subtract_covered_child_time():
    spans = [["p", 0.0, 10.0, -1, 0],
             ["a", 1.0, 3.0, 0, 0],
             ["b", 2.0, 4.0, 0, 0],      # overlaps a: the union counts once
             ["c", 5.0, 6.0, 0, 0],
             ["g", 1.5, 2.5, 1, 0]]
    assert tr.self_times(spans) == [6.0, 1.0, 2.0, 1.0, 1.0]


def test_tracer_spans_nest_and_originals_come_back(fx):
    ticks = iter(range(1_000_000))
    cfg = Config().load_lexica()
    original = prosomark.ingest.tokenize
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    with tracer:
        assert prosomark.pipeline.tokenize is not original
        tracer.doc = "d"
        res = prosomark.run_pipeline(fx.fox, fx.fox_ann, cfg)
        prosomark.render_markup(res.doc, res.script)
    assert prosomark.ingest.tokenize is original
    assert prosomark.pipeline.tokenize is original
    assert tracer.absent == []
    names = {s[tr.NAME] for s in tracer.spans}
    assert {"pipeline.run_pipeline", "pipeline.process", "ingest.tokenize",
            "annotations.parse_sidecar", "phrasing.segment", "emit.render_markup"} <= names
    own = tr.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s[tr.PARENT] < 0]
    assert sum(own) == sum(s[tr.END] - s[tr.START] for s in roots)
    assert all(t >= 0 for t in own)
    assert tracer.counts["prosody.select_tone.calls"] > 0
    assert tracer.counts["annotations.clauses_scanned"] > 0


def test_tracer_reports_missing_names_as_absent():
    layers = (tr.Layer("gone.fn", "prosomark.ingest", "no_such_function"),
              tr.Layer("gone.method", "prosomark.annotations", "AnnotationSet.gone"),
              tr.Layer("ingest.tokenize", "prosomark.ingest", "tokenize"))
    with tr.Tracer(layers) as tracer:
        prosomark.ingest.tokenize("A cat.")
    assert tracer.absent == ["gone.fn", "gone.method"]
    assert tracer.counts["ingest.tokenize.calls"] == 1


def test_ladder_plan_is_process_minus_its_stages():
    spans = [["pipeline.run_pipeline", 0.0, 20.0, -1, "x"],
             ["annotations.parse_sidecar", 0.0, 2.0, 0, "x"],
             ["pipeline.process", 2.0, 20.0, 0, "x"],
             ["ingest.tokenize", 2.0, 3.0, 2, "x"],
             ["phrasing.segment", 3.0, 8.0, 2, "x"],
             ["annotations.clause_at", 4.0, 5.0, 4, "x"],
             ["annotations.clause_at", 9.0, 10.0, 2, "x"],
             ["emit.render_markup", 20.0, 21.0, -1, "x"],
             ["emit.render_markup", 0.0, 50.0, -1, "other"]]
    stages = run.ladder_stages(spans, "x", wall=22.0)
    assert stages["analyze"] == 2.0 and stages["tokenize"] == 1.0
    assert stages["segment"] == 5.0 and stages["render"] == 1.0
    assert stages["plan"] == 18.0 - 1.0 - 5.0
    assert stages["total"] == 22.0


def test_tail_percentile():
    assert run.tail([3.0]) == (3.0, 100.0)
    assert run.tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0)
    assert run.tail([float(i) for i in range(1, 22)]) == (11.0, 100 * 11 / 21)
    xs = [float(i) for i in range(1, 101)]
    assert run.tail(xs) == (90.0, 90.0)
    xs = [float(i) for i in range(1, 5001)]
    assert run.tail(xs) == (4950.0, 99.0)


def test_host_speed_uses_slices_inside_or_nearest_around():
    ref = hostclock.REF_SLICE_S
    assert hostclock.speed_of([ref, ref / 2]) == 1.5
    clock = hostclock.HostClock()
    clock.times = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0]
    clock.slices = [ref, ref / 2, ref / 4, ref, ref, ref / 8]
    assert clock.speed(0.5, 2.5) == 3.0                 # the two inside
    assert clock.speed(2.2, 2.3) == 2.5                 # 2.0 and 3.0, within 1 s
    assert clock.speed(9.5, 9.6) == 8.0                 # only 10.0 is near
    with pytest.raises(RuntimeError):
        clock.speed(6.0, 6.5)
