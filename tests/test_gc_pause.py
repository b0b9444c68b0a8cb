"""``run_pipeline`` pauses the cyclic garbage collector, and why it may.

A compile makes no reference cycles, so the collector's passes during one
free nothing; ``run_pipeline`` runs with the collector paused and leaves
it as it found it, on every way out and across threads.
"""

import gc
import importlib
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from prosomark.annotations import IntegrityError, SidecarError
from prosomark.emit import render_markup, render_tobi
from prosomark.lexica import data_path
from prosomark import pipeline
from prosomark.pipeline import run_pipeline

from conftest import load
from test_properties import _GAPS, _PHRASES, _PIECES


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's story generators and the fixtures they tile."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        wl = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    return wl, wl.Fixtures.load(data_path("fixtures"))


def _property_texts() -> list[str]:
    """Edge cases, and texts drawn (seeded) from the pieces and lexicon
    phrases of ``test_properties.texts``."""
    rng = random.Random(9)
    texts = ["", ":", '" :', "?\n?", 'He said "hi.', "The mice met long\n\nago the cat ran."]
    texts += ["".join(rng.choices(_PIECES, k=40)) for _ in range(4)]
    texts += ["".join(w + rng.choice(_GAPS) for p in rng.choices(_PHRASES, k=8) for w in p)
              for _ in range(2)]
    return texts


def test_a_compile_makes_no_reference_cycles(config, workloads):
    wl, fx = workloads
    cases = {}
    for name in ("belling_cat", "fox_crow"):
        cases[name] = (load(f"{name}.txt"), None)
        cases[f"{name}+ann"] = (load(f"{name}.txt"), load(f"{name}.ann"))
    cases["story_shallow:4k"] = (wl.story_shallow(1, 0, fx, 4000).text, None)
    doc = wl.story_sidecar(1, 0, fx, config.multiwords, 4000)
    cases["story_sidecar:4k"] = (doc.text, doc.sidecar)
    cases.update((f"property:{k}", (text, None)) for k, text in enumerate(_property_texts()))

    found = {}
    gc.collect()
    gc.disable()
    try:
        for name, (text, sidecar) in cases.items():
            res = run_pipeline(text, sidecar, config)
            render_markup(res.doc, res.script)
            render_tobi(res.doc, res.script)
            res.groups_text()
            del res
            found[name] = gc.collect()
    finally:
        gc.enable()
    assert {name: n for name, n in found.items() if n} == {}


def test_run_pipeline_runs_no_collector_pass(config, workloads):
    wl, fx = workloads
    docs = [wl.story_sidecar(1, 0, fx, config.multiwords, 4000), wl.story_shallow(1, 0, fx, 4000)]
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    # Once the collector resumes, the compile's surviving objects make a
    # pass due at the next allocation, so the window closes first.  It runs
    # untraced: a tracer's calls (the line census's) allocate.
    assert gc.isenabled()
    tracer = sys.gettrace()
    for doc in docs:
        gc.collect()            # no pass is due when the compile begins
        gc.callbacks.append(count)
        sys.settrace(None)
        try:
            run_pipeline(doc.text, doc.sidecar, config)
        finally:
            gc.callbacks.remove(count)
            sys.settrace(tracer)
    assert passes == []


_CLAUSE = ("CLAUSE\t1\tmain/prop\texternal\tfactive\tnull\tbackground"
           "\tactivity\trun\tpres\tnarration\tobjective\t{span}\n")

#: a sidecar and the error it raises: a malformed line and a clause span
#: past the text's end (``SidecarError``), a topic of a missing clause
RAISING = [(_CLAUSE.format(span="0-1") + "CLAUSE\t2\tbroken\n", SidecarError),
           (_CLAUSE.format(span="0-9"), SidecarError),
           (_CLAUSE.format(span="0-1") + "TOPIC\tpoten\t99\tcat\tid1\t3,nil,nil\tobject\ttheme\n",
            IntegrityError)]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collector_is_restored_on_every_exit(config, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        run_pipeline("The cat ran.", None, config)
        assert gc.isenabled() is enabled
        for sidecar, error in RAISING:
            with pytest.raises(error):
                run_pipeline("The cat ran.", sidecar, config)
            assert gc.isenabled() is enabled, sidecar
    finally:
        gc.enable()


class _Switching:
    """The ``gc`` module, switching threads around each call."""

    def __getattr__(self, name):
        call = getattr(gc, name)

        def switching(*args):
            time.sleep(0)
            result = call(*args)
            time.sleep(0)
            return result
        return switching


def test_threads_share_the_pause(config, monkeypatch):
    # a thread switch falls between every two calls of a pause, such as
    # reading the collector's state and disabling it
    monkeypatch.setattr(pipeline, "gc", _Switching())
    texts = [load("belling_cat.txt"), load("fox_crow.txt")] + _property_texts()
    start = threading.Barrier(6)
    done = []

    def worker(k):
        start.wait(timeout=60)
        for text in texts * 3:
            run_pipeline(text, None, config)
        done.append(k)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == list(range(6))
    assert gc.isenabled()


def _run_inside_a_compile(monkeypatch, config, action):
    """Compile a text with ``action`` called inside the pause, from the
    sidecar parse."""
    parse = pipeline.parse_sidecar
    monkeypatch.setattr(pipeline, "parse_sidecar", lambda text: action() or parse(text))
    run_pipeline("The cat ran.", "", config)


def test_a_compile_that_ends_inside_another_keeps_the_pause(config, monkeypatch):
    # only the last compile to end restores the collector
    inside = []

    def inner_compile():
        run_pipeline("The dog sat.", None, config)
        inside.append(gc.isenabled())

    gc.enable()
    try:
        _run_inside_a_compile(monkeypatch, config, inner_compile)
        assert (inside, gc.isenabled()) == ([False], True)
    finally:
        gc.enable()


def test_a_collector_enabled_during_a_compile_is_disabled_again(config, monkeypatch):
    # the caller disabled the collector, and finds it disabled afterwards
    gc.disable()
    try:
        _run_inside_a_compile(monkeypatch, config, gc.enable)
        assert not gc.isenabled()
    finally:
        gc.enable()
