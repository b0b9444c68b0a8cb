"""End-to-end and per-layer benchmark for the prosomark compiler.

Usage, from the root of a checkout (Python 3.10+, standard library only):

    python3 bench/run.py --workload story_shallow --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one caller, one process; see ``workloads.py``):
``story_shallow``, ``story_sidecar`` and ``cli_batch``.  The compiler is
driven only through ``prosomark.run_pipeline`` with the three renderers and
``prosomark.cli.run``, always looked up on the module at call time so the
tracer's wrappers are seen.  A run lasts about ``--seconds`` of wall time.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import plus
``Config().load_lexica()`` timed inside fresh interpreters spread over the
run, median), ``tokens_per_s`` (median over documents of raw input tokens
per second of compile), ``doc_ms_p50`` and ``doc_ms_tail`` (per-document
latency; see ``tail``) and ``peak_rss_mb`` (a fresh process compiling the
run's first documents).  A document's compile time is the faster of two
compiles (see ``measure``).  The failed fraction is ``failed`` /
``attempted``.  Every time in these metrics is wall time rescaled to a
fixed reference host speed (see ``hostclock``), because the speed of a
shared host swings by a third within a minute; the wall-time figures and
the host's speed are printed on a line of their own.

``--trace 1`` runs the same loop, then compiles its documents again,
untraced and traced in alternation, and reports per-layer times and counts
per document, the tracing overhead, and a 1k/4k/16k-token size ladder for
both story generators.  Spans and a report giving every ratio's base are
written to ``bench/out/``.

Every output is checked outside the timed region (script validity,
breath-group partition, markup round trip, repeat-compile byte identity,
golden bytes); a failing document is counted, not fatal.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
compiler sources under ``src/`` the run exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("story_shallow", "story_sidecar", "cli_batch")
STORIES = ("story_shallow", "story_sidecar")
LADDER = (("1k", 1000), ("4k", 4000), ("16k", 16000))
LADDER_STAGES = ("tokenize", "split", "analyze", "segment", "pov", "plan", "render", "total")
MIN_DOCS = 3
SETUP_RUNS = 21
PROBE_DOCS = {"story_shallow": 1, "story_sidecar": 1, "cli_batch": 100}
TAIL_CAP = 99.0
CHILD_TIMEOUT = 170

SETUP_CODE = """\
import time
import hostclock
slices = [hostclock.reference_slice() for _ in range(3)]
t = time.perf_counter()
import prosomark
prosomark.Config().load_lexica()
wall = time.perf_counter() - t
slices += [hostclock.reference_slice() for _ in range(3)]
print(wall * hostclock.speed_of(slices), wall)
"""


def _load_program():
    """Put this checkout's ``src`` first on the path and import the compiler."""
    if not (SRC / "prosomark" / "__init__.py").is_file():
        raise RuntimeError(f"no compiler sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prosomark
    import prosomark.cli
    if SRC.resolve() not in Path(prosomark.__file__).resolve().parents:
        raise RuntimeError(f"imported prosomark from {prosomark.__file__}, not {SRC}")
    return prosomark


# Runners: prepare (untimed) -> execute (timed) -> collect (untimed) -------------

@dataclass
class Record:
    index: int | str
    tokens: int
    seconds: float
    digest: str | None
    problems: list[str] = field(default_factory=list)
    start: float = 0.0  # perf_counter at the compile's start and end
    end: float = 0.0
    wall: float = 0.0   # wall seconds, before any host-speed rescaling


class StoryRunner:
    """Library path: ``run_pipeline`` plus markup, ToBI and groups output."""

    def __init__(self, pm, cfg):
        self.pm, self.cfg = pm, cfg

    def prepare(self, doc):
        return doc

    def execute(self, doc):
        pm = self.pm
        res = pm.run_pipeline(doc.text, doc.sidecar, self.cfg)
        return res, (pm.render_markup(res.doc, res.script),
                     pm.render_tobi(res.doc, res.script), res.groups_text())

    def collect(self, doc, raw, full=True):
        import checks
        res, outputs = raw
        problems = checks.result_problems(res, outputs[0]) if full else []
        return checks.digest(*outputs), problems


class CliRunner:
    """``prosomark.cli.run`` in-process, ``--out`` into a temporary directory."""

    def __init__(self, pm, fx, workdir: Path):
        import workloads as wl
        from prosomark.config import parse_config_file
        self.pm, self.fx = pm, fx
        self.input = workdir / "input.txt"
        self.output = workdir / "output.txt"
        self.sink = io.StringIO()
        self.configs = {None: pm.Config().load_lexica()}
        for name in {g[2] for g in wl.GOLDENS if g[2]}:
            self.configs[name] = parse_config_file(fx.directory / name).load_lexica()

    def prepare(self, doc):
        fxdir = self.fx.directory
        if doc.text is not None:
            self.input.write_text(doc.text, encoding="utf-8")
            argv = [str(self.input)]
        else:
            argv = [str(fxdir / doc.input_name)]
        argv += ["--emit", doc.emit, "--out", str(self.output)]
        for flag, name in (("--sidecar", doc.sidecar_name), ("--config", doc.config_name),
                           ("--check", doc.golden_name)):
            if name:
                argv += [flag, str(fxdir / name)]
        if self.output.exists():
            self.output.unlink()
        self.sink.seek(0)
        self.sink.truncate()
        return argv

    def execute(self, argv):
        with contextlib.redirect_stderr(self.sink):
            return self.pm.cli.run(argv)

    def collect(self, doc, code, full=True):
        import checks
        problems = [] if code == 0 else [f"exit code {code}: {self.sink.getvalue().strip()}"]
        produced = self.output.read_text(encoding="utf-8") if self.output.exists() else ""
        if not full:
            return checks.digest(str(code), produced), problems
        fxdir = self.fx.directory
        text = doc.text if doc.text is not None else \
            (fxdir / doc.input_name).read_text(encoding="utf-8")
        sidecar = (fxdir / doc.sidecar_name).read_text(encoding="utf-8") \
            if doc.sidecar_name else None
        res = self.pm.run_pipeline(text, sidecar, self.configs[doc.config_name])
        expected = checks.render(res, doc.emit)
        if produced != expected:
            problems.append("cli output differs from a repeat library compile")
        problems += checks.result_problems(res, self.pm.render_markup(res.doc, res.script))
        if doc.golden_name:
            golden = (fxdir / doc.golden_name).read_text(encoding="utf-8")
            if produced != golden:
                problems.append(f"output differs from {doc.golden_name}")
        return checks.digest(str(code), produced), problems


def make_docs(workload, seed, fx, cfg, target=None):
    """Document ``i`` of a workload's stream; ``target`` resizes stories."""
    import workloads as wl
    target = target or wl.STORY_TOKENS
    if workload == "story_shallow":
        return lambda i: wl.story_shallow(seed, i, fx, target)
    if workload == "story_sidecar":
        return lambda i: wl.story_sidecar(seed, i, fx, cfg.multiwords, target)
    return lambda i: wl.cli_doc(seed, i, fx)


def make_runner(workload, pm, fx, cfg, workdir):
    return CliRunner(pm, fx, workdir) if workload == "cli_batch" else StoryRunner(pm, cfg)


def run_one(runner, index, doc, tracer=None, full=True, clock=None) -> Record:
    """Compile one document.  Its ``seconds`` leave out the time a host
    clock's reference slices took, if any fired during the compile."""
    job = runner.prepare(doc)
    if tracer is not None:
        tracer.doc = index
    stolen = clock.stolen if clock is not None else 0.0
    t0 = time.perf_counter()
    try:
        raw = runner.execute(job)
        error = None
    except Exception as exc:  # a crashing document is counted, not fatal
        raw, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    dt = t1 - t0 - (clock.stolen - stolen if clock is not None else 0.0)
    if tracer is not None:
        tracer.doc = None
    if error is not None:
        return Record(index, doc.tokens, dt, None, [error], t0, t1, dt)
    digest, problems = runner.collect(doc, raw, full)
    return Record(index, doc.tokens, dt, digest, problems, t0, t1, dt)


def measure(runner, make_doc, seconds, between=None, clock=None):
    """Closed loop in two passes.

    The first pass compiles and checks fresh documents for half of
    ``seconds`` of wall time (and at least ``MIN_DOCS`` documents); the
    second compiles the same documents again, which must give the same
    bytes.  A document's time is the faster of its two compiles, so a slow
    spell of a shared host has to cover both to set it.  With a running
    ``clock`` each compile's time is first rescaled to the reference host
    speed (see ``hostclock``).  ``between(elapsed)`` runs after each
    compile, outside the timed region.
    """
    docs, records = [], []
    start = time.perf_counter()

    def tick():
        if between is not None:
            between(time.perf_counter() - start)

    while time.perf_counter() - start < seconds / 2 or len(records) < MIN_DOCS:
        docs.append(make_doc(len(docs)))
        records.append(run_one(runner, len(records), docs[-1], clock=clock))
        tick()
    repeats = []
    for rec, doc in zip(records, docs):
        repeats.append(run_one(runner, rec.index, doc, full=False, clock=clock))
        tick()
    if clock is not None:
        clock.sample()
        for r in records + repeats:
            r.seconds *= clock.speed(r.start, r.end)
    for rec, again in zip(records, repeats):
        if rec.digest is not None and again.digest != rec.digest:
            rec.problems.append("a repeat compile gave different output")
        rec.seconds = min(rec.seconds, again.seconds)
        rec.wall = min(rec.wall, again.wall)
    return docs, records


# Fresh-process measurements ---------------------------------------------------

def setup_once() -> tuple[float, float]:
    """Import plus lexicon load, timed inside a fresh interpreter: (seconds
    at the reference host speed, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()}")
    ref, wall = proc.stdout.split()[-2:]
    return float(ref), float(wall)


def run_probe(workload, docs, workdir: Path) -> dict:
    """Compile ``docs`` in a fresh process: its peak RSS and output digests."""
    job = workdir / "probe.json"
    job.write_text(json.dumps({"workload": workload, "workdir": str(workdir),
                               "docs": [asdict(d) for d in docs]}), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--probe", str(job)],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def probe_main(job_path: str) -> int:
    pm = _load_program()
    import workloads as wl
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    workload = job["workload"]
    fx = wl.Fixtures.load(SRC / "prosomark" / "data" / "fixtures")
    cfg = pm.Config().load_lexica()
    runner = make_runner(workload, pm, fx, cfg, Path(job["workdir"]))
    kind = wl.CliDoc if workload == "cli_batch" else wl.StoryDoc
    digests = []
    for doc in (kind(**d) for d in job["docs"]):
        digests.append(runner.collect(doc, runner.execute(runner.prepare(doc)), full=False)[0])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "digests": digests}))
    return 0


# Statistics -------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, capped at p99 so it stays put once a run has 1000 samples.
    With fewer samples, just under half of them stay beyond it, so a run of
    a few long documents does not report its one slowest document."""
    xs = sorted(values)
    n = len(xs)
    rank = min(n - min(10, (n - 1) // 2), max(1, int(n * TAIL_CAP / 100)))
    return xs[rank - 1], 100.0 * rank / n


def rates(records) -> list[float]:
    return [r.tokens / r.seconds for r in records]


def metric(value, unit):
    return {"value": value, "unit": unit}


# The two kinds of run -----------------------------------------------------------

class Context:
    def __init__(self, args, pm, workdir: Path):
        import workloads as wl
        self.args, self.pm, self.workdir = args, pm, workdir
        self.fx = wl.Fixtures.load(SRC / "prosomark" / "data" / "fixtures")
        self.cfg = pm.Config().load_lexica()
        self.make_doc = make_docs(args.workload, args.seed, self.fx, self.cfg)
        self.runner = make_runner(args.workload, pm, self.fx, self.cfg, workdir)


def plain_run(ctx: Context):
    import hostclock
    args = ctx.args
    setup_once()  # writes the bytecode caches; not counted
    setup: list[tuple[float, float]] = []
    clock = hostclock.HostClock()

    def sample_setup(elapsed):
        # spread over the run, so one slow spell of the host does not set it
        while len(setup) < SETUP_RUNS * min(1.0, elapsed / args.seconds):
            with clock.paused():
                setup.append(setup_once())

    with clock:
        docs, records = measure(ctx.runner, ctx.make_doc, args.seconds, sample_setup, clock)
        sample_setup(args.seconds)
    probe_docs = docs[:PROBE_DOCS[args.workload]]
    probe = run_probe(args.workload, probe_docs, ctx.workdir)
    for r, d in zip(records, probe["digests"]):
        if r.digest is not None and r.digest != d:
            r.problems.append("output differs from a compile in a fresh process")

    times_ms = [r.seconds * 1000 for r in records]
    tail_ms, tail_pct = tail(times_ms)
    rss_mb = probe["maxrss_kb"] / 1024
    metrics = {
        "setup_s": metric(statistics.median(ref for ref, _ in setup), "s"),
        "tokens_per_s": metric(statistics.median(rates(records)), "tokens/s"),
        "doc_ms_p50": metric(statistics.median(times_ms), "ms"),
        "doc_ms_tail": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    n = len(records)
    speed = hostclock.speed_of(clock.slices)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters spread over the run",
        "(wall)": f"wall time, not rescaled: setup_s "
                  f"{statistics.median(wall for _, wall in setup):.4f} s, tokens_per_s "
                  f"{statistics.median(r.tokens / r.wall for r in records):.1f} tokens/s, "
                  f"doc_ms_p50 {1000 * statistics.median(r.wall for r in records):.3f} ms; "
                  f"the host ran at {speed:.3f} of the reference speed "
                  f"(mean of {len(clock.slices)} slices)",
        "tokens_per_s": f"median of {n} per-document rates, "
                        f"{sum(r.tokens for r in records)} raw tokens",
        "doc_ms_p50": f"n={n}",
        "doc_ms_tail": f"p{tail_pct:.2f} of n={n}",
        "peak_rss_mb": f"fresh process compiling {len(probe_docs)} document(s)",
    }
    return records, metrics, notes


def traced_run(ctx: Context):
    import tracer as tr
    args, pm = ctx.args, ctx.pm
    docs, records = measure(ctx.runner, ctx.make_doc, args.seconds)
    ladder_docs = [(gen, label, make_docs(gen, args.seed, ctx.fx, ctx.cfg, size)(0))
                   for gen in STORIES for label, size in LADDER]
    story_runner = StoryRunner(pm, ctx.cfg)

    # every document is compiled once more untraced and once traced, in
    # alternating order, so the overhead ratio pairs compiles made under the
    # same host conditions
    tracer = tr.Tracer()
    with tracer:
        tracer.doc = "setup"
        pm.Config().load_lexica()
    before = dict(tracer.counts)
    plain, traced = [], []
    for i, doc in enumerate(docs):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced.append(run_one(ctx.runner, i, doc, tracer, full=False))
            else:
                plain.append(run_one(ctx.runner, i, doc, full=False))
    loop_counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    with tracer:
        ladder = [(gen, label, doc,
                   run_one(story_runner, f"ladder.{gen}.{label}", doc, tracer))
                  for gen, label, doc in ladder_docs]

    for checked, *repeats in zip(records, plain, traced):
        if checked.digest is not None and any(r.digest != checked.digest for r in repeats):
            checked.problems.append("a repeat compile gave different output")
    records += [rec for *_, rec in ladder]
    metrics, report = layer_metrics(tracer, plain, traced, loop_counts, ladder)

    stem = f"{args.workload}-seed{args.seed}"
    tracer.write_spans(OUT / f"spans-{stem}.jsonl")
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n",
                                             encoding="utf-8")
    notes = {k: v.get("base", "") for k, v in report["metrics"].items()}
    notes["(files)"] = f"spans and report written to {OUT.relative_to(ROOT)}/*-{stem}.*"
    if tracer.absent:
        notes["(absent)"] = "not defined by the compiler: " + ", ".join(tracer.absent)
    return records, metrics, notes


def layer_metrics(tracer, plain, traced, loop_counts, ladder):
    import tracer as tr
    spans = tracer.spans
    self_t = tr.self_times(spans)
    n_docs = len(traced)
    loop_ids = {r.index for r in traced}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, st in zip(spans, self_t):
        if s[tr.DOC] in loop_ids:
            total[s[tr.NAME]] = total.get(s[tr.NAME], 0.0) + (s[tr.END] - s[tr.START])
            own[s[tr.NAME]] = own.get(s[tr.NAME], 0.0) + st
    lexica = [s[tr.END] - s[tr.START] for s in spans if s[tr.NAME] == "config.load_lexica"]

    out: dict[str, dict] = {}

    def per_doc_ms(name, span, use_self=False):
        value = (own if use_self else total).get(span, 0.0) * 1000
        kind = "self" if use_self else "inclusive"
        out[name] = {"value": value / n_docs, "unit": "ms",
                     "base": f"{kind} {value:.3f} ms over {n_docs} documents"}

    def per_doc_count(name, key):
        value = loop_counts.get(key, 0)
        out[name] = {"value": value / n_docs, "unit": "count",
                     "base": f"{value} over {n_docs} documents"}

    per_doc_ms("ingest.tokenize_ms", "ingest.tokenize")
    per_doc_ms("ingest.split_document_ms", "ingest.split_document")
    per_doc_ms("annotations.shallow_analyze_ms", "annotations.shallow_analyze")
    per_doc_ms("annotations.parse_sidecar_ms", "annotations.parse_sidecar")
    per_doc_ms("annotations.clause_at_ms", "annotations.clause_at")
    per_doc_count("annotations.clause_at_calls", "annotations.clause_at.calls")
    per_doc_count("annotations.clauses_scanned", "annotations.clauses_scanned")
    per_doc_ms("phrasing.segment_ms", "phrasing.segment", use_self=True)
    per_doc_count("phrasing.groups", "phrasing.groups")
    per_doc_ms("phrasing.render_groups_ms", "phrasing.render_groups")
    per_doc_ms("prosody.track_point_of_view_ms", "prosody.track_point_of_view")
    per_doc_ms("prosody.span_for_sentence_ms", "prosody.span_for_sentence")
    per_doc_count("prosody.select_tone_calls", "prosody.select_tone.calls")
    per_doc_count("prosody.match_frozen_calls", "prosody.match_frozen.calls")
    per_doc_ms("pipeline.plan_self_ms", "pipeline.process", use_self=True)
    per_doc_count("pipeline.events", "pipeline.events")
    per_doc_ms("emit.render_markup_ms", "emit.render_markup")
    per_doc_ms("emit.render_tobi_ms", "emit.render_tobi")
    out["config.load_lexica_ms"] = {
        "value": 1000 * statistics.mean(lexica) if lexica else 0.0, "unit": "ms",
        "base": f"mean of {len(lexica)} calls"}
    per_doc_ms("cli.run_self_ms", "cli.run", use_self=True)
    exits = loop_counts.get("cli.nonzero_exits", 0)
    out["cli.nonzero_exits"] = {"value": exits, "unit": "count",
                                "base": f"{exits} of {loop_counts.get('cli.run.calls', 0)} calls"}

    for key, recs in (("trace.untraced_tokens_per_s", plain),
                      ("trace.traced_tokens_per_s", traced)):
        out[key] = {"value": statistics.median(rates(recs)), "unit": "tokens/s",
                    "base": f"median of {n_docs} documents"}
    ratios = [t.seconds / p.seconds for p, t in zip(plain, traced)]
    out["trace.overhead_ratio"] = {
        "value": statistics.median(ratios), "unit": "ratio",
        "base": f"median over {n_docs} documents of traced / untraced compile time"}

    rows = []
    for gen, label, doc, rec in ladder:
        stages = ladder_stages(spans, f"ladder.{gen}.{label}", rec.seconds)
        row = {"generator": gen, "size": label, "tokens": doc.tokens,
               "ms": {k: v * 1000 for k, v in stages.items()}, "us_per_token": {}}
        for stage, seconds in stages.items():
            us = seconds * 1e6 / doc.tokens
            row["us_per_token"][stage] = us
            out[f"ladder.{gen}.{label}.{stage}_us_per_token"] = {
                "value": us, "unit": "us/token",
                "base": f"{seconds * 1000:.1f} ms over {doc.tokens} tokens"}
        rows.append(row)

    metrics = {k: metric(v["value"], v["unit"]) for k, v in out.items()}
    report = {"metrics": out, "ladder": rows, "absent": tracer.absent,
              "documents": n_docs}
    return metrics, report


def ladder_stages(spans, doc_id, wall) -> dict[str, float]:
    """Per-stage seconds of one traced compile.  ``plan`` is the manager's
    ``process`` span minus the stages it calls; ``total`` is wall time."""
    import tracer as tr
    groups = {"tokenize": ("ingest.tokenize",), "split": ("ingest.split_document",),
              "analyze": ("annotations.parse_sidecar", "annotations.shallow_analyze"),
              "segment": ("phrasing.segment",), "pov": ("prosody.track_point_of_view",),
              "render": ("emit.render_markup", "emit.render_tobi", "phrasing.render_groups")}
    stage_of = {name: stage for stage, names in groups.items() for name in names}
    mine = [i for i, s in enumerate(spans) if s[tr.DOC] == doc_id]
    out = {stage: 0.0 for stage in LADDER_STAGES}
    process = {i for i in mine if spans[i][tr.NAME] == "pipeline.process"}
    for i in mine:
        s = spans[i]
        stage = stage_of.get(s[tr.NAME])
        top = s[tr.PARENT] < 0 or spans[s[tr.PARENT]][tr.NAME] not in stage_of
        if stage and top:
            out[stage] += s[tr.END] - s[tr.START]
            if s[tr.PARENT] in process:
                out["plan"] -= s[tr.END] - s[tr.START]
        if i in process:
            out["plan"] += s[tr.END] - s[tr.START]
    out["total"] = wall
    return out


# Entry point ---------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="JOB", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pm = _load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.probe:
        return probe_main(args.probe)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        ctx = Context(args, pm, Path(tmp))
        records, metrics, notes = (traced_run if args.trace else plain_run)(ctx)

    failed = [r for r in records if r.problems]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} documents")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.4f} {m['unit']:9s} {notes.get(name, '')}")
    for key in ("(wall)", "(files)", "(absent)"):
        if key in notes:
            print(f"  {notes[key]}")
    print(f"  {'failed_frac':48s} {len(failed) / len(records):14.4f} {'':9s} "
          f"{len(failed)} of {len(records)} documents")
    for r in failed[:5]:
        print(f"  failed document {r.index}: {'; '.join(r.problems)}")
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
