"""Outside-in tracing of the compiler's public functions.

The tracer replaces public functions and methods of the ``prosomark``
modules with wrappers that record a span (name, start, end, parent span,
document id) or bump a counter, and puts the originals back on
``restore``.  Spans stay in memory until the run ends.  Nothing inside the
compiler changes: a function imported by name into another module is
patched there too, so calls through either name are seen.

A name in ``LAYERS`` that the compiler no longer defines is reported as
absent and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _clauses(args, result) -> dict[str, int]:
    return {"annotations.clauses_scanned": len(args[0].clauses)}


def _groups(args, result) -> dict[str, int]:
    return {"phrasing.groups": len(result)}


def _events(args, result) -> dict[str, int]:
    return {"pipeline.events": sum(1 for it in result.script.items if it.kind == "event")}


def _exits(args, result) -> dict[str, int]:
    return {"cli.nonzero_exits": int(result != 0)}


@dataclass(frozen=True)
class Layer:
    name: str                  # span or counter name
    module: str
    qualname: str              # function, or Class.method
    span: bool = True          # False: count calls only
    extra: Callable | None = None  # (args, result) -> further counts


LAYERS = (
    Layer("ingest.tokenize", "prosomark.ingest", "tokenize"),
    Layer("ingest.split_document", "prosomark.ingest", "split_document"),
    Layer("annotations.parse_sidecar", "prosomark.annotations", "parse_sidecar"),
    Layer("annotations.shallow_analyze", "prosomark.annotations", "shallow_analyze"),
    Layer("annotations.clause_at", "prosomark.annotations", "AnnotationSet.clause_at",
          extra=_clauses),
    Layer("annotations.clause", "prosomark.annotations", "AnnotationSet.clause",
          span=False, extra=_clauses),
    Layer("annotations.node", "prosomark.annotations", "AnnotationSet.node",
          span=False, extra=_clauses),
    Layer("phrasing.segment", "prosomark.phrasing", "segment", extra=_groups),
    Layer("phrasing.render_groups", "prosomark.phrasing", "render_groups"),
    Layer("prosody.track_point_of_view", "prosomark.prosody", "track_point_of_view"),
    Layer("prosody.span_for_sentence", "prosomark.prosody", "span_for_sentence"),
    Layer("prosody.select_tone", "prosomark.prosody", "select_tone", span=False),
    Layer("prosody.match_frozen", "prosomark.prosody", "match_frozen", span=False),
    Layer("pipeline.run_pipeline", "prosomark.pipeline", "run_pipeline"),
    Layer("pipeline.process", "prosomark.pipeline", "ProsodyManager.process",
          extra=_events),
    Layer("emit.render_markup", "prosomark.emit", "render_markup"),
    Layer("emit.render_tobi", "prosomark.emit", "render_tobi"),
    Layer("config.load_lexica", "prosomark.config", "Config.load_lexica"),
    Layer("cli.run", "prosomark.cli", "run", extra=_exits),
)

# span record fields
NAME, START, END, PARENT, DOC = range(5)


class Tracer:
    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.doc = None              # id stamped on spans; set per document
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._targets: list[tuple[object, str, object]] | None = None

    # -- installing -------------------------------------------------------

    def install(self) -> "Tracer":
        """Swap the wrappers in; cheap to repeat after ``restore``."""
        if self._targets is None:
            self._targets = self._resolve()
        for owner, attr, wrapper in self._targets:
            self._patched.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        return self

    def _resolve(self) -> list[tuple[object, str, object]]:
        targets = []
        for layer in self.layers:
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                self.absent.append(layer.name)
                continue
            owner_name, _, attr = layer.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if not callable(original):
                    self.absent.append(layer.name)
                    continue
                targets.append((owner, attr, self._wrap(layer, original)))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(layer.name)
                continue
            wrapper = self._wrap(layer, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("prosomark"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        targets.append((mod, key, wrapper))
        return targets

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, layer: Layer, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        name, extra = layer.name, layer.extra
        calls = name + ".calls"

        if not layer.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[calls] += 1
                if extra is not None:
                    for key, n in extra(args, result).items():
                        counts[key] += n
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.doc]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            counts[calls] += 1
            if extra is not None:
                for key, n in extra(args, result).items():
                    counts[key] += n
            return result
        return spanned

    # -- reporting --------------------------------------------------------

    def write_spans(self, path):
        """JSON lines ``[name, start_us, end_us, parent, doc]``; a span's id
        is its line number from 0, times are from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], round((s[START] - t0) * 1e6, 1),
                                     round((s[END] - t0) * 1e6, 1), s[PARENT],
                                     s[DOC]], separators=(",", ":")) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s[START]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo = max(spans[c][START], edge, s[START])
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((s[END] - s[START]) - covered)
    return out
