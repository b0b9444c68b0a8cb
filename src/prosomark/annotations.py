"""Clause-level semantic and discourse annotations.

The pipeline consumes, per clause, a feature vector (function/role, view,
factivity, change, relevance, aspect, predicate, tense, discourse relation,
subjectivity), a topic record stream feeding a three-place topic stack, and
a discourse node (move + attachment span).  These normally arrive in a
sidecar file produced by a deep analyzer; a shallow fallback is provided so
plain text can still be processed.

Sidecar format (tab-separated, ``#`` comments):

    CLAUSE <no> <func/role> <view> <factivity> <change> <relevance|_>
           <aspect> <pred> <tense> <disc_rel> <subjectivity> <from>-<to>
    TOPIC  <type> <clause_no> <pred> <id> <per>,<gen>,<num> <feat;...> <role>
    DISC   <sent_id> <clause_no> <move> <from>-<to>

A ``_`` relevance asks for classification; omitting all DISC lines asks for
move derivation.  A DISC attachment span (clause numbers, ``nil`` for no
origin) is kept and written back by ``render_sidecar`` but not checked: no
rule reads it, so it may name clauses past the last one.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field

from . import lexica
from .ingest import COMMA, OTHER_PUNCT, WORD, Document

VIEWS = ("external", "internal")
FACTIVITIES = ("factive", "nonfactive")
CHANGES = ("null", "graded", "culminated")
RELEVANCES = ("foreground", "background")
ASPECTS = ("activity", "state", "accomplishment", "achievement")
TENSES = ("pres", "past", "perf", "nil")
DISC_RELS = ("narration", "cause", "result", "setting", "circumstance",
             "elaboration", "explanation")
SUBJECTIVITIES = ("objective", "subjective")
MOVES = ("root", "up", "down", "level")
TOPIC_TYPES = ("main", "second", "poten")


class SidecarError(ValueError):
    """Malformed sidecar line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class IntegrityError(ValueError):
    """A topic or discourse record references a missing clause."""


@dataclass
class ClauseFeatures:
    clause_no: int
    func_role: tuple[str, str] = ("main", "prop")
    view: str = "external"
    factivity: str = "factive"
    change: str = "null"
    relevance: str | None = "background"
    aspect: str = "activity"
    pred: str = ""
    tense: str = "pres"
    disc_rel: str = "narration"
    subjectivity: str = "objective"


@dataclass
class TopicRecord:
    topic_type: str
    clause_no: int
    pred: str
    semantic_id: str
    morph: tuple[str, str, str] = ("3", "nil", "nil")
    inherent: tuple[str, ...] = ()
    role: str = "theme"


@dataclass
class DiscourseNode:
    sent_id: str
    clause_no: int
    move: str
    attach: tuple[int | None, int]


@dataclass
class TopicStack:
    main: str | None = None
    secondary: str | None = None
    potential: str | None = None
    persistence: dict[str, int] = field(default_factory=dict)

    def slots(self) -> list[str]:
        return [s for s in (self.main, self.secondary, self.potential) if s]


@dataclass
class AnnotationSet:
    clauses: list[ClauseFeatures] = field(default_factory=list)
    topics: list[TopicRecord] = field(default_factory=list)
    nodes: list[DiscourseNode] = field(default_factory=list)
    clause_spans: dict[int, tuple[int, int]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def clause(self, clause_no: int) -> ClauseFeatures | None:
        for c in self.clauses:
            if c.clause_no == clause_no:
                return c
        return None

    def node(self, clause_no: int) -> DiscourseNode | None:
        for n in self.nodes:
            if n.clause_no == clause_no:
                return n
        return None

    def clause_at(self, token_index: int) -> ClauseFeatures | None:
        """Clause whose span contains the token; smallest span wins.

        A one-off scan; a pass over a whole document reads the clause of
        every token from one ``innermost_clauses`` list instead.
        """
        best = None
        best_width = None
        for c in self.clauses:
            span = self.clause_spans.get(c.clause_no)
            if span and span[0] <= token_index <= span[1]:
                width = span[1] - span[0]
                if best_width is None or width < best_width:
                    best, best_width = c, width
        return best


def innermost_clauses(ann: AnnotationSet, n_tokens: int) -> list[ClauseFeatures | None]:
    """The clause of each token position below ``n_tokens``.

    A token belongs to the narrowest clause span holding it; among spans of
    equal width the clause listed first wins; a token in no span gets None.
    One sweep over the positions keeps the spans open at the current one in
    a heap, so the list costs O(tokens + clauses log clauses) and a span
    reaching past ``n_tokens`` does not make it longer.
    """
    spans = []
    for order, c in enumerate(ann.clauses):
        span = ann.clause_spans.get(c.clause_no)
        if span:
            spans.append((span[0], span[1] - span[0], order, span[1], c))
    spans.sort(key=lambda s: s[0])
    owners: list[ClauseFeatures | None] = [None] * n_tokens
    open_spans: list[tuple] = []          # (width, order, end, clause)
    k = 0
    for t in range(n_tokens):
        while k < len(spans) and spans[k][0] <= t:
            heapq.heappush(open_spans, spans[k][1:])
            k += 1
        while open_spans and open_spans[0][2] < t:
            heapq.heappop(open_spans)
        if open_spans:
            owners[t] = open_spans[0][3]
    return owners


def check_clause_spans(ann: AnnotationSet, n_tokens: int) -> None:
    """Reject a clause span that is reversed or reaches outside the text."""
    for clause_no, (frm, to) in ann.clause_spans.items():
        if not 0 <= frm <= to < n_tokens:
            raise SidecarError(f"clause {clause_no}: span {frm}-{to} is not "
                               f"within the text's {n_tokens} tokens")


def _expect(value: str, allowed: tuple[str, ...], what: str, line_no: int) -> str:
    if value not in allowed:
        raise SidecarError(f"unknown {what} {value!r}", line_no)
    # the shared constant, not this line's copy: a long sidecar would
    # otherwise keep one string per field per line
    return allowed[allowed.index(value)]


def _clause_no(text: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise SidecarError(f"bad clause number {text!r}", line_no) from None


def _parse_span(text: str, line_no: int) -> tuple[int | None, int]:
    frm, _, to = text.partition("-")
    if not to:
        raise SidecarError(f"bad span {text!r}", line_no)
    try:
        left = None if frm == "nil" else int(frm)
        return left, int(to)
    except ValueError:
        raise SidecarError(f"bad span {text!r}", line_no) from None


def parse_sidecar(text: str) -> AnnotationSet:
    ann = AnnotationSet()
    known: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        fields = [f for f in line.split("\t") if f != ""]
        if len(fields) == 1:
            fields = line.split()
        tag = fields[0]
        if tag == "CLAUSE":
            if len(fields) != 13:
                raise SidecarError(f"CLAUSE needs 12 fields, got {len(fields) - 1}", line_no)
            (_, no, func_role, view, fact, change, rel, aspect, pred, tense,
             disc_rel, subj, span) = fields
            func, _, role = func_role.partition("/")
            feats = ClauseFeatures(
                clause_no=_clause_no(no, line_no),
                func_role=(func, role or "prop"),
                view=_expect(view, VIEWS, "view", line_no),
                factivity=_expect(fact, FACTIVITIES, "factivity", line_no),
                change=_expect(change, CHANGES, "change", line_no),
                relevance=None if rel == "_" else _expect(rel, RELEVANCES, "relevance", line_no),
                aspect=_expect(aspect, ASPECTS, "aspect", line_no),
                pred=sys.intern(pred),
                tense=_expect(tense, TENSES, "tense", line_no),
                disc_rel=_expect(disc_rel, DISC_RELS, "disc_rel", line_no),
                subjectivity=_expect(subj, SUBJECTIVITIES, "subjectivity", line_no),
            )
            if feats.change == "graded" and feats.aspect == "state":
                raise SidecarError("graded change cannot occur with state aspect", line_no)
            frm, to = _parse_span(span, line_no)
            if frm is None:
                raise SidecarError("clause span cannot be nil", line_no)
            if feats.clause_no in known:
                raise SidecarError(f"duplicate clause {feats.clause_no}", line_no)
            known.add(feats.clause_no)
            ann.clauses.append(feats)
            ann.clause_spans[feats.clause_no] = (frm, to)
        elif tag == "TOPIC":
            if len(fields) != 8:
                raise SidecarError(f"TOPIC needs 7 fields, got {len(fields) - 1}", line_no)
            _, ttype, no, pred, sid, morph, inherent, role = fields
            parts = tuple(p.strip() for p in morph.split(","))
            if len(parts) != 3:
                raise SidecarError(f"bad morph triple {morph!r}", line_no)
            ann.topics.append(TopicRecord(
                topic_type=_expect(ttype, TOPIC_TYPES, "topic type", line_no),
                clause_no=_clause_no(no, line_no), pred=pred, semantic_id=sid,
                morph=parts, inherent=tuple(inherent.split(";")), role=role))
        elif tag == "DISC":
            if len(fields) != 5:
                raise SidecarError(f"DISC needs 4 fields, got {len(fields) - 1}", line_no)
            _, sent_id, no, move, span = fields
            ann.nodes.append(DiscourseNode(
                sent_id=sent_id, clause_no=_clause_no(no, line_no),
                move=_expect(move, MOVES, "move", line_no),
                attach=_parse_span(span, line_no)))
        else:
            raise SidecarError(f"unknown record type {tag!r}", line_no)

    for t in ann.topics:
        if t.clause_no not in known:
            raise IntegrityError(f"TOPIC references missing clause {t.clause_no}")
    for n in ann.nodes:
        if n.clause_no not in known:
            raise IntegrityError(f"DISC references missing clause {n.clause_no}")

    lemma_of: dict[str, str] = {}
    warned = set()
    for t in ann.topics:
        seen = lemma_of.setdefault(t.semantic_id, t.pred)
        if seen != t.pred and (t.semantic_id, t.pred) not in warned:
            warned.add((t.semantic_id, t.pred))
            ann.warnings.append(
                f"semantic id {t.semantic_id} maps to both {seen!r} and {t.pred!r}")
    return ann


def render_sidecar(ann: AnnotationSet) -> str:
    """Inverse writer for parse_sidecar (round-trips well-formed sets)."""
    lines = []
    for c in ann.clauses:
        frm, to = ann.clause_spans[c.clause_no]
        lines.append("\t".join([
            "CLAUSE", str(c.clause_no), "/".join(c.func_role), c.view,
            c.factivity, c.change, c.relevance or "_", c.aspect, c.pred,
            c.tense, c.disc_rel, c.subjectivity, f"{frm}-{to}"]))
    for t in ann.topics:
        lines.append("\t".join([
            "TOPIC", t.topic_type, str(t.clause_no), t.pred, t.semantic_id,
            ",".join(t.morph), ";".join(t.inherent), t.role]))
    for n in ann.nodes:
        frm = "nil" if n.attach[0] is None else str(n.attach[0])
        lines.append("\t".join([
            "DISC", n.sent_id, str(n.clause_no), n.move, f"{frm}-{n.attach[1]}"]))
    return "\n".join(lines) + ("\n" if lines else "")


# Relevance ------------------------------------------------------------------

#: default decision table: (change, tense, aspect) wildcards -> relevance.
#: Read off the propositional-semantics table: a culminated change marks the
#: clause as a narrative-advancing event.
DEFAULT_RELEVANCE_RULES = [
    ({"change": "culminated"}, "foreground"),
    ({}, "background"),
]


def classify_relevance(feats: ClauseFeatures, ruleset=None) -> str:
    ruleset = ruleset or DEFAULT_RELEVANCE_RULES
    for conditions, outcome in ruleset:
        if all(getattr(feats, key) == value for key, value in conditions.items()):
            return outcome
    return "background"


def resolve_relevance(ann: AnnotationSet, ruleset=None) -> None:
    """Fill in relevance wherever the sidecar requested classification."""
    for c in ann.clauses:
        if c.relevance is None:
            c.relevance = classify_relevance(c, ruleset)


# Topic stack ----------------------------------------------------------------

def update_topic_stack(stack: TopicStack, mentions: list[TopicRecord]) -> TopicStack:
    """Fold one clause's topic mentions into the stack.

    The discourse-initial mention seeds the main topic.  A new id enters the
    potential slot.  A reiterated id becomes persistent (count >= 2) and is
    promoted: to main when it is now strictly more persistent than the
    current main topic, otherwise to secondary.  Persistence counts survive
    slot displacement.  The three slots never hold the same id twice.
    """
    new = TopicStack(stack.main, stack.secondary, stack.potential,
                     dict(stack.persistence))
    for m in mentions:
        sid = m.semantic_id
        new.persistence[sid] = new.persistence.get(sid, 0) + 1
        count = new.persistence[sid]
        if new.main is None:
            new.main = sid
            if new.secondary == sid:
                new.secondary = None
            if new.potential == sid:
                new.potential = None
            continue
        if sid == new.main:
            continue
        if count >= 2:
            main_count = new.persistence.get(new.main, 0)
            if count > main_count:
                displaced = new.main
                new.main = sid
                if new.secondary == sid:
                    new.secondary = displaced
                else:
                    if new.secondary is not None:
                        new.potential = new.secondary
                    new.secondary = displaced
                if new.potential == sid:
                    new.potential = None
            elif sid != new.secondary:
                if new.secondary is not None and new.secondary != sid:
                    new.potential = new.secondary
                new.secondary = sid
                if new.potential == sid:
                    new.potential = None
        else:
            if sid not in (new.main, new.secondary):
                new.potential = sid
    return new


def fold_topics(ann: AnnotationSet) -> dict[int, TopicStack]:
    """Stack state after each clause that carries topic mentions."""
    stack = TopicStack()
    states: dict[int, TopicStack] = {}
    by_clause: dict[int, list[TopicRecord]] = {}
    for t in ann.topics:
        by_clause.setdefault(t.clause_no, []).append(t)
    for clause_no in sorted(by_clause):
        stack = update_topic_stack(stack, by_clause[clause_no])
        states[clause_no] = stack
    return states


# Discourse moves ------------------------------------------------------------

def derive_moves(clauses: list[ClauseFeatures],
                 topics: list[TopicRecord]) -> list[DiscourseNode]:
    """Default move heuristic when the sidecar carries no DISC lines.

    First clause: up with a nil origin.  A foreground clause whose topic
    differs from the running main topic: up, attached to the root span.
    Subordinate clauses and background result/circumstance clauses: down.
    Everything else: level, attached to the previous node's span.
    """
    nodes: list[DiscourseNode] = []
    ordered = sorted(clauses, key=lambda c: c.clause_no)
    topic_by_clause: dict[int, list[TopicRecord]] = {}
    for t in topics:
        topic_by_clause.setdefault(t.clause_no, []).append(t)
    stack = TopicStack()
    root_no = ordered[0].clause_no if ordered else 1
    prev: DiscourseNode | None = None
    for i, c in enumerate(ordered):
        mentions = topic_by_clause.get(c.clause_no, [])
        prev_main = stack.main
        stack = update_topic_stack(stack, mentions)
        if i == 0:
            move, attach = "up", (None, c.clause_no)
        elif c.relevance == "foreground" and (
                not mentions or any(m.semantic_id != prev_main for m in mentions)):
            move, attach = "up", (root_no, c.clause_no)
        elif c.func_role[0] in ("xcomp", "sub", "adjunct") or (
                c.disc_rel in ("result", "circumstance") and c.relevance == "background"):
            move, attach = "down", (prev.attach[0] or root_no, c.clause_no)
        else:
            move = "level"
            attach = prev.attach if prev.attach[0] is not None else (root_no, c.clause_no)
        prev = DiscourseNode(f"s_{i + 1}", c.clause_no, move, attach)
        nodes.append(prev)
    return nodes


def resolve_moves(ann: AnnotationSet) -> None:
    if not ann.nodes and ann.clauses:
        ann.nodes = derive_moves(ann.clauses, ann.topics)


# Shallow fallback analyzer --------------------------------------------------

_MARKER_RELS = {"because": "cause", "so": "result", "while": "circumstance",
                "when": "circumstance", "until": "circumstance",
                "if": "circumstance", "since": "cause"}


#: words that open a new clause in the shallow analysis
_CLAUSE_OPENERS = frozenset(lexica.COORDINATORS | lexica.ADVERSATIVE_CONNECTIVES
                            | lexica.SUBORDINATORS | lexica.SUBORDINATE_MARKERS)


def is_verby(norm: str) -> bool:
    """The verb heuristic: an auxiliary, an irregular past or an -ed form."""
    return (norm in lexica.AUXILIARIES or norm in lexica.IRREGULAR_PASTS
            or norm.endswith("ed"))


def _shallow_tense(words: list[str]) -> str:
    has = set(words)
    if has & {"has", "have", "had"}:
        for i, w in enumerate(words):
            if w in ("has", "have", "had") and i + 1 < len(words):
                nxt = words[i + 1]
                if nxt.endswith("ed") or nxt.endswith("en") or nxt in lexica.IRREGULAR_PASTS:
                    return "perf"
    for w in words:
        if w in lexica.IRREGULAR_PASTS and w not in ("has", "have", "had"):
            return "past"
        if w.endswith("ed") and w not in lexica.DETERMINERS:
            return "past"
    return "pres"


def _shallow_pred(words: list[str]) -> str:
    content = [w for w in words if not lexica.function_word(w)]
    for w in words:
        if w.endswith("ed") or w in lexica.IRREGULAR_PASTS:
            if w not in ("has", "have", "had") and not lexica.function_word(w):
                return w
    return content[-1] if content else (words[-1] if words else "")


def shallow_analyze(doc: Document, relevance_rules=None) -> AnnotationSet:
    """Heuristic stand-in for the deep analysis when no sidecar is given.

    Clauses split at terminal punctuation, clause-boundary commas and
    conjunctions; tense from suffix heuristics; discourse relation from a
    marker lexicon; change culminated for past/perf.  Only objective,
    factive, external values are ever produced here.
    """
    ann = AnnotationSet()
    clause_no = 0
    for sent in doc.sentences:
        if sent.is_title:
            continue
        boundaries = [0]
        toks = sent.tokens
        for i, t in enumerate(toks[:-1]):
            nxt = toks[i + 1]
            if t.kind in (COMMA, OTHER_PUNCT) and nxt.kind == WORD:
                boundaries.append(i + 1)
            elif nxt.kind == WORD and nxt.normalized in _CLAUSE_OPENERS:
                boundaries.append(i + 1)
            elif (t.kind == WORD and nxt.kind == WORD and nxt.normalized == "to"
                  and i + 2 < len(toks) and toks[i + 2].kind == WORD
                  and not lexica.function_word(toks[i + 2].normalized)
                  and not is_verby(t.normalized)):
                boundaries.append(i + 1)
        boundaries.append(len(toks))
        seen = set()
        spans = []
        for a, b in zip(boundaries, boundaries[1:]):
            if (a, b) in seen or a >= b:
                continue
            seen.add((a, b))
            if any(t.kind == WORD for t in toks[a:b]):
                spans.append((a, b))
        for a, b in spans:
            words = [t.normalized for t in toks[a:b] if t.kind == WORD]
            clause_no += 1
            tense = _shallow_tense(words)
            marker = words[0] if words else ""
            feats = ClauseFeatures(
                clause_no=clause_no,
                func_role=("main", "prop") if a == 0 else ("coord", "prop"),
                change="culminated" if tense in ("past", "perf") else "null",
                relevance=None,
                pred=_shallow_pred(words),
                tense=tense,
                disc_rel=_MARKER_RELS.get(marker, "narration"),
            )
            feats.relevance = classify_relevance(feats, relevance_rules)
            ann.clauses.append(feats)
            word_idx = [t.index for t in toks[a:b] if t.kind == WORD]
            ann.clause_spans[clause_no] = (word_idx[0], word_idx[-1])
    resolve_moves(ann)
    return ann
