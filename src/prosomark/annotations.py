"""Clause-level semantic and discourse annotations.

The pipeline consumes, per clause, a feature vector (function/role, view,
factivity, change, relevance, aspect, predicate, tense, discourse relation,
subjectivity), a topic record stream feeding a three-place topic stack, and
a discourse node (move + attachment span).  These normally arrive in a
sidecar file produced by a deep analyzer; a shallow fallback is provided so
plain text can still be processed.

Sidecar format (tab-separated, lines read as ``lexica.lines`` reads them):

    CLAUSE <no> <func/role> <view> <factivity> <change> <relevance|_>
           <aspect> <pred> <tense> <disc_rel> <subjectivity> <from>-<to>
    TOPIC  <type> <clause_no> <pred> <id> <per>,<gen>,<num> <feat;...> <role>
    DISC   <sent_id> <clause_no> <move> <from>-<to>

A ``_`` relevance asks for classification and a sidecar without DISC lines for
derived moves.  ``resolved`` fills both in the set a compile reads, leaving the
given set and its clauses as they are.  A DISC attachment span (clause numbers,
``nil`` for no origin) is written back by ``render_sidecar`` but not checked: no
rule reads it, so it may name clauses past the last one.
"""

from __future__ import annotations

import heapq
import sys

from . import lexica
from .ingest import COMMA, OTHER_PUNCT, Document, Shown

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

# each vocabulary as value -> its constant.  A parsed field holds the
# shared constant, not its line's copy: a long sidecar would otherwise keep
# one string per field per line
(_VIEW, _FACTIVITY, _CHANGE, _RELEVANCE, _ASPECT, _TENSE, _DISC_REL,
 _SUBJECTIVITY, _MOVE, _TOPIC_TYPE) = (
    {v: v for v in vocabulary}
    for vocabulary in (VIEWS, FACTIVITIES, CHANGES, RELEVANCES, ASPECTS, TENSES,
                       DISC_RELS, SUBJECTIVITIES, MOVES, TOPIC_TYPES))


class SidecarError(ValueError):
    """Malformed sidecar line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class IntegrityError(ValueError):
    """A topic or discourse record references a missing clause."""


# slotted, as are the two records below: a sidecar holds one per clause
class ClauseFeatures(Shown):
    """The feature vector of one clause (one sidecar CLAUSE line)."""
    __slots__ = ("clause_no", "func_role", "view", "factivity", "change", "relevance",
                 "aspect", "pred", "tense", "disc_rel", "subjectivity")

    def __init__(self, clause_no: int, func_role: tuple[str, str] = ("main", "prop"),
                 view: str = "external", factivity: str = "factive", change: str = "null",
                 relevance: str | None = "background", aspect: str = "activity",
                 pred: str = "", tense: str = "pres", disc_rel: str = "narration",
                 subjectivity: str = "objective"):
        self.clause_no, self.func_role, self.view = clause_no, func_role, view
        self.factivity, self.change, self.relevance = factivity, change, relevance
        self.aspect, self.pred, self.tense = aspect, pred, tense
        self.disc_rel, self.subjectivity = disc_rel, subjectivity


class TopicRecord(Shown):
    """One topic mention of a clause (one sidecar TOPIC line)."""
    __slots__ = ("topic_type", "clause_no", "pred", "semantic_id", "morph", "inherent", "role")

    def __init__(self, topic_type: str, clause_no: int, pred: str, semantic_id: str,
                 morph: tuple[str, str, str] = ("3", "nil", "nil"),
                 inherent: tuple[str, ...] = (), role: str = "theme"):
        self.topic_type, self.clause_no, self.pred = topic_type, clause_no, pred
        self.semantic_id, self.morph, self.inherent, self.role = semantic_id, morph, inherent, role


class DiscourseNode(Shown):
    """The discourse move and attachment of one clause (one DISC line)."""
    __slots__ = ("sent_id", "clause_no", "move", "attach")

    def __init__(self, sent_id: str, clause_no: int, move: str, attach: tuple[int | None, int]):
        self.sent_id, self.clause_no, self.move, self.attach = sent_id, clause_no, move, attach


class TopicStack:
    """The main, secondary and potential topics, with persistence counts."""

    def __init__(self, main: str | None = None, secondary: str | None = None,
                 potential: str | None = None, persistence: dict[str, int] | None = None):
        self.main, self.secondary, self.potential = main, secondary, potential
        self.persistence = {} if persistence is None else persistence

    def slots(self) -> list[str]:
        return [s for s in (self.main, self.secondary, self.potential) if s]


class AnnotationSet:
    """A document's clauses with their token spans, topics and discourse nodes."""

    def __init__(self, clauses: list[ClauseFeatures] | None = None,
                 topics: list[TopicRecord] | None = None, nodes: list[DiscourseNode] | None = None,
                 clause_spans: dict[int, tuple[int, int]] | None = None,
                 warnings: list[str] | None = None):
        self.clauses = [] if clauses is None else clauses
        self.topics = [] if topics is None else topics
        self.nodes = [] if nodes is None else nodes
        self.clause_spans = {} if clause_spans is None else clause_spans
        self.warnings = [] if warnings is None else warnings

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
    One sweep over the span starts keeps the open spans in a heap and fills
    each run of positions with one owner at once, so the list costs
    O(tokens + clauses log clauses) and a span reaching past ``n_tokens``
    does not make it longer.
    """
    spans = []
    for order, c in enumerate(ann.clauses):
        span = ann.clause_spans.get(c.clause_no)
        if span:
            spans.append((span[0], span[1] - span[0], order, span[1], c))
    spans.sort(key=lambda s: s[0])
    owners: list[ClauseFeatures | None] = [None] * n_tokens
    open_spans: list[tuple] = []          # (width, order, end, clause)
    t = 0                                 # the first position not yet filled
    # between two span starts the owner changes only where the narrowest
    # open span ends
    for span in spans + [(n_tokens,)]:
        stop = min(span[0], n_tokens)
        while open_spans and t < stop:
            _, _, end, clause = open_spans[0]
            if end < t:
                heapq.heappop(open_spans)
            else:
                run_end = min(end + 1, stop)
                owners[t:run_end] = [clause] * (run_end - t)
                t = run_end
        if span[0] >= n_tokens:
            break
        t = max(t, span[0])
        heapq.heappush(open_spans, span[1:])
    return owners


def check_clause_spans(ann: AnnotationSet, n_tokens: int) -> None:
    """Reject a clause span that is reversed or reaches outside the text."""
    for clause_no, (frm, to) in ann.clause_spans.items():
        if not 0 <= frm <= to < n_tokens:
            raise SidecarError(f"clause {clause_no}: span {frm}-{to} is not "
                               f"within the text's {n_tokens} tokens")


def _unknown(what: str, value: str, line_no: int):
    """Raise the error for an unknown field value; it never returns."""
    raise SidecarError(f"unknown {what} {value!r}", line_no)


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
    for line_no, line in lexica.lines(text):
        fields = line.split("\t")
        if "" in fields:
            fields = [f for f in fields if f]
        if len(fields) == 1:
            fields = line.split()
        tag = fields[0]
        if tag == "CLAUSE":
            if len(fields) != 13:
                raise SidecarError(f"CLAUSE needs 12 fields, got {len(fields) - 1}", line_no)
            (_, no, func_role, view, fact, change, rel, aspect, pred, tense,
             disc_rel, subj, span) = fields
            func, _, role = func_role.partition("/")
            # the fields in ClauseFeatures' order
            feats = ClauseFeatures(
                _clause_no(no, line_no),
                (func, role or "prop"),
                _VIEW.get(view) or _unknown("view", view, line_no),
                _FACTIVITY.get(fact) or _unknown("factivity", fact, line_no),
                _CHANGE.get(change) or _unknown("change", change, line_no),
                None if rel == "_" else (
                    _RELEVANCE.get(rel) or _unknown("relevance", rel, line_no)),
                _ASPECT.get(aspect) or _unknown("aspect", aspect, line_no),
                sys.intern(pred),
                _TENSE.get(tense) or _unknown("tense", tense, line_no),
                _DISC_REL.get(disc_rel) or _unknown("disc_rel", disc_rel, line_no),
                _SUBJECTIVITY.get(subj) or _unknown("subjectivity", subj, line_no),
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
                topic_type=_TOPIC_TYPE.get(ttype) or _unknown("topic type", ttype, line_no),
                clause_no=_clause_no(no, line_no), pred=pred, semantic_id=sid,
                morph=parts, inherent=tuple(inherent.split(";")), role=role))
        elif tag == "DISC":
            if len(fields) != 5:
                raise SidecarError(f"DISC needs 4 fields, got {len(fields) - 1}", line_no)
            _, sent_id, no, move, span = fields
            ann.nodes.append(DiscourseNode(
                sent_id, _clause_no(no, line_no),
                _MOVE.get(move) or _unknown("move", move, line_no),
                _parse_span(span, line_no)))
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


# Topic stack ----------------------------------------------------------------

def update_topic_stack(stack: TopicStack, mentions: list[TopicRecord]) -> TopicStack:
    """Fold one clause's topic mentions into the stack.

    A mention first counts towards its id's persistence, then claims a slot
    of (main, secondary, potential): main when main is empty or the id is
    persistent (count >= 2) and now strictly more persistent than main,
    otherwise secondary when the id is persistent, otherwise potential.  An
    id already in the claimed slot or a higher one stays.  Otherwise it
    leaves its old slot empty and takes the claimed one, and each occupant
    below moves down one slot until one lands in an empty slot; a topic
    pushed past potential leaves the stack.  The three slots never hold the
    same id twice.
    """
    slots = [stack.main, stack.secondary, stack.potential]
    persistence = dict(stack.persistence)
    for m in mentions:
        sid = m.semantic_id
        count = persistence[sid] = persistence.get(sid, 0) + 1
        if slots[0] is None or (count >= 2 and count > persistence.get(slots[0], 0)):
            claim = 0
        else:
            claim = 1 if count >= 2 else 2
        if sid in slots[:claim + 1]:
            continue
        if sid in slots:
            slots[slots.index(sid)] = None
        for k in range(claim, 3):
            slots[k], sid = sid, slots[k]
            if sid is None:
                break
    return TopicStack(*slots, persistence)


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
        if mentions:
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


def resolved(ann: AnnotationSet) -> AnnotationSet:
    """The set a compile reads: ``ann`` itself when nothing is missing, else a
    new set sharing its topics, spans and warnings, with a classified copy of
    each ``_`` clause.  Neither ``ann`` nor its clauses change."""
    if not ann.clauses or ann.nodes and all(c.relevance is not None for c in ann.clauses):
        return ann
    clauses = [c if c.relevance is not None else ClauseFeatures(  # the fields in order
        c.clause_no, c.func_role, c.view, c.factivity, c.change, classify_relevance(c),
        c.aspect, c.pred, c.tense, c.disc_rel, c.subjectivity) for c in ann.clauses]
    return AnnotationSet(clauses, ann.topics, ann.nodes or derive_moves(clauses, ann.topics),
                         ann.clause_spans, ann.warnings)


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
    for i, w in enumerate(words):
        if w in ("has", "have", "had") and i + 1 < len(words):
            nxt = words[i + 1]
            if nxt.endswith("ed") or nxt.endswith("en") or nxt in lexica.IRREGULAR_PASTS:
                return "perf"
    for w in words:
        # "had" is the one perfect auxiliary among the irregular pasts
        if (w in lexica.IRREGULAR_PASTS and w != "had") or w.endswith("ed"):
            return "past"
    return "pres"


def _shallow_pred(words: list[str]) -> str:
    content = [w for w in words if w not in lexica.FUNCTION_WORDS]
    return next((w for w in content if is_verby(w)),
                content[-1] if content else (words[-1] if words else ""))


def shallow_analyze(doc: Document) -> AnnotationSet:
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
        words = sent.words
        for i in range(len(toks) - 1):
            w, nxt = words[i], words[i + 1]
            if nxt is None:
                continue
            if toks[i].kind in (COMMA, OTHER_PUNCT) or nxt in _CLAUSE_OPENERS:
                boundaries.append(i + 1)
            elif (w is not None and nxt == "to"
                  and i + 2 < len(toks) and words[i + 2] is not None
                  and words[i + 2] not in lexica.FUNCTION_WORDS
                  and not is_verby(w)):
                boundaries.append(i + 1)
        boundaries.append(len(toks))
        # boundaries rise strictly: 0, at most one i + 1 per token, len(toks)
        for a, b in zip(boundaries, boundaries[1:]):
            at = [i for i in range(a, b) if words[i] is not None]
            if not at:
                continue
            clause_words = [words[i] for i in at]
            clause_no += 1
            tense = _shallow_tense(clause_words)
            feats = ClauseFeatures(
                clause_no=clause_no,
                func_role=("main", "prop") if a == 0 else ("coord", "prop"),
                change="culminated" if tense in ("past", "perf") else "null",
                relevance=None,
                pred=_shallow_pred(clause_words),
                tense=tense,
                disc_rel=_MARKER_RELS.get(clause_words[0], "narration"),
            )
            feats.relevance = classify_relevance(feats)
            ann.clauses.append(feats)
            ann.clause_spans[clause_no] = (toks[at[0]].index, toks[at[-1]].index)
    return resolved(ann)
