"""The prosody manager: wires ingest, annotations, phrasing and prosody
into a prosodic script ready for rendering.

Each compile plans its sentences on a fresh ``_Compile``, one at a time in
document order.  A title takes the title treatment; every other sentence
runs the rules of ``_SENTENCE_RULES`` in order, skipping a rule whose
trigger words the sentence does not hold.  A continuation sentence of
a quotation then chains onto the sentence before it with a downstepped
contour, and the sentence is emitted.

Each rule names the mapping-table row or break index it places; ``prosody``
supplies the tables, ``select_tone`` and ``match_frozen``.
"""

from __future__ import annotations

import _thread
import functools
import gc

from . import lexica
from .annotations import (AnnotationSet, check_clause_spans, parse_sidecar,
                          resolved, shallow_analyze)
from .config import Config
from .docindex import DocIndex, POVSpan
from .emit import (GLUE_COMPOUND, GLUE_LEFT, GLUE_NONE, GLUE_RIGHT,
                   ProsodicScript, ScriptItem)
from .ingest import (COMMA, OTHER_PUNCT, QUOTE, TERMINAL, Document, Sentence,
                     longest_phrase, split_document, tokenize)
from .phrasing import END_STOPPED, BreathGroup, render_groups, segment
from .prosody import DEFAULT_TABLE, RSET, BreakIndex, ParamEvent, match_frozen, select_tone


class PipelineResult:
    """A compile's document, annotations, breath groups, script and notes."""

    def __init__(self, doc: Document, ann: AnnotationSet, groups: dict[int, list[BreathGroup]],
                 script: ProsodicScript, pov_spans: list[POVSpan], diagnostics: list[str]):
        self.doc, self.ann, self.groups, self.script = doc, ann, groups, script
        self.pov_spans, self.diagnostics = pov_spans, diagnostics

    def groups_text(self) -> str:
        return render_groups(self.doc, self.groups)


class _SentencePlan:
    """The event items the rules place around one sentence's tokens, and
    the sentence's clauses already given a contour.

    ``placed`` keys each list of items by its sentence-local place, the
    encoding of ``ScriptItem.at``: ``2*pos`` before the token at ``pos``,
    ``2*pos + 1`` after it."""

    def __init__(self, sentence: Sentence, groups: list[BreathGroup],
                 paragraph_initial: bool, after_first_para: bool):
        self.sentence = sentence
        self.groups = groups
        self.words = sentence.words
        #: the position of the sentence's first word (None without one)
        self.first_word = next((i for i, w in enumerate(self.words) if w is not None), None)
        self.paragraph_initial = paragraph_initial
        self.after_first_para = after_first_para
        self.placed: dict[int, list[ScriptItem]] = {}
        self.consumed: set[int] = set()
        self.contoured: set[int] = set()
        self.end_bi2 = False          # sentence chained onward with BI-2

    def add_prefix(self, pos: int, *items: ScriptItem):
        self.placed.setdefault(2 * pos, []).extend(items)

    def add_suffix(self, pos: int, *items: ScriptItem):
        self.placed.setdefault(2 * pos + 1, []).extend(items)

    def add_suffix_bi(self, pos: int, bi: BreakIndex):
        self.add_suffix(pos, *_pause(bi, GLUE_LEFT))

    def chain_onward(self, pos: int):
        """Close the sentence at ``pos`` with a BI-2 chaining it onward."""
        self.add_suffix_bi(pos, BreakIndex.BI2)
        self.end_bi2 = True

    def has_prefix(self, pos: int) -> bool:
        return 2 * pos in self.placed

    def has_bi_suffix(self, pos: int) -> bool:
        return any(p.bi is not None for p in self.placed.get(2 * pos + 1, ()))


class ProsodyManager:
    """Compiles documents with one configuration.  It keeps no state between
    compiles and changes nothing it is given, so threads may share a manager.

    ``process`` leaves the cyclic garbage collector as it is.  ``run_pipeline``
    pauses it around the sidecar parse and ``process``, since a compile makes
    no reference cycles; threads may share that pause too (see ``run_pipeline``)."""

    def __init__(self, config: Config):
        self.config = config

    def process(self, text: str, ann: AnnotationSet | None = None) -> PipelineResult:
        cfg = self.config
        tokens = tokenize(text, cfg.multiwords, cfg.phon_lexicon)
        doc = split_document(tokens, cfg.title_mode)
        if ann is None:
            ann = shallow_analyze(doc)
        else:
            check_clause_spans(ann, len(tokens))
            ann = resolved(ann)

        diagnostics = list(ann.warnings)
        ix = DocIndex(doc, ann, diagnostics)
        groups = {s.index: segment(s, ix, cfg) for s in doc.sentences}
        pov_spans = ix.quotations if cfg.pov_tracking else []
        script = _Compile(cfg, doc, ann, ix).build_script(groups, pov_spans)
        return PipelineResult(doc, ann, groups, script, pov_spans, diagnostics)


class _Compile:
    """The rule planner's state for one compile: the phrase indexes of the
    frozen table and of the sad affect entries, and the rules with their
    trigger words; and, shared across sentences, the clauses whose
    group-final contour is suppressed and the predicates whose head contour
    has fired."""

    def __init__(self, config: Config, doc: Document, ann: AnnotationSet, ix: DocIndex):
        self.config = config
        self.doc = doc
        self.ann = ann
        self.ix = ix
        self.final_suppressed: set[int] = set()
        self.fired_preds: set[str] = set()
        self.frozen_index, self.sad_index = config.frozen_index, config.sad_index
        #: (rule, its trigger words or None) in ``_SENTENCE_RULES``' order
        self.rules = [(rule, None if triggers is None else triggers(self))
                      for rule, triggers in _SENTENCE_RULES]

    def build_script(self, groups, pov_spans) -> ProsodicScript:
        doc = self.doc
        script = ProsodicScript()
        body = [s for s in doc.sentences if not s.is_title]
        first_body_para = min((s.paragraph_index for s in body), default=0)
        para_first = {}
        for s in body:
            para_first.setdefault(s.paragraph_index, s.index)

        # the sentences after the first of each quotation
        continuations = {si for span in pov_spans for si in span.sentences[1:]}

        prev_plan = None
        for sent in doc.sentences:
            plan = _SentencePlan(
                sent, groups[sent.index],
                paragraph_initial=para_first.get(sent.paragraph_index) == sent.index,
                after_first_para=sent.paragraph_index > first_body_para)
            if sent.is_title:
                self._plan_title(plan)
            elif plan.groups:
                held = set(plan.words)
                for rule, triggers in self.rules:
                    if triggers is None or not held.isdisjoint(triggers):
                        rule(self, plan)
            if sent.index in continuations:
                self._chain_continuation(plan, prev_plan)

            items, base = script.items, 2 * sent.tokens[0].index
            for place in sorted(plan.placed):
                for item in plan.placed[place]:
                    item.at = base + place
                    items.append(item)
            prev_plan = plan
        return script

    # -- helpers -------------------------------------------------------------

    def _row_event(self, row_id: str, i: int = 0, glue: str = GLUE_RIGHT) -> ScriptItem:
        """Contour ``i`` of the mapping-table row ``row_id``: the opening
        event of its parameter tuple, labelled with the contour when the row
        has one."""
        event, label = _OPENINGS[row_id, i]
        return ScriptItem(event, glue, label)

    def _selected(self, **context) -> ScriptItem:
        """The row event of the contour ``select_tone`` picks for the context."""
        c = select_tone(**context)
        return self._row_event(c.row_id, c.index)

    def _move_of(self, clause) -> str:
        node = self.ix.node(clause.clause_no)
        return node.move if node is not None else "level"

    def _pred_position(self, sent, clause) -> int | None:
        """The first position of the clause's predicate word, for a clause
        starting in ``sent``: a sentence's tokens have consecutive indices."""
        base = sent.tokens[0].index
        start, end = self.ix.spans[clause.clause_no]
        words = sent.words
        return next((i for i in range(start - base, min(end - base + 1, len(words)))
                     if words[i] == clause.pred), None)

    # -- rules ---------------------------------------------------------------

    def _plan_title(self, plan: _SentencePlan):
        sent = plan.sentence
        if plan.first_word is None:
            return
        plan.add_prefix(plan.first_word, self._row_event("title"))
        plan.add_suffix(len(sent.tokens) - 1, *_pause(BreakIndex.BI44, GLUE_NONE))

    def _plan_initial(self, plan: _SentencePlan):
        sent = plan.sentence
        clauses = self.ix.clauses_in(sent)
        if not clauses:
            return
        fc = clauses[0][1]
        if self._move_of(fc) != "up" or fc.relevance != "foreground":
            return
        plan.add_prefix(plan.first_word, self._selected(
            position="sentence_initial", move="up", relevance="foreground",
            paragraph_initial=plan.paragraph_initial,
            after_first_paragraph=plan.after_first_para))
        plan.contoured.add(fc.clause_no)
        self.final_suppressed.add(fc.clause_no)

    def _plan_frozen(self, plan: _SentencePlan):
        end = 0                       # the first position after the last match
        for pos in [i for i, w in enumerate(plan.words) if w in self.frozen_index]:
            if pos < end or (m := match_frozen(plan.sentence, pos, self.frozen_index)) is None:
                continue
            role = m.role
            n_tuples = len(DEFAULT_TABLE.row(role).params)
            for i in range(min(m.pattern_length, n_tuples)):
                plan.add_prefix(pos + i, self._row_event(role, i))
            plan.consumed.update(range(pos, pos + m.pattern_length))
            if m.tail_position is not None:
                t = m.tail_position
                tail = f"{role}_tail"
                plan.add_prefix(t, self._row_event(tail, 0))
                plan.add_suffix(t, self._row_event(tail, 1, GLUE_LEFT))
                plan.add_suffix_bi(t, DEFAULT_TABLE.row(tail).bi)
                plan.consumed.add(t)
            end = pos + m.length

    def _affect_spans(self, plan) -> list[tuple[int, int]]:
        words = plan.words
        hits: list[tuple[int, int]] = []
        after = 0                     # the first position after the last hit
        for i in [i for i, w in enumerate(words) if w in self.sad_index]:
            if i >= after and i not in plan.consumed \
                    and (m := longest_phrase(words, i, self.sad_index)):
                after = i + m[0]
                hits.append((i, after - 1))
        merged: list[list[int]] = []
        for start, end in hits:
            if merged and self._only_connectors(plan, merged[-1][1] + 1, start):
                merged[-1][1] = end
                merged[-1][2] += 1
            else:
                merged.append([start, end, 1])
        out = []
        for start, end, n_hits in merged:
            while start > 0 and words[start - 1] in lexica.NEGATION_WORDS:
                start -= 1
            if n_hits == 1 and end + 1 < len(words) and words[end + 1] is not None \
                    and words[end + 1] not in lexica.FUNCTION_WORDS:
                end += 1
            out.append((start, end))
        return out

    @staticmethod
    def _only_connectors(plan, a, b) -> bool:
        toks, words = plan.sentence.tokens, plan.words
        return a < b and all(toks[i].kind == COMMA or words[i] in ("and", "or")
                             for i in range(a, b))

    def _plan_affect(self, plan: _SentencePlan):
        spans = self._affect_spans(plan)
        if plan.paragraph_initial:
            g = plan.groups[0]
            if all(plan.words[i] in lexica.SENTENCE_ADVERBS for i in g.words):
                spans.insert(0, g.token_span)
        for start, end in spans:
            plan.add_prefix(start, self._selected(affect="sad"))
            plan.add_suffix(end, ScriptItem(RSET, GLUE_NONE))
            plan.consumed.update(range(start, end + 1))

    def _plan_exclamative(self, plan: _SentencePlan):
        sent = plan.sentence
        if sent.terminal not in ("question", "exclamation"):
            return
        ix = self.ix
        term_pos = max(i for i, t in enumerate(sent.tokens) if t.kind == TERMINAL)
        region_sents = ix.quote_sentences(sent.tokens[term_pos].index)
        if region_sents is None:
            return
        # the rules see only sentences with a word, and a sentence ends at
        # the terminal after its first word
        last_word = next(i for i in range(term_pos - 1, -1, -1) if plan.words[i] is not None)
        # a one-off AnnotationSet lookup rather than the index: the tracer
        # test in bench/test_bench.py expects a compile of the fox fixture
        # to make at least one counted clause lookup
        owner = self.ann.clause_at(sent.tokens[last_word].index)
        # the owner's start if it lies in this sentence, whose tokens have
        # consecutive indices
        base = sent.tokens[0].index
        start = plan.first_word
        if owner is not None and ix.spans[owner.clause_no][0] >= base:
            start = ix.spans[owner.clause_no][0] - base
        # the ds_exclamative row is not placed: the exclamative opens with
        # the contour of the paragraph-initial up row
        opening = self._row_event("up_fg_parainit")
        if sent.terminal == "question":
            plan.add_prefix(start, opening)
        # the sentence's words all precede its terminal: each group ends by last_word
        for g in plan.groups[:-1]:
            if g.token_span[1] >= start:
                plan.add_suffix_bi(g.token_span[1], BreakIndex.BI3)
        plan.add_suffix(last_word, *_pause(BreakIndex.BI22, GLUE_LEFT, before=opening))
        if self.config.pov_tracking and region_sents[-1] == sent.index:
            plan.add_suffix(term_pos, ScriptItem(RSET, GLUE_NONE))
        plan.consumed.update(range(start, term_pos + 1))
        if owner is not None:
            self.final_suppressed.add(owner.clause_no)

    def _plan_clauses(self, plan: _SentencePlan):
        sent = plan.sentence
        toks = sent.tokens
        words = plan.words
        group_at = {i: g for g in plan.groups for i in g.positions()}
        for start, c in self.ix.clauses_in(sent):
            if c.clause_no in plan.contoured or start in plan.consumed:
                continue
            in_quote = self.ix.quote_open(toks[start].index)
            word = words[start]
            prev = next((words[i] for i in range(start - 1, -1, -1)
                         if words[i] is not None), None)
            group = group_at.get(start)

            if (c.disc_rel == "circumstance" and c.relevance == "foreground"
                    and word in lexica.SUBORDINATE_MARKERS):
                # announcing contour on the marker itself, after a pause
                # that prints no break index; the clause's own final head
                # still takes its end-of-group treatment
                plan.add_prefix(start, *_pause(
                    BreakIndex.BI2, before=self._row_event("subordinate_marker"),
                    labelled=False))
            elif c.disc_rel == "elaboration" and in_quote:
                plan.add_prefix(start, self._row_event("internal_fg"))
                pred_pos = self._pred_position(sent, c)
                if pred_pos is not None and pred_pos != start:
                    plan.add_prefix(pred_pos, self._row_event("subordinate_marker"))
                plan.contoured.add(c.clause_no)
            elif (in_quote and group is not None and group.trigger == "comparative"
                    and start != group.token_span[0]):
                plan.add_prefix(start, *_pause(BreakIndex.BI2),
                                self._row_event("ds_elaboration", 1))
                plan.contoured.add(c.clause_no)
            elif c.disc_rel == "result" and prev == "to":
                # the resultative_inf row is not placed: the clause opens
                # with the internal foreground contour
                plan.add_prefix(start, *_pause(BreakIndex.BI2),
                                self._row_event("internal_fg"))
                plan.contoured.add(c.clause_no)
            elif c.relevance == "foreground" and start != plan.first_word:
                plan.add_prefix(start, *_pause(BreakIndex.BI2),
                                self._selected(position="sentence_internal",
                                               relevance="foreground"))
                plan.contoured.add(c.clause_no)
                self.final_suppressed.add(c.clause_no)

    def _plan_connectives(self, plan: _SentencePlan):
        toks = plan.sentence.tokens
        for i, w in enumerate(plan.words):
            if w not in lexica.ADVERSATIVE_CONNECTIVES or i in plan.consumed:
                continue
            if i > 0 and toks[i - 1].kind == OTHER_PUNCT:
                plan.add_prefix(i, self._row_event("head_bi33"))
                plan.add_suffix_bi(i, BreakIndex.BI32)

    def _plan_head_contours(self, plan: _SentencePlan):
        sent = plan.sentence
        words = plan.words
        for _, c in self.ix.clauses_in(sent):
            if c.clause_no in plan.contoured:
                continue
            p = self._pred_position(sent, c)
            if p is None or p in plan.consumed or plan.has_prefix(p):
                continue
            nxt = words[p + 1] if p + 1 < len(words) else None
            if nxt in lexica.COMPLEMENT_OPENERS:
                bi = BreakIndex.BI33      # a dependent follows the head
            elif nxt in lexica.LOOSE_OPENERS:
                bi = BreakIndex.BI32      # a looser continuation follows
            else:
                continue
            if plan.has_prefix(p + 1):
                continue  # the opener already carries its own contour
            if c.pred in self.fired_preds:
                continue  # repeated predicate: prominence follows novelty
            self.fired_preds.add(c.pred)
            copular = p > 0 and words[p - 1] in lexica.COPULAS
            plan.add_prefix(p, self._row_event("internal_boundary" if copular
                                               else "head_bi33"))
            plan.add_suffix_bi(p, bi)

    def _plan_coordination(self, plan: _SentencePlan):
        starts = {start for start, _ in self.ix.clauses_in(plan.sentence)}
        for i, w in enumerate(plan.words):
            if w in lexica.COORDINATORS and (i in starts or i + 1 in starts) \
                    and i not in plan.consumed and not plan.has_prefix(i):
                plan.add_prefix(i, *_pause(BreakIndex.BI2))

    def _plan_quantifiers(self, plan: _SentencePlan):
        """A standalone quantifier pronoun takes the slowdown_quantifier
        row, whose break closes it; a modifier quantifier right before its
        group's final word, the head, takes the slowdown_head row, which
        covers the pair."""
        quantifiers = self.config.quantifiers
        for g in plan.groups:
            for i in g.words[:-1]:
                n = plan.words[i]
                if n not in quantifiers or i in plan.consumed:
                    continue
                if n in lexica.PRONOUN_QUANTIFIERS:
                    plan.add_prefix(i, self._row_event("slowdown_quantifier"))
                    plan.add_suffix_bi(i, DEFAULT_TABLE.row("slowdown_quantifier").bi)
                elif i == g.words[-2]:
                    plan.add_prefix(i, self._row_event("slowdown_head"))
                    plan.consumed.update((i, g.words[-1]))

    def _plan_group_finals(self, plan: _SentencePlan):
        sent = plan.sentence
        toks = sent.tokens
        sgroups = plan.groups
        ix = self.ix
        continues_in_quote = ix.quote_open(sent.tokens[-1].index)
        for gi, g in enumerate(sgroups):
            # every group holds a word, and a sentence's last group is
            # end-stopped (phrasing.segment, classify_junction)
            end = g.words[-1]
            sentence_final_group = gi == len(sgroups) - 1
            if end in plan.consumed:
                continue
            owner = ix.clause_at(toks[end].index)
            owner_pred = owner is not None and owner.pred == toks[end].normalized
            suppressed = owner_pred and (
                owner.clause_no in self.final_suppressed or plan.has_prefix(end))

            if len(g.words) >= 2:
                t2 = g.words[-2]
                t2n = toks[t2].normalized
                if t2 not in plan.consumed and (
                        t2n in lexica.POSSESSIVES
                        or owner_pred and not suppressed and t2n not in lexica.FUNCTION_WORDS
                        and t2n not in lexica.PRONOUN_QUANTIFIERS):
                    plan.add_prefix(t2, self._row_event("slowdown_head"))
                    continue

            if g.junction == END_STOPPED:
                if gi == 0 and all(plan.words[i] in lexica.SENTENCE_ADVERBS
                                   for i in g.words):
                    continue
                if suppressed:
                    if continues_in_quote and sentence_final_group \
                            and not plan.has_bi_suffix(end):
                        plan.chain_onward(end)
                    continue
                if plan.has_bi_suffix(end):
                    continue
                region_sents = ix.quote_sentences(toks[end].index)
                in_quote = region_sents is not None
                multi = in_quote and len(region_sents) > 1
                quote_final = multi and region_sents[-1] == sent.index
                plan.add_prefix(end, self._selected(
                    position="group_final",
                    in_quote=in_quote,
                    relevance=(owner.relevance if owner else "background"),
                    quote_final_sentence=quote_final,
                    sentence_final_group=sentence_final_group))
                if continues_in_quote and sentence_final_group:
                    plan.chain_onward(end)
                elif sentence_final_group and sent.terminal == "none":
                    # an unpunctuated sentence ends its paragraph
                    plan.add_suffix_bi(end, BreakIndex.BI4)
                else:
                    plan.add_suffix_bi(end, BreakIndex.BI3)
            else:
                nxt = sgroups[gi + 1]
                if nxt.trigger == "comparative" and not plan.has_prefix(nxt.token_span[0]):
                    plan.add_prefix(nxt.token_span[0], *_pause(BreakIndex.BI2))

    def _plan_announcement(self, plan: _SentencePlan):
        sent = plan.sentence
        if sent.terminal != "colon":
            return
        # split_document numbers sentences by their position
        sentences = self.doc.sentences
        nxt = sentences[sent.index + 1] if sent.index + 1 < len(sentences) else None
        if nxt is None or nxt.tokens[0].kind != QUOTE:
            return
        clauses = self.ix.clauses_in(sent)
        if clauses and clauses[-1][1].pred in self.config.comm_verbs:
            plan.add_suffix(len(sent.tokens) - 1, self._row_event("announce", glue=GLUE_NONE))

    def _chain_continuation(self, plan: _SentencePlan, prev_plan: _SentencePlan):
        """Open a quotation's continuation sentence with the downstepped
        contour, after a BI-2 unless the sentence before already chained
        onward.  The items go in front of the ones the rules placed."""
        first = plan.first_word   # a quotation opens only on a mark that hugs a word
        items = [] if prev_plan.end_bi2 else _pause(BreakIndex.BI2)
        items.append(self._row_event("ds_elaboration", 1))
        plan.placed[2 * first] = items + plan.placed.get(2 * first, [])


_OPENER_WORDS = lexica.COMPLEMENT_OPENERS | lexica.LOOSE_OPENERS

#: the per-sentence rules of every body sentence, in the order they run.
#: Each sees the events placed and the tokens consumed by the rules before
#: it, and the clauses and predicates that rules marked on the compile for
#: earlier sentences.  A rule with triggers, a function of the compile
#: giving words, places nothing in a sentence that holds none of them, so
#: it runs only where one occurs; a rule with None runs on every sentence.
_SENTENCE_RULES = (
    # sentence-initial contour, up-moving foreground
    (_Compile._plan_initial, None),
    # frozen pragmatic expressions
    (_Compile._plan_frozen, lambda c: c.frozen_index),
    # affect spans, paragraph-initial fronted adverbial
    (_Compile._plan_affect, lambda c: c.sad_index.keys() | lexica.SENTENCE_ADVERBS),
    # direct-speech exclamative
    (_Compile._plan_exclamative, None),
    # subordinate marker, quoted elaboration, comparative continuation,
    # resultative infinitival, foreground clause
    (_Compile._plan_clauses, None),
    # adversative connectives
    (_Compile._plan_connectives, lambda c: lexica.ADVERSATIVE_CONNECTIVES),
    # head contours with their closing pauses, on a predicate before an opener
    (_Compile._plan_head_contours, lambda c: _OPENER_WORDS),
    # clause-coordination pauses
    (_Compile._plan_coordination, lambda c: lexica.COORDINATORS),
    # quantifier slowdowns
    (_Compile._plan_quantifiers, lambda c: c.config.quantifiers),
    # group-final contours and break indices
    (_Compile._plan_group_finals, None),
    # pre-quote announcement after a reporting colon
    (_Compile._plan_announcement, None),
)


#: (row, contour index) -> the opening event of the contour's parameter
#: tuple and the contour's label (None past the row's labels)
_OPENINGS = {(row.row_id, i): (params[0], row.contours[i].label
                               if i < len(row.contours) else None)
             for row in DEFAULT_TABLE.rows for i, params in enumerate(row.params)}


def _pause(bi: BreakIndex, glue: str = GLUE_RIGHT, before: ScriptItem | None = None,
           labelled: bool = True) -> list[ScriptItem]:
    """The realization of ``bi``: its silence, then its reset if it has one.

    With ``before``, a row event, the silence (of an index without reset)
    is fused in front of that event's parameters and keeps its contour
    label; ``labelled=False`` leaves the break index off the annotation.
    """
    events = bi.events
    label = bi if labelled else None
    if before is None:
        items = [ScriptItem(events[0], glue, bi=label)]
    else:
        items = [ScriptItem(_fused(before.event, events[0].slnc), glue, before.tone_label,
                            label)]
    if len(events) > 1:
        items.append(ScriptItem(events[1], GLUE_COMPOUND))
    return items


# A fused event is frozen and built from table constants only, so each one
# is built once and shared by every placement.
@functools.cache
def _fused(event: ParamEvent, silence: int) -> ParamEvent:
    """``event``'s parameters with the silence in front."""
    return ParamEvent(event.pbas, event.rate, event.volm, silence)


# The cyclic collector's pause, shared by the compiles of every thread: the
# first to begin records the collector's state, the last to end restores it.
_PAUSE_LOCK = _thread.allocate_lock()
_paused = 0                 # run_pipeline calls under way
_resume = False             # whether the collector ran before the first of them


def run_pipeline(text: str, sidecar_text: str | None, config: Config) -> PipelineResult:
    """Parse ``sidecar_text``, if given, and compile ``text`` with ``config``.

    Both run with CPython's cyclic garbage collector paused, and the call
    restores it on every way out, a raised error included.  This is safe
    because a compile makes no reference cycles: reference counting frees
    everything it drops.  The collector's passes would free nothing, yet
    they grow with the objects a compile keeps alive: they took about 7%
    of a 16k-token story's compile and render.

    The collector's state is process-wide.  Compiles on several threads
    pause it once: the first to begin records whether it was enabled, and
    the last to end restores that.  So a caller that disabled it finds it
    disabled.  If another thread enables or disables the collector while a
    compile runs, the last compile to end resets it to the state recorded.
    """
    global _paused, _resume
    with _PAUSE_LOCK:
        if not _paused:
            _resume = gc.isenabled()
            gc.disable()
        _paused += 1
    try:
        ann = parse_sidecar(sidecar_text) if sidecar_text is not None else None
        return ProsodyManager(config).process(text, ann)
    finally:
        with _PAUSE_LOCK:
            _paused -= 1
            if not _paused:
                if _resume:
                    gc.enable()
                else:
                    gc.disable()
