"""Per-compile lookups over one document and its annotations.

A compile builds one ``DocIndex`` after analysis and hands it to every
stage, so "which clause owns this token", "which clauses start in this
sentence" or "which quotation holds this token" is a list lookup or a
bisect, never a scan of the whole document.  Per-token structures are flat
lists sized by the document's token count, so memory is O(tokens +
clauses).  The index describes one compile and is not kept on the
``AnnotationSet``, which the caller may change between compiles.
"""

from __future__ import annotations

from bisect import bisect_right

from .annotations import AnnotationSet, ClauseFeatures, DiscourseNode, innermost_clauses
from .ingest import QUOTE, Document, Sentence, Shown, Token, quote_is_opener


class POVSpan(Shown):
    """One quotation: direct speech, the only point of view the rules read."""

    def __init__(self, start_token: int, end_token: int, sentences: list[int]):
        self.start_token = start_token      # document token index of the opening quote
        self.end_token = end_token          # closing quote, or the paragraph's last token
        self.sentences = sentences          # the sentences holding its tokens


class DocIndex:
    """Lookups for one compile of ``doc`` with ``ann``; ``notes`` holds the
    quote scan's notes on stray and unclosed marks, in document order."""

    def __init__(self, doc: Document, ann: AnnotationSet):
        n = doc.token_count()
        self.spans = ann.clause_spans
        self._owner = innermost_clauses(ann, n)
        self._nodes: dict[int, DiscourseNode] = {}
        for node in ann.nodes:
            self._nodes.setdefault(node.clause_no, node)
        #: predicates of non-stative clauses (stative ones are adjectives)
        self.verb_preds = {c.pred for c in ann.clauses if c.aspect != "state"}

        starting: dict[int, list[ClauseFeatures]] = {}
        for c in ann.clauses:
            span = ann.clause_spans.get(c.clause_no)
            if span:
                starting.setdefault(span[0], []).append(c)
        self.sentence_of: list[Sentence | None] = [None] * n
        self.paragraph_last: dict[int, Sentence] = {}
        self._sentence_clauses: dict[int, list[tuple[int, ClauseFeatures]]] = {}
        for s in doc.sentences:
            self.paragraph_last[s.paragraph_index] = s
            # a sentence's tokens have consecutive indices
            first = s.tokens[0].index
            self.sentence_of[first:first + len(s.tokens)] = [s] * len(s.tokens)
            self._sentence_clauses[s.index] = []
        # a start on no token of the document files nowhere
        for start in sorted(starting):
            s = self.sentence_of[start] if 0 <= start < n else None
            if s is not None:
                local = start - s.tokens[0].index
                self._sentence_clauses[s.index].extend((local, c) for c in starting[start])

        #: the quotations in document order
        self.quotations: list[POVSpan] = []
        self._quote_starts: list[int] = []      # their opening quotes
        self._open_ends: list[int] = []         # their last token inside the marks
        self.notes: list[str] = []
        self._scan_quotes(doc.tokens())

    def _scan_quotes(self, tokens: list[Token]):
        """The quotations, from a walk over the quote marks.

        A quote mark opens a quotation when it hugs the following word
        (no whitespace between them); nesting deeper than one is not
        attempted.  Stray marks draw a diagnostic and do not toggle.  A
        quotation still open when an opening mark starts a later paragraph
        (a quotation over several paragraphs, each reopened with a mark)
        or at the document end closes at its opener's paragraph end.
        """
        sentence_of = self.sentence_of
        open_at: int | None = None
        for i in [i for i, t in enumerate(tokens) if t.kind == QUOTE]:
            t = tokens[i]
            opener = quote_is_opener(tokens, i)
            if open_at is not None and opener and \
                    sentence_of[tokens[i - 1].index].paragraph_index \
                    != sentence_of[t.index].paragraph_index:
                self._close_at_paragraph_end(open_at)
                open_at = None
            if open_at is None and opener:
                open_at = t.index
            elif open_at is not None:
                self._add_quotation(open_at, t.index, t.index - 1)
                open_at = None
            else:
                self.notes.append(
                    f"unbalanced quotation mark ignored ({t.surface!r} "
                    f"in sentence {sentence_of[t.index].index})")
        if open_at is not None:
            self.notes.append("quotation left open at document end")
            self._close_at_paragraph_end(open_at)

    def _close_at_paragraph_end(self, start: int):
        """End the quotation opened at ``start`` at its paragraph's last token."""
        end = self.paragraph_last[self.sentence_of[start].paragraph_index].tokens[-1].index
        self._add_quotation(start, end, end)

    def _add_quotation(self, start: int, end: int, open_end: int):
        # sentences partition the tokens in order: its sentences are a range
        self._quote_starts.append(start)
        self._open_ends.append(open_end)
        self.quotations.append(POVSpan(start, end, list(range(
            self.sentence_of[start].index, self.sentence_of[end].index + 1))))

    # -- lookups -------------------------------------------------------------

    def clause_at(self, token_index: int) -> ClauseFeatures | None:
        """The narrowest clause holding the token (see ``innermost_clauses``)."""
        return self._owner[token_index]

    def node(self, clause_no: int) -> DiscourseNode | None:
        """The first discourse node of the clause."""
        return self._nodes.get(clause_no)

    def clauses_in(self, sent: Sentence) -> list[tuple[int, ClauseFeatures]]:
        """(sentence-local start, clause) for each clause starting in the
        sentence, by start position, then in clause-list order."""
        return self._sentence_clauses.get(sent.index, [])

    def quote_open(self, token_index: int) -> bool:
        """Whether a quotation is open after the token: from its opening mark
        to the token before its closing mark, or to its paragraph's end."""
        k = bisect_right(self._quote_starts, token_index) - 1
        return k >= 0 and token_index <= self._open_ends[k]

    def quote_sentences(self, token_index: int) -> list[int] | None:
        """Sentences of the quotation holding the token, or None."""
        k = bisect_right(self._quote_starts, token_index) - 1
        if k >= 0 and token_index <= self.quotations[k].end_token:
            return self.quotations[k].sentences
        return None
