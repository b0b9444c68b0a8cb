"""The per-compile lookup index against the whole-document scans it replaced.

Each ``_ref_*`` function is the earlier brute-force lookup, kept here as the
reference: the index must give the same answer on randomized documents and
annotation sets (nested, overlapping and tied clause spans, stray and
unclosed quotes, paragraph breaks).
"""

import random

import pytest

from prosomark.annotations import AnnotationSet, ClauseFeatures, innermost_clauses
from prosomark.docindex import DocIndex
from prosomark.ingest import QUOTE, WORD, split_document, tokenize
from prosomark.prosody import track_point_of_view


# Reference implementations -----------------------------------------------------

def _ref_clause_at(ann, token_index):
    best = None
    best_width = None
    for c in ann.clauses:
        span = ann.clause_spans.get(c.clause_no)
        if span and span[0] <= token_index <= span[1]:
            width = span[1] - span[0]
            if best_width is None or width < best_width:
                best, best_width = c, width
    return best


def _ref_clauses_in(sent, ann):
    by_index = {t.index: i for i, t in enumerate(sent.tokens)}
    out = []
    for c in ann.clauses:
        span = ann.clause_spans.get(c.clause_no)
        if span and span[0] in by_index:
            out.append((by_index[span[0]], c))
    out.sort(key=lambda pair: pair[0])
    return out


def _ref_sentence_first_clause(sent, ann):
    indices = {t.index for t in sent.tokens}
    best = None
    for c in ann.clauses:
        span = ann.clause_spans.get(c.clause_no)
        if span and span[0] in indices:
            if best is None or span[0] < ann.clause_spans[best.clause_no][0]:
                best = c
    return best


def _ref_quotes(doc):
    """Quote depth after each token, regions, their sentences, diagnostics."""
    tokens = doc.tokens()
    sent_of = {t.index: s.index for s in doc.sentences for t in s.tokens}
    para_of = {t.index: s.paragraph_index for s in doc.sentences for t in s.tokens}

    def paragraph_end(token_index):
        return max(t.index for t in tokens if para_of[t.index] == para_of[token_index])

    depth, open_at = 0, None
    depths, regions, diags = {}, [], []
    for i, t in enumerate(tokens):
        if t.kind == QUOTE:
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            opener = nxt is not None and nxt.kind == WORD and nxt.pre_ws == ""
            para_start = i == 0 or para_of[tokens[i - 1].index] != para_of[t.index]
            if opener and depth > 0 and para_start:
                # reopened at a later paragraph's start: the open quotation
                # closes at its own paragraph end
                end = paragraph_end(open_at)
                regions.append((open_at, end))
                depths.update((u.index, 0) for u in tokens if end < u.index < t.index)
                depth = 0
            if opener and depth == 0:
                depth, open_at = 1, t.index
            elif depth > 0:
                depth = 0
                regions.append((open_at, t.index))
                open_at = None
            else:
                diags.append(f"unbalanced quotation mark ignored ({t.surface!r} "
                             f"in sentence {sent_of.get(t.index, '?')})")
        depths[t.index] = depth
    if open_at is not None:
        # a quotation left open closes at its opener's paragraph end
        diags.append("quotation left open at document end")
        end = paragraph_end(open_at)
        regions.append((open_at, end))
        depths.update((t.index, 0) for t in tokens if t.index > end)

    def region_sentences(region):
        return sorted({sent_of[i] for i in range(region[0], region[1] + 1) if i in sent_of})

    def region_of(token_index):
        for region in regions:
            if region[0] <= token_index <= region[1]:
                return region_sentences(region)
        return None

    return depths, region_of, diags


def _ref_pov(doc):
    """Quoted spans as (start, end, sentences); a span left open, at the
    document end or when a mark reopens a later paragraph, ends at its
    paragraph's last token and holds every sentence up to it."""
    from prosomark.ingest import quote_is_opener

    spans = []
    tokens = doc.tokens()
    open_quote = None
    para_of = {t.index: s.paragraph_index for s in doc.sentences for t in s.tokens}
    sent_of = {t.index: s.index for s in doc.sentences for t in s.tokens}

    def close_at_paragraph_end():
        para = para_of[open_quote]
        last = max((t.index for t in tokens if para_of[t.index] == para), default=open_quote)
        sents = sorted({sent_of[j] for j in range(open_quote, last + 1) if j in sent_of})
        spans.append((open_quote, last, sents))

    for i, t in enumerate(tokens):
        if t.kind != QUOTE:
            continue
        if open_quote is not None and quote_is_opener(tokens, i) \
                and para_of[tokens[i - 1].index] != para_of[t.index]:
            close_at_paragraph_end()
            open_quote = None
        if open_quote is None:
            if quote_is_opener(tokens, i):
                open_quote = t.index
        else:
            sents = sorted({sent_of[j] for j in range(open_quote, t.index + 1) if j in sent_of})
            spans.append((open_quote, t.index, sents))
            open_quote = None
    if open_quote is not None:
        close_at_paragraph_end()
    return spans


# Random inputs ------------------------------------------------------------------

WORDS = ("the a cat fox crow mouse bell old sly and but or while if to of her "
         "said cried replied saw ran came nobody every who that is was very").split()
MARKS = (",", ".", "?", "!", ":", '"', "“", "”", '"')


def _random_text(rng):
    parts = []
    for _ in range(rng.randint(0, 70)):
        r = rng.random()
        piece = (rng.choice(WORDS) if r < 0.7 else rng.choice(MARKS) if r < 0.95
                 else "\n\n")
        parts.append(("" if rng.random() < 0.35 else " ") + piece)
    return "".join(parts)


def _random_ann(rng, n_tokens, words):
    """Clauses with nested, overlapping, tied, reversed and out-of-range
    spans, in shuffled number order, some numbers repeated."""
    ann = AnnotationSet()
    for k in range(rng.randint(0, 14)):
        no = rng.randint(1, 8) if rng.random() < 0.2 else k + 1
        a = rng.randint(-3, n_tokens + 2)
        width = rng.choice([0, 1, 2, 5, 12, n_tokens])
        b = a + width if rng.random() < 0.9 else a - 1
        if ann.clauses and rng.random() < 0.2:
            prev = ann.clause_spans.get(ann.clauses[-1].clause_no)
            if prev:
                a, b = prev
        c = ClauseFeatures(no, aspect=rng.choice(("activity", "state")),
                           pred=rng.choice(words) if words else "x")
        ann.clauses.append(c)
        ann.clause_spans.setdefault(no, (a, b))
    rng.shuffle(ann.clauses)
    return ann


def _cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        text = _random_text(rng)
        tokens = tokenize(text)
        doc = split_document(tokens, "off")
        words = [t.normalized for t in tokens if t.kind == WORD]
        yield rng, text, doc, _random_ann(rng, len(tokens), words)


# Tests --------------------------------------------------------------------------------

def test_innermost_clause_matches_the_scan():
    for rng, text, doc, ann in _cases(400, 1):
        n = len(text) // 2 + 3
        owners = innermost_clauses(ann, n)
        assert len(owners) == n
        for t in range(n):
            assert owners[t] is _ref_clause_at(ann, t), (text, t)
        ix = DocIndex(doc, ann)
        for t in doc.tokens():
            assert ix.clause_at(t.index) is _ref_clause_at(ann, t.index)
            assert ann.clause_at(t.index) is _ref_clause_at(ann, t.index)


def test_innermost_clause_ties_and_gaps():
    ann = AnnotationSet()
    for no, span in ((1, (0, 9)), (2, (2, 4)), (3, (3, 5)), (4, (2, 4))):
        ann.clauses.append(ClauseFeatures(no))
        ann.clause_spans[no] = span
    owners = innermost_clauses(ann, 12)
    assert [c.clause_no if c else None for c in owners] == \
        [1, 1, 2, 2, 2, 3, 1, 1, 1, 1, None, None]


def test_huge_span_does_not_size_the_index():
    ann = AnnotationSet([ClauseFeatures(1)], clause_spans={1: (0, 2_000_000_000)})
    owners = innermost_clauses(ann, 3)
    assert len(owners) == 3 and all(o is ann.clauses[0] for o in owners)


def test_clauses_per_sentence_keep_their_order():
    for rng, text, doc, ann in _cases(300, 2):
        ix = DocIndex(doc, ann)
        for sent in doc.sentences:
            expected = _ref_clauses_in(sent, ann)
            got = ix.clauses_in(sent)
            assert [(p, id(c)) for p, c in got] == [(p, id(c)) for p, c in expected]
            first = got[0][1] if got else None
            assert first is _ref_sentence_first_clause(sent, ann)


def test_quote_regions_match_the_scan():
    for rng, text, doc, ann in _cases(400, 3):
        ix = DocIndex(doc, ann)
        depths, region_of, ref_diags = _ref_quotes(doc)
        assert ix.notes == ref_diags, text
        for t in doc.tokens():
            assert ix.quote_open(t.index) == depths[t.index]
            assert ix.quote_sentences(t.index) == region_of(t.index), (text, t.index)


def test_quotation_reopened_at_each_paragraph():
    # a quotation over two paragraphs, the second reopened with a mark
    text = 'He said: "The cat ran. It fell.\n\n"The dog sat. It ran."\n'
    doc = split_document(tokenize(text), "off")
    ix = DocIndex(doc, AnnotationSet())
    assert ix.notes == []
    marks = [t.index for t in doc.tokens() if t.kind == QUOTE]
    first_end = doc.sentences[2].tokens[-1].index
    assert [(q.start_token, q.end_token, q.sentences) for q in ix.quotations] == \
        [(marks[0], first_end, [1, 2]), (marks[1], marks[2], [3, 4])]
    assert [ix.quote_open(t.index) for t in doc.sentences[3].tokens] == [True] * 5
    depths, region_of, ref_diags = _ref_quotes(doc)
    assert ref_diags == []
    assert all(ix.quote_open(t.index) == depths[t.index]
               and ix.quote_sentences(t.index) == region_of(t.index) for t in doc.tokens())


@pytest.mark.parametrize("text,closes_at", [
    # a mark inside a later paragraph, or one that opens no word, still
    # closes the open quotation
    ('He said: "The cat ran.\n\nThe dog sat " and ran.', 1),
    ('He said: "The cat ran.\n\n" The dog sat.', 1),
])
def test_later_paragraph_marks_that_do_not_reopen(text, closes_at):
    doc = split_document(tokenize(text), "off")
    ix = DocIndex(doc, AnnotationSet())
    marks = [t.index for t in doc.tokens() if t.kind == QUOTE]
    assert [(q.start_token, q.end_token) for q in ix.quotations] == \
        [(marks[0], marks[closes_at])]


@pytest.mark.parametrize("seed", [4, 5])
def test_point_of_view_matches_the_scan(seed):
    for rng, text, doc, ann in _cases(300, seed):
        spans = track_point_of_view(doc, ann)
        assert [(s.start_token, s.end_token, s.sentences) for s in spans] \
            == _ref_pov(doc), text
