"""Breath-group segmentation.

A breath group is a syntactically and semantically coherent run of a
sentence's words read in one breath.  Punctuation is followed first, then
a cascade of syntactic triggers (coordination, subordinators, infinitival
complements, relatives, long subjects, sentence-initial adverbials, final
adjuncts).  Constituent length is checked both ways: splits that would
create a group shorter than ``min_len`` source words are suppressed
(appositives, parentheticals and comma-marked sentence-initial adverbials
stay standalone, as the reference decomposition shows), and groups longer
than ``max_len`` are re-split at the strongest internal trigger.
"""

from __future__ import annotations

from itertools import accumulate

from . import lexica
from .annotations import is_verby
from .docindex import DocIndex
from .ingest import COMMA, QUOTE, TERMINAL, WORD, Record, Sentence, classify_comma

END_STOPPED = "end_stopped"
ENJAMBED = "enjambed"

_LOCATIVE_PREPS = {"above", "below", "under", "over", "behind", "beside",
                   "near", "beneath"}

_INTENSIFIERS = {"very", "quite", "rather", "so", "too"}
_ADVERBIAL_RUN = frozenset(lexica.SENTENCE_ADVERBS | _INTENSIFIERS)

#: the words a group longer than ``max_len`` is re-split before
_RESPLIT_AT = frozenset(lexica.COMPLEMENT_OPENERS | lexica.RELATIVE_PRONOUNS
                        | lexica.SUBORDINATORS | lexica.COORDINATORS)


# slotted: a document holds one per breath group
class BreathGroup(Record):
    """A run of a sentence's words read in one breath: their sentence-local
    positions, the rule that opened the group and how it ends."""
    __slots__ = ("words", "trigger", "junction")

    def __init__(self, words: list[int], trigger: str = "start", junction: str = ENJAMBED):
        self.words, self.trigger, self.junction = words, trigger, junction

    @property
    def token_span(self) -> tuple[int, int]:
        """The positions of the first and the last word."""
        return self.words[0], self.words[-1]

    def positions(self) -> range:
        """Every position from the first word to the last."""
        return range(self.words[0], self.words[-1] + 1)


def _is_verbish(word: str, ix: DocIndex) -> bool:
    return is_verby(word) or word in ix.verb_preds


def segment(sentence: Sentence, ix: DocIndex, config) -> list[BreathGroup]:
    """Split one sentence into breath groups.

    ``ix`` is the compile's ``DocIndex`` over the whole document: the
    clauses and quotations a sentence's rules read may open before it.
    """
    toks = sentence.tokens
    norms = sentence.words
    words = [i for i, w in enumerate(norms) if w is not None]
    if not words:
        return []

    affect_words = config.affect_words

    boundaries: dict[int, str] = {words[0]: "start"}
    clause_starts = {start for start, _ in ix.clauses_in(sentence)}

    def add(pos: int, trigger: str):
        # every caller passes a word position; first (strongest) trigger wins
        if pos not in boundaries:
            boundaries[pos] = trigger

    # rule: punctuation first; quote marks always close/open a group.  The
    # first mark after a word names the trigger of the next word.
    for a, b in zip(words, words[1:]):
        if b > a + 1:
            add(b, "quote" if toks[a + 1].kind == QUOTE else "punct")

    prev_word = None
    for k, i in enumerate(words):
        n = norms[i]
        # rule: coordinate structures joining clauses
        if n in lexica.COORDINATORS:
            if i in clause_starts or (i + 1) in clause_starts:
                add(i, "coordination")
            elif prev_word in affect_words:
                add(i, "coordination")
        # rule: subordinate clauses (comparatives share the slot)
        elif n in lexica.SUBORDINATORS:
            add(i, "comparative" if n in ("as", "than") else "subordinator")
        # rule: infinitival complements (not after a verb)
        elif n == "to" and k:
            if (k + 1 < len(words)
                    and norms[words[k + 1]] not in lexica.FUNCTION_WORDS
                    and not _is_verbish(prev_word, ix)
                    and prev_word not in lexica.PREPOSITIONS):
                add(i, "infinitival")
        # rule: relative clauses after a content noun
        elif n in lexica.RELATIVE_PRONOUNS:
            if prev_word in lexica.PREPOSITIONS:
                if norms[words[k - 2]] not in lexica.FUNCTION_WORDS:
                    add(words[k - 1], "relative")
            elif prev_word not in lexica.FUNCTION_WORDS:
                add(i, "relative")
        prev_word = n

    # rule: long subject before its verb phrase
    lead = []
    for i in words:
        if _is_verbish(norms[i], ix):
            if len(lead) >= config.max_subj:
                add(i, "subject_vp")
            break
        lead.append(i)

    # rule: sentence-initial adverbial phrase (a comma after it has cut already)
    first = words[0]
    if norms[first] in lexica.SENTENCE_ADVERBS:
        src = toks[first].source_words
        j = 0
        while j + 1 < len(words) and norms[words[j + 1]] in _ADVERBIAL_RUN:
            j += 1
            src += toks[words[j]].source_words
        if src >= config.min_len and j + 1 < len(words):
            add(words[j + 1], "adverbial")
    elif norms[first] in _INTENSIFIERS and len(words) > 2:
        if norms[words[1]].endswith("ly"):
            add(words[2], "adverbial")

    # rule: final locative adjunct of a quoted exclamative/interrogative sentence
    if sentence.terminal in ("question", "exclamation") and len(words) >= 4 \
            and ix.quote_sentences(toks[words[-1]].index) is not None:
        for i in reversed(words[:-1]):
            if norms[i] in _LOCATIVE_PREPS:
                tail = [w for w in words if w >= i]
                if 2 <= len(tail) <= 3:
                    add(i, "adjunct")
                break

    groups = _groups_from_cuts(sentence, words, boundaries, config)
    for g in groups:
        g.junction = classify_junction(g, sentence)
    return groups


def _groups_from_cuts(sentence, words, boundaries, config) -> list[BreathGroup]:
    """The breath groups of ``words``, the sentence's word positions, cut
    before each position of ``boundaries`` and then checked both ways.

    A cut is an index into ``words``.  A fragment shorter than ``min_len``
    source words loses its cut, unless a comma before it marks an
    appositive, vocative or parenthetical.  A short first fragment then
    loses the second cut too, unless the second group opens at punctuation
    (a comma-marked sentence-initial adverbial among them).  A group longer
    than ``max_len`` gains a cut before each opener after its first word
    while the rest is still too long.  Each group is built once, at the end.
    """
    toks, norms = sentence.tokens, sentence.words
    # src[k]: the source words of words[:k]
    src = list(accumulate((toks[i].source_words for i in words), initial=0))
    firsts = [k for k, i in enumerate(words) if i in boundaries] + [len(words)]

    kept = [0]
    for k, end in zip(firsts[1:-1], firsts[2:]):
        if src[end] - src[k] < config.min_len:
            # a later fragment never starts the sentence, so a token precedes it
            j = words[k] - 1
            if not (boundaries[words[k]] == "punct" and toks[j].kind == COMMA
                    and classify_comma(sentence, j) != "other"):
                continue
        kept.append(k)
    kept.append(len(words))

    if len(kept) > 2:
        second = kept[1]
        if src[second] < config.min_len and boundaries[words[second]] not in ("punct", "quote"):
            del kept[1]

    cuts = []                            # (cut, trigger of its group)
    for a, b in zip(kept, kept[1:]):
        cuts.append((a, boundaries[words[a]]))
        for k in range(a + 1, b):
            if src[b] - src[cuts[-1][0]] <= config.max_len:
                break
            if norms[words[k]] in _RESPLIT_AT:
                cuts.append((k, "complement"))
    ends = [a for a, _ in cuts[1:]] + [len(words)]
    return [BreathGroup(words[a:b], trigger=trigger) for (a, trigger), b in zip(cuts, ends)]


def classify_junction(group: BreathGroup, sentence: Sentence) -> str:
    """Enjambed when the first token after the group, quote marks skipped,
    is a word; end-stopped at punctuation or the sentence end."""
    toks = sentence.tokens
    for j in range(group.words[-1] + 1, len(toks)):
        if toks[j].kind != QUOTE:
            return ENJAMBED if toks[j].kind == WORD else END_STOPPED
    return END_STOPPED


# Debug dump -----------------------------------------------------------------

GROUP_MARK = "β"  # β


def render_groups(doc, groups_by_sentence) -> str:
    """One group per line followed by the boundary mark.

    Zero-width boundaries (a bare mark on its own line) appear where a quote
    mark meets a sentence terminal; none is emitted at the document edges.
    """
    lines: list[str] = []
    for sent in doc.sentences:
        if sent.is_title:
            continue
        groups = groups_by_sentence.get(sent.index, [])
        if not groups:
            continue
        toks = sent.tokens
        if toks[0].kind == QUOTE and lines:
            lines.append(GROUP_MARK)
        for g in groups:
            text = " ".join(sent.words[i] for i in g.words)
            lines.append(f"{text} {GROUP_MARK}")
        kinds = [t.kind for t in toks[-3:]]
        if any({a, b} == {QUOTE, TERMINAL} for a, b in zip(kinds, kinds[1:])):
            lines.append(GROUP_MARK)
    # a mark is only appended after a group line, so none leads
    while lines and lines[-1] == GROUP_MARK:
        lines.pop()
    return "\n".join(lines) + ("\n" if lines else "")
