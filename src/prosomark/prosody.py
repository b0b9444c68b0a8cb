"""Symbolic prosody: break indices, tone contours, analogical parameters.

The extended break-index inventory maps each emitted index to a silence
duration plus an optional parameter reset.  Tone contours are the pitch
labels of the extended inventory (nuclear accents, phrase accents, boundary
tones, downstep, opaque intensity variants 1-4).  Point-of-view tracking
attributes quoted spans to a character so continuation sentences can take
downstepped contours.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, takewhile

from . import lexica
from .docindex import DocIndex
from .ingest import WORD, Document, Token


class BreakIndex(enum.Enum):
    BI0 = "0"
    BI1 = "1"
    BI2 = "2"
    BI3 = "3"
    BI4 = "4"
    BI22 = "22"
    BI23 = "23"
    BI32 = "32"
    BI33 = "33"
    BI44 = "44"

    @property
    def label(self) -> str:
        return f"BI-{self.value}"


#: break index -> (silence ms, reset follows).  BI0/BI1 have no realization
#: and are never emitted by the pipeline.
BI_REALIZATION: dict[BreakIndex, tuple[int, bool]] = {
    BreakIndex.BI4: (300, True),
    BreakIndex.BI3: (200, True),
    BreakIndex.BI2: (100, False),
    BreakIndex.BI32: (30, True),
    BreakIndex.BI33: (50, True),
    BreakIndex.BI23: (100, True),
    BreakIndex.BI22: (300, False),
    BreakIndex.BI44: (400, False),
}

@dataclass(frozen=True)
class ParamEvent:
    """One embedded synthesizer instruction.

    ``pbas`` pitch base, ``rate`` speaking rate, ``volm`` signed volume
    delta, ``slnc`` silence in ms, ``rset`` reset-all.  A reset is always an
    event of its own.
    """
    pbas: float | None = None
    rate: int | None = None
    volm: float | None = None
    slnc: int | None = None
    rset: bool = False

    def __post_init__(self):
        fields = (self.pbas, self.rate, self.volm, self.slnc)
        if self.rset and any(f is not None for f in fields):
            raise ValueError("reset events carry no other fields")
        if not self.rset and all(f is None for f in fields):
            raise ValueError("an event carries at least one field")


RSET = ParamEvent(rset=True)


def ev(pbas=None, rate=None, volm=None, slnc=None) -> ParamEvent:
    return ParamEvent(pbas=pbas, rate=rate, volm=volm, slnc=slnc)


#: the contour shapes of the tone inventory; each may carry one of the
#: opaque intensity variants ``-1`` to ``-4``
_CONTOUR_SHAPES = frozenset({
    "H*-L", "H*-H", "H*-L%", "H*-H%", "L-L%", "L*-L%", "H-H*", "H-!H*",
    "H-!L*", "H*+L%", "H*+L-", "!L+H*%",
})


@dataclass(frozen=True)
class ToneContour:
    """A pitch label of the inventory, with the mapping-table row that
    selected it (None: the first row carrying the label)."""
    label: str
    row_id: str | None = None


def contour(label: str, row_id: str | None = None) -> ToneContour:
    """The ToneContour printed as ``label``; unknown labels raise ValueError."""
    shape = label[:-2] if label[-2:] in ("-1", "-2", "-3", "-4") else label
    if shape not in _CONTOUR_SHAPES:
        raise ValueError(f"unknown contour label {label!r}")
    return ToneContour(label, row_id)


# Point of view ---------------------------------------------------------------

NARRATOR = "narrator"


@dataclass
class POVSpan:
    holder: str
    start_token: int              # document token index of the opening quote
    end_token: int                # document token index of the closing quote
    sentences: list[int] = field(default_factory=list)

    @property
    def character(self) -> bool:
        return self.holder != NARRATOR


#: how far from a quote mark (in tokens) its communication verb may stand
ATTRIBUTION_WINDOW = 12


def track_point_of_view(doc: Document, ann, comm_verbs: set[str],
                        index: DocIndex | None = None) -> list[POVSpan]:
    """Quoted spans attributed to a character via a communication verb.

    The spans are the quotation regions of ``index``, the compile's
    ``DocIndex`` (without it one is built), which also reports stray marks.
    The point of view persists across sentences until the closing quote
    (a quotation left open ends at its opener's paragraph end);
    unattributed quotes open an anonymous character span.
    """
    ix = index if index is not None else DocIndex(doc, ann)
    tokens = doc.tokens()
    # doc.tokens() runs without gaps, so a token's list position is its
    # index less the first one's
    first = tokens[0].index if tokens else 0

    def attribution(q: int) -> str:
        # the nearest communication verb after the quote mark at tokens[q],
        # else the nearest one before it, within the window
        q_index = tokens[q].index
        after = takewhile(lambda j: tokens[j].index <= q_index + ATTRIBUTION_WINDOW,
                          range(q + 1, len(tokens)))
        before = takewhile(lambda j: tokens[j].index >= q_index - ATTRIBUTION_WINDOW,
                           range(q - 1, -1, -1))
        verb = next((j for j in chain(after, before)
                     if tokens[j].kind == WORD and tokens[j].normalized in comm_verbs),
                    None)
        if verb is None:
            return "character:anon"
        # the speaker: the nearest content word before the verb
        for j in range(verb - 1, -1, -1):
            t = tokens[j]
            if t.kind == WORD and not lexica.function_word(t.normalized) \
                    and t.normalized not in comm_verbs:
                return f"character:{t.normalized}"
        return "character:anon"

    return [POVSpan(attribution(start - first), start, end, sentences)
            for start, end, sentences in zip(ix.region_starts, ix.region_ends,
                                             ix.region_sentences)]


def character_spans_by_sentence(spans: list[POVSpan]) -> dict[int, POVSpan]:
    """Each sentence's first character span."""
    out: dict[int, POVSpan] = {}
    for sp in spans:
        if sp.character:
            for s in sp.sentences:
                out.setdefault(s, sp)
    return out


def span_for_sentence(spans: list[POVSpan], sent_index: int) -> POVSpan | None:
    return character_spans_by_sentence(spans).get(sent_index)


# Break indices ---------------------------------------------------------------

@dataclass
class BreakContext:
    """Where an end-stopped breath group ends."""
    at_punct: bool = False
    sentence_final: bool = False
    paragraph_final: bool = False


def assign_break_index(context: BreakContext) -> BreakIndex:
    """Map the end of a breath group to its break index.

    Punctuation outranks paragraph position: the markup gives a punctuated
    paragraph-final sentence the plain end-of-group index, so the strong
    paragraph break only fires on punctuation-less sentences.  The rules
    that place a fixed break (title, head, quantifier, exclamative) name
    its index themselves.
    """
    if context.at_punct:
        return BreakIndex.BI3
    if context.sentence_final and context.paragraph_final:
        return BreakIndex.BI4
    if context.sentence_final:
        return BreakIndex.BI3
    return BreakIndex.BI2


# Frozen expressions ----------------------------------------------------------

@dataclass
class FrozenEntry:
    """A frozen expression.  Its contour and parameters are the mapping-table
    row named by its role, and those of its address-term tail the row
    ``<role>_tail``."""
    pattern: list[str]
    role: str
    tail_class: str | None = None        # e.g. address term after the pattern


def build_frozen_entries(frozen_table: list[tuple[list[str], str]]) -> list[FrozenEntry]:
    return [FrozenEntry(pattern, role, lexica.FROZEN_ROLES[role])
            for pattern, role in frozen_table if role in lexica.FROZEN_ROLES]


@dataclass
class FrozenMatch:
    length: int                       # tokens covered, address tail included
    entry: FrozenEntry
    pattern_positions: list[int]
    tail_position: int | None


def match_frozen(tokens: list[Token], start: int,
                 entries: list[FrozenEntry]) -> FrozenMatch | None:
    """Longest frozen-expression match at the current token."""
    best: FrozenMatch | None = None
    for entry in entries:
        n = len(entry.pattern)
        window = tokens[start:start + n]
        if len(window) < n:
            continue
        if any(t.kind != WORD or t.normalized != w
               for t, w in zip(window, entry.pattern)):
            continue
        length = n
        tail_pos = None
        if entry.tail_class == "dear":
            j = start + n
            while j < len(tokens) and tokens[j].kind == "comma":
                j += 1
            if j < len(tokens) and tokens[j].kind == WORD \
                    and tokens[j].normalized in lexica.DEAR_TERMS:
                tail_pos = j
                length = j - start + 1
        match = FrozenMatch(length, entry, list(range(start, start + n)), tail_pos)
        if best is None or match.length > best.length:
            best = match
    return best


# Quantifier and head slowdowns ------------------------------------------------

#: quantifier pronouns stand alone and take the pre-quantifier slowdown with
#: its closing pause; modifier quantifiers join the following head under the
#: head slowdown instead
PRONOUN_QUANTIFIERS = {"nobody", "nothing", "none", "everyone", "everybody",
                       "anybody", "anything", "someone", "somebody", "no_one"}


def mark_quantifier_slowdown(group, sentence, quantifiers: set[str],
                             skip: set[int] | None = None):
    """Pre-word slowdown adjustments for one group.

    A standalone quantifier pronoun takes the ``slowdown_quantifier`` row,
    whose break closes it; a modifier quantifier directly before the
    group-final head takes the ``slowdown_head`` row (which then covers the
    final pair, so the head position is returned for suppression).  Result:
    a list of (token position, mapping-table row id, covered positions).
    Every group holds a word (``phrasing.segment``).
    """
    toks = sentence.tokens
    skip = skip or set()
    out = []
    positions = [i for i in group.positions() if toks[i].kind == WORD]
    final = positions[-1]
    for i in positions:
        if i in skip:
            continue
        n = toks[i].normalized
        if n not in quantifiers:
            continue
        if n in PRONOUN_QUANTIFIERS and i != final:
            out.append((i, "slowdown_quantifier", {i}))
        elif i != final and all(toks[j].kind != WORD or j == final
                                for j in range(i + 1, final + 1)):
            out.append((i, "slowdown_head", {i, final}))
    return out


# Tone selection ---------------------------------------------------------------

@dataclass
class ToneContext:
    """Everything select_tone may consult for one decision point."""
    position: str = "sentence_internal"
    move: str = "level"
    relevance: str = "background"
    affect: str = "neutral"
    in_quote: bool = False
    character_pov: bool = False
    paragraph_initial: bool = False
    after_first_paragraph: bool = False
    quote_final_sentence: bool = False
    sentence_final_group: bool = False


def select_tone(ctx: ToneContext) -> ToneContour:
    """Decision table mapping a prosodic context to a tone contour.

    Transcribed from the tone inventory for the points where the context
    decides: sad affect, sentence start, sentence-internal foreground and
    group end.  The rules that always place one row name it themselves.
    The neutral default falls through to H*-L.
    """
    if ctx.affect == "sad":
        return contour("L*-L%", row_id="sad")
    if ctx.position == "sentence_initial":
        if ctx.move == "up" and ctx.relevance == "foreground":
            if ctx.paragraph_initial and ctx.after_first_paragraph:
                return contour("H*-H-1", row_id="up_fg_parainit")
            return contour("H*-H", row_id="up_fg")
        return contour("H*-L", row_id="default")
    if ctx.position == "group_final":
        if ctx.character_pov and ctx.quote_final_sentence and ctx.sentence_final_group:
            return contour("H*-L%-2", row_id="adjunct_bg")
        if ctx.in_quote and ctx.relevance == "foreground":
            return contour("H*-L", row_id="internal_fg")
        return contour("H*-L%", row_id="eog_internal")
    if ctx.position == "sentence_internal" and ctx.relevance == "foreground":
        return contour("H-H*-2", row_id="adjunct_fg")
    return contour("H*-L", row_id="default")
