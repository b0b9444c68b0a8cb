"""Symbolic prosody: break indices, tone contours, analogical parameters.

The extended break-index inventory maps each emitted index to a silence
duration plus an optional parameter reset.  The mapping table pairs every
row of the tone inventory with its analogical parameter tuple(s) and its
pitch labels (nuclear accents, phrase accents, boundary tones, downstep,
opaque intensity variants 1-4); each label is a ``ToneContour`` of its row,
and ``select_tone`` returns one of them.  Point-of-view tracking attributes
quoted spans to a character so continuation sentences can take
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


# Mapping table ---------------------------------------------------------------

@dataclass(frozen=True)
class ToneContour:
    """A pitch label of the inventory: contour ``index`` of the mapping-table
    row ``row_id``.  Only the table builds contours (``_row``)."""
    label: str
    row_id: str
    index: int


def bi_to_params(bi: BreakIndex) -> list[ParamEvent]:
    silence, reset = BI_REALIZATION[bi]
    out = [ev(slnc=silence)]
    if reset:
        out.append(RSET)
    return out


@dataclass(frozen=True)
class MappingRow:
    row_id: str
    description: str
    params: tuple[tuple[ParamEvent, ...], ...]   # one tuple per contour
    contours: tuple[ToneContour, ...]
    bi: BreakIndex | None = None

    def flat_params(self) -> list[ParamEvent]:
        out = []
        for group in self.params:
            out.extend(group)
        if self.bi is not None:
            out.extend(bi_to_params(self.bi))
        return out


def _row(row_id, description, params, labels, bi=None) -> MappingRow:
    return MappingRow(
        row_id, description,
        tuple(tuple(p) for p in params),
        tuple(ToneContour(lbl, row_id, i) for i, lbl in enumerate(labels)),
        bi)


#: the tone inventory with its analogical parameterization: the only home of
#: the pitch, rate and volume the rules place.  The two duplicated
#: subordinate-marker and coordinate-clause descriptions are merged into
#: single rows (parameters from the first occurrence, the bare downstepped
#: label kept as an alias).  The last three rows carry no contour label, so
#: the annotation line does not show them.
TONE_ROWS: tuple[MappingRow, ...] = (
    _row("title", "beginning of text, title line",
         [[ev(pbas=38.0, rate=160, volm=+0.5)]], ["H*-L"]),
    _row("eog_internal", "end of breath group, sentence internal",
         [[ev(pbas=38.0, rate=130, volm=+0.3)]], ["H*-L%"], BreakIndex.BI3),
    _row("up_fg", "sentence start, up move with foreground relevance",
         [[ev(pbas=44.0, rate=140, volm=+0.3)]], ["H*-H"]),
    _row("up_fg_parainit", "sentence start, up move with foreground "
         "relevance after a paragraph boundary",
         [[ev(pbas=54.0, rate=170, volm=+0.3)]], ["H*-H-1"]),
    _row("internal_boundary", "sentence-internal breath-group boundary",
         [[ev(pbas=40.0, rate=140, volm=+0.3)]], ["H*-L%-1"]),
    _row("head_bi33", "end of breath group at a syntactic head",
         [[ev(pbas=36.0, rate=110, volm=+0.5)]], ["L-L%"], BreakIndex.BI33),
    _row("internal_fg", "sentence internal with foreground relevance",
         [[ev(pbas=40.0, rate=150, volm=+0.5)]], ["H*-L"]),
    _row("adjunct_fg", "sentence-internal adjunct clause, foreground",
         [[ev(pbas=50.0, rate=120, volm=+0.5)]], ["H-H*-2"]),
    _row("adjunct_bg", "sentence-internal adjunct clause, background",
         [[ev(pbas=40.0, rate=120, volm=+0.5)],
          [ev(pbas=38.0, rate=130, volm=+0.3)]],
         ["H-H*-4", "H*-L%-2"], BreakIndex.BI3),
    _row("ds_exclamative", "direct-speech breath-group boundary, exclamative",
         [[ev(pbas=54.0, rate=170, volm=+0.3)]], ["H*-H%"],
         BreakIndex.BI44),
    _row("sad", "sad affective tone on a phrase or word",
         [[ev(pbas=36.0, rate=110, volm=-0.2), RSET]], ["L*-L%"]),
    _row("subordinate_marker", "discourse marker opening a subordinate "
         "clause, sentence internal (merged duplicate row)",
         [[ev(pbas=48.0, rate=150, volm=+0.3)],
          [ev(pbas=44.0, rate=140, volm=+0.3)]],
         ["H*-H-3", "H-!H*-2"]),
    _row("coordinate_fg", "coordinate clause with foreground relevance, "
         "sentence internal (merged duplicate row)",
         [[ev(pbas=50.0, rate=120, volm=+0.5)],
          [ev(pbas=44.0, rate=140, volm=+0.3)]],
         ["H*-H-2", "H-!H*-2"]),
    _row("ds_elaboration", "direct speech, elaboration or explanation",
         [[ev(pbas=54.0, rate=170, volm=+0.3)],
          [ev(pbas=50.0, rate=160, volm=+0.5)]],
         ["H*-H-1", "H-!H*-1"]),
    _row("resultative_inf", "declarative with a resultative infinitival",
         [[ev(slnc=100, pbas=40.0, rate=150, volm=+0.5)],
          [ev(slnc=100, pbas=38.0, rate=150, volm=+0.5)]],
         ["H-!L*"]),
    _row("split_exclamative", "split exclamative",
         [[ev(pbas=54.0, rate=170, volm=+0.3)],
          [ev(pbas=36.0, rate=110, volm=-0.2), RSET]],
         ["H*+L%"]),
    _row("exhortative", "exhortative frozen expression",
         [[ev(pbas=57.0, rate=170, volm=+0.5)],
          [ev(pbas=36.0, rate=170, volm=+0.5)]],
         ["H*+L-"]),
    _row("exhortative_tail", "exhortative address-term tail",
         [[ev(pbas=24.0, rate=130, volm=+0.5)],
          [ev(pbas=60.0, rate=150, volm=+0.5)]],
         ["!L+H*%"], BreakIndex.BI23),
    _row("announce", "reporting colon before a quotation",
         [[ev(pbas=48.0, rate=130, volm=+0.9)]], []),
    _row("slowdown_quantifier", "slowdown before a standalone quantifier",
         [[ev(rate=110, volm=+0.3)]], [], BreakIndex.BI23),
    _row("slowdown_head", "slowdown over a group-final head and the word "
         "before it", [[ev(rate=130, volm=+0.5)]], []),
)


@dataclass
class MappingTable:
    rows: tuple[MappingRow, ...] = TONE_ROWS

    def __post_init__(self):
        self._by_id = {r.row_id: r for r in self.rows}

    def row(self, row_id: str) -> MappingRow:
        return self._by_id[row_id]


DEFAULT_TABLE = MappingTable()


# Point of view ---------------------------------------------------------------

@dataclass
class POVSpan:
    holder: str
    start_token: int              # document token index of the opening quote
    end_token: int                # document token index of the closing quote
    sentences: list[int] = field(default_factory=list)


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
class FrozenMatch:
    role: str                         # the mapping-table row of the pattern
    pattern_length: int
    tail_position: int | None         # the address term after the pattern
    length: int                       # tokens covered, address tail included


def match_frozen(tokens: list[Token], start: int,
                 frozen_table: list[tuple[list[str], str]]) -> FrozenMatch | None:
    """Longest match at the current token among the ``(pattern, role)``
    pairs of ``frozen_table``.  A ``lexica.DEAR_TERMS`` address term after
    the pattern, commas allowed between, is its tail: the row
    ``<role>_tail``."""
    best: FrozenMatch | None = None
    for pattern, role in frozen_table:
        n = len(pattern)
        window = tokens[start:start + n]
        if len(window) < n:
            continue
        if any(t.kind != WORD or t.normalized != w
               for t, w in zip(window, pattern)):
            continue
        length = n
        tail_pos = None
        j = start + n
        while j < len(tokens) and tokens[j].kind == "comma":
            j += 1
        if j < len(tokens) and tokens[j].kind == WORD \
                and tokens[j].normalized in lexica.DEAR_TERMS:
            tail_pos = j
            length = j - start + 1
        match = FrozenMatch(role, n, tail_pos, length)
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
    paragraph_initial: bool = False
    after_first_paragraph: bool = False
    quote_final_sentence: bool = False
    sentence_final_group: bool = False


def select_tone(ctx: ToneContext) -> ToneContour:
    """Decision table mapping a prosodic context to a contour of the
    mapping table.

    Transcribed from the tone inventory for the points where the context
    decides: sad affect, sentence start, sentence-internal foreground and
    group end.  The rules that always place one row name it themselves.
    The neutral default is the title row.
    """
    row = DEFAULT_TABLE.row
    if ctx.affect == "sad":
        return row("sad").contours[0]
    if ctx.position == "sentence_initial":
        if ctx.move == "up" and ctx.relevance == "foreground":
            if ctx.paragraph_initial and ctx.after_first_paragraph:
                return row("up_fg_parainit").contours[0]
            return row("up_fg").contours[0]
        return row("title").contours[0]
    if ctx.position == "group_final":
        if ctx.in_quote and ctx.quote_final_sentence and ctx.sentence_final_group:
            return row("adjunct_bg").contours[1]
        if ctx.in_quote and ctx.relevance == "foreground":
            return row("internal_fg").contours[0]
        return row("eog_internal").contours[0]
    if ctx.position == "sentence_internal" and ctx.relevance == "foreground":
        return row("adjunct_fg").contours[0]
    return row("title").contours[0]
