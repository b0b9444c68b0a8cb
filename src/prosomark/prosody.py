"""Symbolic prosody: break indices, tone contours, analogical parameters.

The extended break-index inventory maps each emitted index to a silence
duration plus an optional parameter reset.  The mapping table pairs every
row of the tone inventory with its analogical parameter tuple(s) and its
pitch labels (nuclear accents, phrase accents, boundary tones, downstep,
opaque intensity variants 1-4); each label is a ``ToneContour`` of its row,
and ``select_tone`` returns one of them.  The point-of-view spans are the
quotations of the ``DocIndex``: direct speech, whose continuation sentences
take downstepped contours.

The module holds the tables and two lookups, ``select_tone`` and
``match_frozen``.  Where a break index or a slowdown goes is a decision of
the planner's rules (``pipeline``), each of which names its own row or
index.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from functools import cached_property

from . import lexica
from .docindex import DocIndex, POVSpan
from .ingest import COMMA, Document, Record, Sentence, Shown, longest_phrase


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a record filled by ``vars``."""
    raise AttributeError(f"cannot assign to field {name!r}")


class ParamEvent(Shown):
    """One embedded synthesizer instruction, immutable, equal by value.

    ``pbas`` pitch base, ``rate`` speaking rate, ``volm`` signed volume
    delta, ``slnc`` silence in ms, ``rset`` reset-all.  A reset is always an
    event of its own.
    """
    __setattr__ = __delattr__ = _frozen

    def __init__(self, pbas: float | None = None, rate: int | None = None,
                 volm: float | None = None, slnc: int | None = None, rset: bool = False):
        fields = (pbas, rate, volm, slnc)
        if rset and any(f is not None for f in fields):
            raise ValueError("reset events carry no other fields")
        if not rset and all(f is None for f in fields):
            raise ValueError("an event carries at least one field")
        vars(self).update(pbas=pbas, rate=rate, volm=volm, slnc=slnc, rset=rset,
                          _key=(*fields, rset))

    def __eq__(self, other):
        return self._key == other._key if type(other) is ParamEvent else NotImplemented

    def __hash__(self):
        return hash(self._key)

    @cached_property
    def markup(self) -> str:
        """The embedded command, fields in a fixed order, silence first.
        Formatted on the first read and kept on the event: every event the
        planner places is a table constant or a ``pipeline._fused`` event."""
        if self.rset:
            return "[[rset 0]]"
        parts = []
        if self.slnc is not None:
            parts.append(f"slnc {self.slnc}")
        if self.pbas is not None:
            parts.append(f"pbas {self.pbas:.3f}")
        if self.rate is not None:
            parts.append(f"rate {self.rate}")
        if self.volm is not None:
            parts.append(f"volm {self.volm:+.1f}")
        return "[[" + "; ".join(parts) + "]]"


RSET = ParamEvent(rset=True)


def ev(pbas=None, rate=None, volm=None, slnc=None) -> ParamEvent:
    return ParamEvent(pbas=pbas, rate=rate, volm=volm, slnc=slnc)


class BreakIndex(enum.Enum):
    """A break index, declared with its realization: its code, its silence
    in ms (None: no realization, never emitted) and whether a reset follows.
    ``events`` is the realization as shared events, the silence and then
    ``RSET`` if the index has a reset; ``label`` is its annotation."""
    BI4 = "4", 300, True
    BI3 = "3", 200, True
    BI2 = "2", 100, False
    BI32 = "32", 30, True
    BI33 = "33", 50, True
    BI23 = "23", 100, True
    BI22 = "22", 300, False
    BI44 = "44", 400, False
    BI0 = "0", None, False
    BI1 = "1", None, False

    def __new__(cls, code: str, silence: int | None, reset: bool):
        member = object.__new__(cls)
        member._value_, member.label = code, f"BI-{code}"
        member.events = (() if silence is None else (ev(slnc=silence), RSET) if reset
                         else (ev(slnc=silence),))
        return member


#: break index -> (silence ms, reset follows), for the indices with a
#: realization
BI_REALIZATION: dict[BreakIndex, tuple[int, bool]] = {
    bi: (bi.events[0].slnc, len(bi.events) == 2) for bi in BreakIndex if bi.events}


# Mapping table ---------------------------------------------------------------

class ToneContour(Shown):
    """A pitch label of the inventory: contour ``index`` of the mapping-table
    row ``row_id``.  Only the table builds contours (``_row``)."""
    __setattr__ = __delattr__ = _frozen

    def __init__(self, label: str, row_id: str, index: int):
        vars(self).update(label=label, row_id=row_id, index=index)


def bi_to_params(bi: BreakIndex) -> list[ParamEvent]:
    return list(bi.events)


class MappingRow(Shown):
    """A tone-inventory row: its contours, their parameter tuples (one
    tuple per contour) and its break."""
    __setattr__ = __delattr__ = _frozen

    def __init__(self, row_id: str, description: str, params: tuple[tuple[ParamEvent, ...], ...],
                 contours: tuple[ToneContour, ...], bi: BreakIndex | None = None):
        vars(self).update(row_id=row_id, description=description, params=params,
                          contours=contours, bi=bi)

    def flat_params(self) -> list[ParamEvent]:
        out = [e for group in self.params for e in group]
        if self.bi is not None:
            out.extend(self.bi.events)
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


class MappingTable:
    """The mapping-table rows, looked up by row id."""

    def __init__(self):
        self.rows = TONE_ROWS
        self._by_id = {r.row_id: r for r in TONE_ROWS}

    def row(self, row_id: str) -> MappingRow:
        return self._by_id[row_id]


DEFAULT_TABLE = MappingTable()


# Point of view ---------------------------------------------------------------

def track_point_of_view(doc: Document, ann) -> list[POVSpan]:
    """The direct-speech spans: a ``DocIndex``'s quotations, which a compile
    reads from its own index.  A span persists across sentences until its
    closing quote; one left open ends at its opener's paragraph end."""
    return DocIndex(doc, ann).quotations


def span_for_sentence(spans: list[POVSpan], sent_index: int) -> POVSpan | None:
    """The first span holding the sentence, or None."""
    return next((sp for sp in spans if sent_index in sp.sentences), None)


# Frozen expressions ----------------------------------------------------------

class FrozenMatch(Record):
    """A frozen pattern matched at one position, with its address tail."""

    def __init__(self, role: str, pattern_length: int, tail_position: int | None,
                 length: int):
        self.role = role                    # the mapping-table row of the pattern
        self.pattern_length = pattern_length
        self.tail_position = tail_position  # the address term after the pattern
        self.length = length                # tokens covered, address tail included


def match_frozen(sentence: Sentence, start: int, index: Mapping) -> FrozenMatch | None:
    """The longest pattern of ``index``, the ``ingest.phrase_index`` of the
    ``(pattern, role)`` pairs of a frozen table, at the sentence's position
    ``start``.  A ``lexica.DEAR_TERMS`` address term after the pattern,
    commas allowed between, is its tail: the row ``<role>_tail``."""
    m = longest_phrase(sentence.words, start, index)
    if m is None:
        return None
    n, role = m
    tokens = sentence.tokens
    j = start + n
    while j < len(tokens) and tokens[j].kind == COMMA:
        j += 1
    if j < len(tokens) and sentence.words[j] in lexica.DEAR_TERMS:
        return FrozenMatch(role, n, j, j - start + 1)
    return FrozenMatch(role, n, None, n)


# Tone selection ---------------------------------------------------------------

def select_tone(*, position: str = "sentence_internal", move: str = "level",
                relevance: str = "background", affect: str = "neutral",
                in_quote: bool = False, paragraph_initial: bool = False,
                after_first_paragraph: bool = False, quote_final_sentence: bool = False,
                sentence_final_group: bool = False) -> ToneContour:
    """Decision table mapping a prosodic context, given as keywords, to a
    contour of the mapping table.

    Transcribed from the tone inventory for the points where the context
    decides: sad affect, sentence start, sentence-internal foreground and
    group end.  The rules that always place one row name it themselves.
    The neutral default is the title row.
    """
    row = DEFAULT_TABLE.row
    if affect == "sad":
        return row("sad").contours[0]
    if position == "sentence_initial":
        if move == "up" and relevance == "foreground":
            if paragraph_initial and after_first_paragraph:
                return row("up_fg_parainit").contours[0]
            return row("up_fg").contours[0]
        return row("title").contours[0]
    if position == "group_final":
        if in_quote and quote_final_sentence and sentence_final_group:
            return row("adjunct_bg").contours[1]
        if in_quote and relevance == "foreground":
            return row("internal_fg").contours[0]
        return row("eog_internal").contours[0]
    if position == "sentence_internal" and relevance == "foreground":
        return row("adjunct_fg").contours[0]
    return row("title").contours[0]
