"""Rendering: embedded speech-command markup and symbolic annotation.

``tone_to_params`` and ``params_to_tobi`` read and invert the two
realization tables of ``prosody``: the mapping table and the bijective
(silence, reset) pairs of the break indices.  ``render_markup`` produces
the copy-pasteable embedded-command text, bit-exactly:
``[[pbas NN.000; rate NNN; volm +N.N]]`` with fields in a fixed order
(silence first when fused), ``[[slnc NNN]]``, ``[[rset 0]]`` and the
compound ``[[slnc NNN]],[[rset 0]]`` with its literal comma.
``render_tobi`` prints one line per sentence with the symbolic labels
inline.
"""

from __future__ import annotations

from collections.abc import Sequence

from .ingest import QUOTE, Document, Record, Token
from .prosody import (BI_REALIZATION, DEFAULT_TABLE, BreakIndex, ParamEvent,
                      ToneContour, bi_to_params)


def tone_to_params(c: ToneContour) -> list[ParamEvent]:
    """Parameter tuple(s) for a contour, plus the break-index realization of
    its row when it is the row's last contour."""
    row = DEFAULT_TABLE.row(c.row_id)
    out = list(row.params[c.index])
    if row.bi is not None and c.index == len(row.contours) - 1:
        out.extend(bi_to_params(row.bi))
    return out


UNKNOWN_LABEL = "X-?"

#: (flat events, row) of every table row, longest first, table order kept
#: among equal lengths: the order ``params_to_tobi`` tries them in
_ROWS_LONGEST_FIRST = sorted(((row.flat_params(), row) for row in DEFAULT_TABLE.rows),
                             key=lambda pair: len(pair[0]), reverse=True)

#: (silence ms, a reset follows) -> break index: the inverse of
#: ``BI_REALIZATION``, where a silence that has no reset of its own also
#: reads as its index before an unrelated reset
_BI_OF = {(ms, True): bi for bi, (ms, reset) in BI_REALIZATION.items() if not reset}
_BI_OF.update((pair, bi) for bi, pair in BI_REALIZATION.items())


def params_to_tobi(events: Sequence[ParamEvent]) -> list[tuple[str, str | None]]:
    """Invert a parameter stream to (contour label, break-index label) pairs.

    Greedy longest-sequence matching over the table rows, then bare
    (silence, reset) pairs as break indices; unknown tuples come back as a
    diagnostic placeholder so third-party markup can still be inspected.
    Any sequence of events reads as the list of them does.
    """
    events = list(events)               # its slices are compared with rows' lists
    out: list[tuple[str, str | None]] = []
    i = 0
    while i < len(events):
        matched = False
        for flat, row in _ROWS_LONGEST_FIRST:
            if events[i:i + len(flat)] == flat:
                labels = " ".join(c.label for c in row.contours)
                out.append((labels, row.bi.label if row.bi else None))
                i += len(flat)
                matched = True
                break
        if matched:
            continue
        e = events[i]
        if e.slnc is not None and e.pbas is None and e.rate is None and e.volm is None:
            reset = i + 1 < len(events) and events[i + 1].rset
            bi = _BI_OF.get((e.slnc, reset))
            if bi is not None:
                out.append(("", bi.label))
                i += 2 if reset else 1
                continue
        if e.rset:
            i += 1
            continue
        out.append((UNKNOWN_LABEL, None))
        i += 1
    return out


def params_to_bi(events: list[ParamEvent]) -> BreakIndex | None:
    if not events or events[0].slnc is None:
        return None
    reset = len(events) > 1 and events[1].rset
    return _BI_OF.get((events[0].slnc, reset))


# Prosodic script --------------------------------------------------------------

GLUE_LEFT = "left"        # suffix event: no space before it
GLUE_RIGHT = "right"      # prefix event: no space after it
GLUE_NONE = "none"        # standalone: spaces both sides
GLUE_COMPOUND = "compound"  # reset rendered as ,[[rset 0]] after a silence


# slotted: a script holds one item per token and per event
class ScriptItem(Record):
    """One item of a prosodic script: a token, an event or a boundary marker."""
    __slots__ = ("kind", "token", "event", "glue", "tone_label", "bi", "sentence_index")

    def __init__(self, kind: str, token: Token | None = None, event: ParamEvent | None = None,
                 glue: str = GLUE_NONE, tone_label: str | None = None,
                 bi: BreakIndex | None = None, sentence_index: int | None = None):
        self.kind = kind            # token | event | sentence_start | paragraph_break
        self.token, self.event, self.glue = token, event, glue
        self.tone_label, self.bi, self.sentence_index = tone_label, bi, sentence_index


class ProsodicScript:
    """The items of a compile in document order, ready for rendering."""

    def __init__(self, items: list[ScriptItem] | None = None):
        self.items = [] if items is None else items

    def sentence_start(self, index: int):
        self.items.append(ScriptItem("sentence_start", sentence_index=index))

    def paragraph_break(self):
        self.items.append(ScriptItem("paragraph_break"))

    def validate(self) -> list[str]:
        """Script well-formedness.

        Token order must equal document order, and the silence/reset pairing
        must hold: BI3/BI4/BI23/BI32/BI33 silences take a compound reset,
        BI2/BI22/BI44 silences never do.
        """
        problems = []
        last_index = -1
        for it in self.items:
            if it.kind == "token":
                if it.token.index < last_index:
                    problems.append("tokens out of document order")
                    break
                last_index = it.token.index
        events = [it for it in self.items if it.kind == "event"]
        for i, it in enumerate(events):
            if it.bi is None or it.event is None or it.event.slnc is None:
                continue
            wants_reset = BI_REALIZATION[it.bi][1]
            has_reset = (i + 1 < len(events) and events[i + 1].event.rset
                         and events[i + 1].glue == GLUE_COMPOUND)
            if wants_reset and not has_reset:
                problems.append(f"{it.bi.label} silence not followed by a reset")
            if not wants_reset and has_reset:
                problems.append(f"{it.bi.label} silence must not take a reset")
        return problems


def _phon_text(token: Token) -> str:
    return f"[[inpt PHON]]{token.phon_override}[[inpt TEXT]]"


def render_markup(doc: Document, script: ProsodicScript) -> str:
    """Embedded-command text, one paragraph per block, deterministic."""
    problems = script.validate()
    if problems:
        raise ValueError("invalid prosodic script: " + "; ".join(problems))
    blocks: list[str] = []
    pieces: list[str] = []
    space = False       # a piece not glued left takes a space before it
    for item in script.items:
        kind = item.kind
        if kind == "token":
            tok = item.token
            if space:
                pieces.append(" ")
            pieces.append(_phon_text(tok) if tok.phon_override else tok.surface)
            space = True
        elif kind == "event":
            glue = item.glue
            if glue == GLUE_COMPOUND:
                pieces.append(",")
            elif space and glue != GLUE_LEFT:
                pieces.append(" ")
            pieces.append(item.event.markup)
            space = glue != GLUE_RIGHT
        elif kind == "paragraph_break":
            if pieces:
                blocks.append("".join(pieces))
                pieces = []
            space = False
    if pieces:
        blocks.append("".join(pieces))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def render_tobi(doc: Document, script: ProsodicScript) -> str:
    """One line per sentence: tokens interleaved with symbolic labels.

    Quote marks are omitted (they carry no prosody of their own); silences
    print as their break index, contoured events as their label, bare
    resets literally, and unlabeled events not at all.  A line breaks at
    the next sentence's first printed token, so the events placed before
    that token end the line before, as in the published fragment
    (``fixture_notes.md``).
    """
    lines: list[str] = []
    current: list[str] = []
    pending_break = False

    for item in script.items:
        if item.kind == "sentence_start":
            pending_break = bool(current)
            continue
        if item.kind == "paragraph_break":
            continue
        if item.kind == "token":
            if item.token.kind == QUOTE:
                continue
            if pending_break:
                lines.append(" ".join(current))
                current = []
                pending_break = False
            # a token of one source word is one chunk, without whitespace;
            # a merged token's inner whitespace prints as one space
            tok = item.token
            current.append(_phon_text(tok) if tok.phon_override
                           else tok.surface if tok.source_words == 1
                           else " ".join(tok.surface.split()))
        elif item.kind == "event":
            parts = []
            if item.bi is not None:
                parts.append(item.bi.label)
            if item.tone_label:
                parts.append(item.tone_label)
            if not parts and item.event.rset and item.glue != GLUE_COMPOUND:
                parts.append(item.event.markup)
            current.extend(parts)
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines) + ("\n" if lines else "")


def strip_markup(markup: str) -> str:
    """Remove all embedded commands (and compound commas) from markup text."""
    import re
    text = re.sub(r"\[\[[^\]]*\]\](,\[\[rset 0\]\])?", "", markup)
    text = re.sub(r"[ \t]+", " ", text)
    text = re.sub(r" ?\n ?", "\n", text)
    return text.strip()
