"""Rendering: embedded speech-command markup and symbolic annotation.

``tone_to_params`` and ``params_to_tobi`` read and invert the two
realization tables of ``prosody``: the mapping table and the bijective
(silence, reset) pairs of the break indices.  A ``ProsodicScript`` holds
a compile's events alone, each placed by a token of the document; both
renderers run one check of it, then print each event by its token.
``render_markup`` produces the copy-pasteable embedded-command text,
bit-exactly: ``[[pbas NN.000; rate NNN; volm +N.N]]`` with fields in a
fixed order (silence first when fused), ``[[slnc NNN]]``, ``[[rset 0]]``
and the compound ``[[slnc NNN]],[[rset 0]]`` with its literal comma.
``render_tobi`` prints one line per sentence with the symbolic labels
inline.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter

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
        for flat, row in _ROWS_LONGEST_FIRST:
            if events[i:i + len(flat)] == flat:
                labels = " ".join(c.label for c in row.contours)
                out.append((labels, row.bi.label if row.bi else None))
                i += len(flat)
                break
        else:
            e = events[i]
            bare = e.slnc is not None and e.pbas is None and e.rate is None and e.volm is None
            bi = params_to_bi(events[i:i + 2]) if bare else None
            if bi is not None:          # a reset after it reads next, as nothing
                out.append(("", bi.label))
            elif not e.rset:            # a bare reset reads as nothing
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


# slotted: a script holds one per event
class ScriptItem(Record):
    """One event of a prosodic script and its place among the document's
    tokens: ``at`` is twice the index of the token it sits by, plus one
    when it follows that token."""
    __slots__ = ("event", "glue", "tone_label", "bi", "at")
    kind = "event"      # read by bench/tracer.py, which counts the events

    def __init__(self, event: ParamEvent, glue: str = GLUE_NONE,
                 tone_label: str | None = None, bi: BreakIndex | None = None, at: int = 0):
        self.event, self.glue, self.tone_label = event, glue, tone_label
        self.bi, self.at = bi, at


class ProsodicScript:
    """A compile's events in document order, to render with its document."""

    def __init__(self, items: list[ScriptItem] | None = None):
        self.items = [] if items is None else items

    def validate(self) -> list[str]:
        """Script well-formedness: each item holds an event, in document order;
        each break index has a realization, and its silence takes a compound
        reset exactly when its realization holds one."""
        events = self.items
        at = list(map(attrgetter("at"), events))
        problems = [] if at == sorted(at) else ["events out of document order"]
        for i in [i for i, it in enumerate(events) if it.bi is not None or it.event is None]:
            it, nxt = events[i], (events[i + 1].event if i + 1 < len(events) else None)
            if it.event is None:
                problems.append("an item holds no event")
            elif not it.bi.events:
                problems.append(f"{it.bi.label} has no realization")
            elif it.event.slnc is not None:
                has_reset = nxt is not None and nxt.rset and events[i + 1].glue == GLUE_COMPOUND
                if has_reset != (len(it.bi.events) == 2):
                    rule = "must not take a reset" if has_reset else "not followed by a reset"
                    problems.append(f"{it.bi.label} silence {rule}")
        return problems


def _phon_text(token: Token) -> str:
    return f"[[inpt PHON]]{token.phon_override}[[inpt TEXT]]"


def _checked(doc: Document, script: ProsodicScript) -> list[ScriptItem]:
    """The script's events, once ``validate`` finds no problem and none is
    placed past the document's last token; ``ValueError`` otherwise."""
    problems, events = script.validate(), script.items
    if events and events[-1].at >= 2 * doc.token_count():
        problems.append("an event placed past the document's last token")
    if problems:
        raise ValueError("invalid prosodic script: " + "; ".join(problems))
    return events


def render_markup(doc: Document, script: ProsodicScript) -> str:
    """Embedded-command text, one paragraph per block, deterministic."""
    events, n, k = _checked(doc, script), len(script.items), 0   # k: the next event to print
    pieces: list[str] = []
    space = False       # a piece not glued left takes a space before it

    def place(end: int):
        """Print the events placed up to ``end``."""
        nonlocal k, space
        while k < n and events[k].at <= end:
            glue = events[k].glue
            if glue == GLUE_COMPOUND:
                pieces.append(",")
            elif space and glue != GLUE_LEFT:
                pieces.append(" ")
            pieces.append(events[k].event.markup)
            space = glue != GLUE_RIGHT
            k += 1

    paragraph = None
    for sent in doc.sentences:
        if pieces and sent.paragraph_index != paragraph:
            pieces.append("\n\n")             # a blank line between paragraphs
            space = False
        paragraph = sent.paragraph_index
        for tok in sent.tokens:
            # the events before it: the last token's suffixes, its prefixes
            if k < n and events[k].at <= 2 * tok.index:
                place(2 * tok.index)
            if space:
                pieces.append(" ")
            pieces.append(_phon_text(tok) if tok.phon_override else tok.surface)
            space = True
        place(2 * sent.tokens[-1].index + 1)
    return "".join(pieces) + ("\n" if pieces else "")


def render_tobi(doc: Document, script: ProsodicScript) -> str:
    """One line per sentence: tokens interleaved with symbolic labels.

    Quote marks are omitted (they carry no prosody of their own); silences
    print as their break index, contoured events as their label, bare
    resets literally, and unlabeled events not at all.  A line breaks at
    the next sentence's first printed token, so the events placed before
    that token end the line before, as in the published fragment
    (``fixture_notes.md``).
    """
    events, n, k = _checked(doc, script), len(script.items), 0   # k: the next event to print
    lines: list[str] = []
    current: list[str] = []

    def place(end: int):
        """Print the labels of the events placed up to ``end``."""
        nonlocal k
        while k < n and events[k].at <= end:
            item = events[k]
            if item.bi is not None:
                current.append(item.bi.label)
            if item.tone_label:
                current.append(item.tone_label)
            elif item.bi is None and item.event.rset and item.glue != GLUE_COMPOUND:
                current.append(item.event.markup)
            k += 1

    for sent in doc.sentences:
        pending_break = bool(current)
        for tok in sent.tokens:
            if k < n and events[k].at <= 2 * tok.index:
                place(2 * tok.index)
            if tok.kind == QUOTE:
                continue
            if pending_break:
                lines.append(" ".join(current))
                current = []
                pending_break = False
            # a token of one source word is one chunk, without whitespace;
            # a merged token's inner whitespace prints as one space
            current.append(_phon_text(tok) if tok.phon_override
                           else tok.surface if tok.source_words == 1
                           else " ".join(tok.surface.split()))
        place(2 * sent.tokens[-1].index + 1)
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
