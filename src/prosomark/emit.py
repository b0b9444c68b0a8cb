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

from dataclasses import dataclass, field

from .ingest import QUOTE, Document, Token
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


def params_to_tobi(events: list[ParamEvent]) -> list[tuple[str, str | None]]:
    """Invert a parameter stream to (contour label, break-index label) pairs.

    Greedy longest-sequence matching over the table rows, then bare
    (silence, reset) pairs as break indices; unknown tuples come back as a
    diagnostic placeholder so third-party markup can still be inspected.
    """
    ordered = sorted(DEFAULT_TABLE.rows, key=lambda r: len(r.flat_params()), reverse=True)
    out: list[tuple[str, str | None]] = []
    i = 0
    while i < len(events):
        matched = False
        for row in ordered:
            flat = row.flat_params()
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
            bi = _bi_for(e.slnc, reset)
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


def _bi_for(silence: int, reset: bool) -> BreakIndex | None:
    for bi, (ms, rs) in BI_REALIZATION.items():
        if ms == silence and rs == reset:
            return bi
    if reset:
        # a lone silence that happens to precede an unrelated reset
        for bi, (ms, rs) in BI_REALIZATION.items():
            if ms == silence and not rs:
                return bi
    return None


def params_to_bi(events: list[ParamEvent]) -> BreakIndex | None:
    if not events or events[0].slnc is None:
        return None
    reset = len(events) > 1 and events[1].rset
    return _bi_for(events[0].slnc, reset)


# Prosodic script --------------------------------------------------------------

GLUE_LEFT = "left"        # suffix event: no space before it
GLUE_RIGHT = "right"      # prefix event: no space after it
GLUE_NONE = "none"        # standalone: spaces both sides
GLUE_COMPOUND = "compound"  # reset rendered as ,[[rset 0]] after a silence


# slotted: a script holds one item per token and per event
@dataclass(slots=True)
class ScriptItem:
    kind: str                       # token | event | sentence_start | paragraph_break
    token: Token | None = None
    event: ParamEvent | None = None
    glue: str = GLUE_NONE
    tone_label: str | None = None
    bi: BreakIndex | None = None
    sentence_index: int | None = None


@dataclass
class ProsodicScript:
    items: list[ScriptItem] = field(default_factory=list)

    def add_token(self, token: Token):
        self.items.append(ScriptItem("token", token=token))

    def add_event(self, event: ParamEvent, glue: str = GLUE_NONE,
                  tone_label: str | None = None, bi: BreakIndex | None = None):
        self.items.append(ScriptItem("event", event=event, glue=glue,
                                     tone_label=tone_label, bi=bi))

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


def format_event(e: ParamEvent) -> str:
    if e.rset:
        return "[[rset 0]]"
    parts = []
    if e.slnc is not None:
        parts.append(f"slnc {e.slnc}")
    if e.pbas is not None:
        parts.append(f"pbas {e.pbas:.3f}")
    if e.rate is not None:
        parts.append(f"rate {e.rate}")
    if e.volm is not None:
        parts.append(f"volm {e.volm:+.1f}")
    return "[[" + "; ".join(parts) + "]]"


def _token_text(token: Token) -> str:
    if token.phon_override:
        return f"[[inpt PHON]]{token.phon_override}[[inpt TEXT]]"
    return token.surface


def render_markup(doc: Document, script: ProsodicScript) -> str:
    """Embedded-command text, one paragraph per block, deterministic."""
    problems = script.validate()
    if problems:
        raise ValueError("invalid prosodic script: " + "; ".join(problems))
    blocks: list[str] = []
    pieces: list[str] = []
    no_space_after = False

    def flush_block():
        nonlocal pieces, no_space_after
        if pieces:
            blocks.append("".join(pieces))
        pieces = []
        no_space_after = False

    def emit(text: str, glue: str):
        nonlocal no_space_after
        if glue == GLUE_COMPOUND:
            pieces.append(",")
        elif pieces and not no_space_after and glue != GLUE_LEFT:
            pieces.append(" ")
        pieces.append(text)
        no_space_after = glue == GLUE_RIGHT

    for item in script.items:
        if item.kind == "paragraph_break":
            flush_block()
        elif item.kind == "token":
            emit(_token_text(item.token), GLUE_NONE)
        elif item.kind == "event":
            emit(format_event(item.event), item.glue)
    flush_block()
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def render_tobi(doc: Document, script: ProsodicScript) -> str:
    """One line per sentence: tokens interleaved with symbolic labels.

    Quote marks are omitted (they carry no prosody of their own); silences
    print as their break index, contoured events as their label, bare
    resets literally, and unlabeled events not at all.
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
            current.append(_token_text(item.token))
        elif item.kind == "event":
            parts = []
            if item.bi is not None:
                parts.append(item.bi.label)
            if item.tone_label:
                parts.append(item.tone_label)
            if not parts and item.event.rset and item.glue != GLUE_COMPOUND:
                parts.append("[[rset 0]]")
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
