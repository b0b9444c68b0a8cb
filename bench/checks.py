"""Output checks run on every compiled document, outside the timed region.

Each check returns a list of problems; an empty list means the document
passed.  None of them raises on a wrong output, so one bad document is
counted as failed and the run goes on.
"""

from __future__ import annotations

import hashlib

import prosomark
from prosomark.emit import strip_markup


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def render(result, mode: str) -> str:
    """The text ``prosomark.cli.run`` writes for an ``--emit`` mode."""
    if mode == "markup":
        return prosomark.render_markup(result.doc, result.script)
    if mode == "tobi":
        return prosomark.render_tobi(result.doc, result.script)
    if mode == "both":
        return (prosomark.render_markup(result.doc, result.script) + "\n"
                + prosomark.render_tobi(result.doc, result.script))
    return result.groups_text()


def script_problems(result) -> list[str]:
    return [f"script: {p}" for p in result.script.validate()]


def partition_problems(result) -> list[str]:
    """Breath groups must cover each sentence's words exactly, in order."""
    out = []
    for sent in result.doc.sentences:
        if sent.is_title:
            continue
        toks = sent.tokens
        words = [i for i, t in enumerate(toks) if t.kind == "word"]
        covered = [i for g in result.groups.get(sent.index, ())
                   for i in g.positions() if toks[i].kind == "word"]
        if covered != words:
            out.append(f"groups do not partition the words of sentence {sent.index}")
    return out


def roundtrip_problems(result, markup: str) -> list[str]:
    """Stripping the markup gives back the tokens, whitespace aside.

    Phonetic overrides are spoken in place of their surface, so they stand
    in for it on the expected side.
    """
    expected = " ".join(t.phon_override or t.surface for t in result.doc.tokens())
    if strip_markup(markup).split() != expected.split():
        return ["strip_markup(render_markup(...)) does not give back the tokens"]
    return []


def result_problems(result, markup: str) -> list[str]:
    return (script_problems(result) + partition_problems(result)
            + roundtrip_problems(result, markup))
