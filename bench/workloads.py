"""Seeded input generators for the three benchmark workloads.

Every document is a pure function of (workload, seed, document index), so
the same seed gives the same inputs.  Inputs are drawn from the shipped
fixtures plus synthetic sentences; only the ``story_sidecar`` span offsets
come from the compiler's own tokenizer, because sidecar spans are token
indices by definition.

* ``story_shallow`` - long plain-text stories, no sidecar: a seeded mix of
  fixture paragraphs and synthetic paragraphs with quotes, about 16k tokens.
* ``story_sidecar`` - the fable and fox fixtures tiled in seeded order, each
  copy's gold sidecar renumbered to its place in the tiled text.
* ``cli_batch`` - many documents of 1-4 sentences for ``prosomark.cli.run``,
  plus the four golden ``--check`` invocations.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from prosomark.annotations import parse_sidecar
from prosomark.ingest import tokenize

#: raw token count used for throughput: the tokenizer's chunk pattern before
#: multiword merging, so the count does not depend on the compiler's lexica
RAW_TOKEN_RE = re.compile(r"[^\s\w]|[\w'-]+")

STORY_TOKENS = 16000
EMIT_MODES = ("markup", "tobi", "both", "groups")

#: the four golden invocations, as (text, sidecar, config, emit, golden)
GOLDENS = (
    ("belling_cat.txt", "belling_cat.ann", None, "markup", "belling_cat.markup.golden"),
    ("belling_cat.txt", "belling_cat.ann", None, "groups", "belling_cat.groups.golden"),
    ("fox_crow.txt", "fox_crow.ann", None, "tobi", "fox_crow.tobi.golden"),
    ("fox_crow.txt", "fox_crow.ann", "fox_nopov.cfg", "tobi", "fox_crow_nopov.tobi.golden"),
)
#: cli_batch runs the goldens as documents 0-3 of every block of this many
GOLDEN_BLOCK = 1000

_SENTENCE_END = re.compile(r"(?:(?<=[.!?])|(?<=[.!?]\"))\s+")


def count_tokens(text: str) -> int:
    return len(RAW_TOKEN_RE.findall(text))


class TilingError(RuntimeError):
    """The tiled sidecar does not line up with the tiled text."""


@dataclass
class StoryDoc:
    text: str
    sidecar: str | None
    tokens: int


@dataclass
class CliDoc:
    """One ``prosomark.cli.run`` invocation.

    ``text`` is written to a temporary input file; a golden invocation has no
    text and names fixture files instead.
    """
    emit: str
    tokens: int
    text: str | None = None
    input_name: str | None = None
    sidecar_name: str | None = None
    config_name: str | None = None
    golden_name: str | None = None


@dataclass
class Fixtures:
    directory: Path
    fable: str
    fox: str
    fable_ann: str
    fox_ann: str

    @classmethod
    def load(cls, directory: Path) -> "Fixtures":
        def read(name):
            return (directory / name).read_text(encoding="utf-8")
        return cls(directory, read("belling_cat.txt"), read("fox_crow.txt"),
                   read("belling_cat.ann"), read("fox_crow.ann"))

    def paragraphs(self) -> list[str]:
        """Body paragraphs of both fixtures (the fable's title dropped)."""
        fable = [p.strip() for p in self.fable.split("\n\n") if p.strip()]
        return fable[1:] + [self.fox.strip()]

    def sentences(self) -> list[str]:
        return [s for p in self.paragraphs() for s in _SENTENCE_END.split(p) if s]


# Synthetic sentences ---------------------------------------------------------

_SUBJECTS = ("the cat", "the old mouse", "a young mouse", "the mice", "the fox",
             "the crow", "nobody", "every bird", "some mice", "the council",
             "she", "he", "they", "her mother", "all the birds")
_VERBS = ("saw", "ran to", "came to", "looked at", "heard", "met", "found",
          "watched", "carried", "wanted", "agreed with", "escaped from",
          "received", "praised", "feared")
_OBJECTS = ("the bell", "a ribbon", "the cheese", "her plumage",
            "the neighborhood", "a signal", "the enemy", "one another",
            "the case", "the sly fox", "nothing", "the hue of her feathers",
            "a miserable trap", "every corner", "the impossible plan")
_FRONTERS = ("now", "then", "at last", "long ago", "therefore", "perhaps", "alas")
_SUBORDINATORS = ("while", "when", "if", "because", "until", "since")
_COORDINATORS = ("and", "but", "or")
_INFINITIVES = ("propose", "escape", "consider", "bell", "outwit", "receive")
_SPEAKERS = ("the fox", "the old mouse", "the crow", "a young mouse", "he", "she")
_SPEECH_VERBS = ("said", "cried", "replied", "whispered", "answered", "shouted")
_NOUNS = ("cat", "mouse", "fox", "crow", "bell", "council", "cheese", "bird")
_ADJECTIVES = ("noble", "sly", "dreadful", "small", "treacherous", "old")

#: the vocabulary of acceptance criterion 9's synthetic sentences
CRITERION9_VOCAB = ("the a cat dog mouse bird old small said saw ran came and but "
                    "or while when if because nobody all some every to of in her "
                    "his very now then sly impossible one council bell").split()


def _cap(s: str) -> str:
    i = 1 if s[:1] == '"' else 0
    return s[:i] + s[i:i + 1].upper() + s[i + 1:]


def _clause(rng: random.Random) -> str:
    return f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {rng.choice(_OBJECTS)}"


def _plain_sentence(rng: random.Random) -> str:
    form = rng.randrange(6)
    if form == 0:
        body = _clause(rng)
    elif form == 1:
        body = f"{rng.choice(_FRONTERS)}, {_clause(rng)}"
    elif form == 2:
        body = f"{_clause(rng)} {rng.choice(_SUBORDINATORS)} {_clause(rng)}"
    elif form == 3:
        body = f"{_clause(rng)}, {rng.choice(_COORDINATORS)} {_clause(rng)}"
    elif form == 4:
        body = (f"{_clause(rng)} to {rng.choice(_INFINITIVES)} "
                f"{rng.choice(_OBJECTS)}")
    else:
        a, b, c = rng.sample(_NOUNS, 3)
        body = f"{rng.choice(_SUBJECTS)} saw the {a}, the {b} and the {c}"
    return _cap(body + rng.choice(".........?!"))


def _quoted_sentence(rng: random.Random) -> str:
    speaker, verb = rng.choice(_SPEAKERS), rng.choice(_SPEECH_VERBS)
    form = rng.randrange(4)
    if form == 0:  # reporting colon, possibly several quoted sentences
        inner = " ".join(_plain_sentence(rng) for _ in range(rng.randint(1, 3)))
        return _cap(f'{speaker} {verb}: "{inner}"')
    if form == 1:  # split attribution
        return _cap(f'"{_clause(rng)}", {verb} {speaker}, "{_clause(rng)}."')
    if form == 2:  # frozen exhortative with its address term
        return f'"Come on, dear, {_clause(rng)}!" {verb} {speaker}.'
    return _cap(f'{speaker} {verb}: "What a {rng.choice(_ADJECTIVES)} '
                f'{rng.choice(_NOUNS)} I see above me!"')


def _criterion9_sentence(rng: random.Random) -> str:
    n = rng.randint(1, 14)
    body = []
    for i in range(n):
        body.append(rng.choice(CRITERION9_VOCAB))
        if i < n - 1 and rng.random() < 0.12:
            body.append(",")
    text = " ".join(body).replace(" ,", ",") + rng.choice([".", "?", "!"])
    return '"' + text + '"' if rng.random() < 0.2 else text


# Workload generators -----------------------------------------------------------

def story_shallow(seed: int, index: int, fx: Fixtures,
                  target: int = STORY_TOKENS) -> StoryDoc:
    """A plain-text story of at least ``target`` raw tokens."""
    rng = random.Random(f"story_shallow:{seed}:{index}:{target}")
    fixture_paras = fx.paragraphs()
    a, b = rng.sample(_NOUNS, 2)
    parts = [f"The {a.title()} and the {b.title()}"]
    tokens = count_tokens(parts[0])
    while tokens < target:
        if rng.random() < 0.15:
            para = rng.choice(fixture_paras)
        else:
            para = " ".join(_quoted_sentence(rng) if rng.random() < 0.3
                            else _plain_sentence(rng)
                            for _ in range(rng.randint(1, 6)))
        parts.append(para)
        tokens += count_tokens(para)
    text = "\n\n".join(parts) + "\n"
    return StoryDoc(text, None, count_tokens(text))


def _records(ann_text: str) -> list[list[str]]:
    out = []
    for raw in ann_text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            out.append([f for f in line.split("\t") if f])
    return out


def _shift_span(span: str, by: int) -> str:
    frm, _, to = span.partition("-")
    frm = frm if frm == "nil" else str(int(frm) + by)
    return f"{frm}-{int(to) + by}"


def renumber_sidecar(ann_text: str, copy: int, token_offset: int,
                     clause_offset: int) -> list[str]:
    """One copy's sidecar records moved to its place in a tiled text.

    Clause spans move by the token offset; clause numbers (and DISC
    attachment spans, which are clause numbers) move by the clause offset;
    DISC sentence ids get the copy number so they stay distinct.
    """
    lines = []
    for f in _records(ann_text):
        if f[0] == "CLAUSE":
            f[1] = str(int(f[1]) + clause_offset)
            f[12] = _shift_span(f[12], token_offset)
        elif f[0] == "TOPIC":
            f[2] = str(int(f[2]) + clause_offset)
        elif f[0] == "DISC":
            f[1] = f"{f[1]}.{copy}"
            f[2] = str(int(f[2]) + clause_offset)
            f[4] = _shift_span(f[4], clause_offset)
        lines.append("\t".join(f))
    return lines


def _max_clause(ann_text: str) -> int:
    return max(int(f[1]) for f in _records(ann_text) if f[0] == "CLAUSE")


def story_sidecar(seed: int, index: int, fx: Fixtures, multiwords: list[list[str]],
                  target: int = STORY_TOKENS) -> StoryDoc:
    """Equal numbers of fable and fox copies, at least ``target`` raw tokens
    in all, tiled in seeded order, with a renumbered sidecar.  Only the
    order changes with the seed, so documents differ little in cost.

    Raises ``TilingError`` unless the tiled text tokenizes to the sum of its
    copies and ``parse_sidecar`` accepts the renumbered sidecar.
    """
    rng = random.Random(f"story_sidecar:{seed}:{index}:{target}")
    sources = [(fx.fable.strip(), fx.fable_ann), (fx.fox.strip(), fx.fox_ann)]
    sizes = [len(tokenize(text, multiwords)) for text, _ in sources]
    clauses = [_max_clause(ann) for _, ann in sources]
    pair = sum(count_tokens(text) for text, _ in sources)
    order = [0, 1] * -(-target // pair)
    rng.shuffle(order)
    texts: list[str] = []
    sidecar: list[str] = []
    tok_off = clause_off = 0
    for k in order:
        text, ann = sources[k]
        sidecar += renumber_sidecar(ann, len(texts), tok_off, clause_off)
        texts.append(text)
        tok_off += sizes[k]
        clause_off += clauses[k]
    tiled = "\n\n".join(texts) + "\n"
    sidecar_text = "\n".join(sidecar) + "\n"
    produced = len(tokenize(tiled, multiwords))
    if produced != tok_off:
        raise TilingError(f"tiled text has {produced} tokens, copies sum to {tok_off}")
    try:
        parsed = parse_sidecar(sidecar_text)
    except ValueError as exc:
        raise TilingError(f"renumbered sidecar rejected: {exc}") from exc
    if len(parsed.clauses) != clause_off:
        raise TilingError(f"sidecar has {len(parsed.clauses)} clauses, "
                          f"copies sum to {clause_off}")
    return StoryDoc(tiled, sidecar_text, count_tokens(tiled))


def cli_doc(seed: int, index: int, fx: Fixtures) -> CliDoc:
    """Document ``index`` of the cli_batch stream."""
    slot = index % GOLDEN_BLOCK
    if slot < len(GOLDENS):
        text, sidecar, config, emit, golden = GOLDENS[slot]
        tokens = count_tokens((fx.directory / text).read_text(encoding="utf-8"))
        return CliDoc(emit, tokens, input_name=text, sidecar_name=sidecar,
                      config_name=config, golden_name=golden)
    rng = random.Random(f"cli_batch:{seed}:{index}")
    fixture_sentences = fx.sentences()
    sentences = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.3:
            sentences.append(rng.choice(fixture_sentences))
        elif r < 0.6:
            sentences.append(_criterion9_sentence(rng))
        elif r < 0.8:
            speaker, verb = rng.choice(_SPEAKERS), rng.choice(_SPEECH_VERBS)
            sentences.append(_cap(f'{speaker} {verb}: "{_plain_sentence(rng)}"'))
        elif r < 0.9:
            sentences.append(f'"Come on, dear, {_clause(rng)}!"')
        else:
            sentences.append(_plain_sentence(rng))
    text = " ".join(sentences) + "\n"
    return CliDoc(EMIT_MODES[index % len(EMIT_MODES)], count_tokens(text), text=text)
