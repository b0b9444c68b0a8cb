"""Raw text to tokens, and tokens to a document.

Tokenization separates punctuation, merges known multiwords into single
tokens (surface text is preserved, the normalized form joins the source
words with underscores) and sets each token's phonetic override.  Every
token keeps the whitespace before it, so the text can be rebuilt byte for
byte.  A document is built from the tokens alone: its sentences, split at
terminal punctuation, and its paragraph count, split at blank lines
(``\\n``, ``\\r\\n`` and lone ``\\r`` line ends alike); a first sentence
that ends on the first line without terminal punctuation is the title.
Each token and each sentence is built complete: no field of one is
assigned afterwards.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from itertools import takewhile
from types import MappingProxyType

from .lexica import LINE_END

WORD = "word"
COMMA = "comma"
TERMINAL = "terminal_punct"
QUOTE = "quote_mark"
OTHER_PUNCT = "other_punct"

TERMINAL_CHARS = {".": "period", "?": "question", "!": "exclamation", ":": "colon"}
QUOTE_CHARS = {'"', "“", "”"}

#: one token chunk; the whitespace between chunks is what re.split leaves
_TOKEN_RE = re.compile(r"([^\s\w]|[\w'-]+)", re.UNICODE)


class Shown:
    """A value shown by the fields its constructor takes, each held in the
    attribute of its name: ``Name(field=value, ...)``."""
    __slots__ = ()

    def __repr__(self):
        code = type(self).__init__.__code__
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in code.co_varnames[1:code.co_argcount])
        return f"{type(self).__name__}({fields})"


class Record(Shown):
    """A record equal to one of its class whose fields hold equal values.
    Its fields are its slots, or its attributes when it has no slots."""
    __slots__ = ()

    def __eq__(self, other):
        return NotImplemented if type(other) is not type(self) else all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__ or vars(self))


# slotted: a document holds one per token
class Token(Record):
    """One token: its surface text, normalized form, document index and kind."""
    __slots__ = ("surface", "normalized", "index", "kind", "pre_ws", "phon_override",
                 "source_words")

    def __init__(self, surface: str, normalized: str, index: int, kind: str,
                 pre_ws: str = "", phon_override: str | None = None, source_words: int = 1):
        # at most three targets a line: a longer one builds a tuple to unpack
        self.surface, self.normalized, self.index = surface, normalized, index
        self.kind, self.pre_ws = kind, pre_ws
        self.phon_override, self.source_words = phon_override, source_words


class Sentence:
    """A run of tokens closed by a terminal, with its paragraph and index,
    and ``words``: the normalized form at each position, None for a
    non-word.  A sentence holds at least one token: an empty one raises
    ``ValueError``."""

    def __init__(self, tokens: list[Token], terminal: str = "none", is_title: bool = False,
                 paragraph_index: int = 0, index: int = 0):
        if not tokens:
            raise ValueError("a sentence holds at least one token")
        self.tokens, self.terminal, self.is_title = tokens, terminal, is_title
        self.paragraph_index, self.index = paragraph_index, index
        self.words = [t.normalized if t.kind == WORD else None for t in tokens]


class Document:
    """A tokenized text: its sentences in order and its paragraph count."""

    def __init__(self, sentences: list[Sentence] | None = None, paragraph_count: int = 0):
        self.sentences = [] if sentences is None else sentences
        self.paragraph_count = paragraph_count

    def tokens(self) -> list[Token]:
        out = []
        for s in self.sentences:
            out.extend(s.tokens)
        return out

    def token_count(self) -> int:
        """One past the last token's index: the length of a list indexed by
        token position that covers every token of the document."""
        return self.sentences[-1].tokens[-1].index + 1 if self.sentences else 0


#: the kinds of the punctuation chunks that are not ``OTHER_PUNCT``; a
#: chunk is a word when it is longer than one character or alphanumeric,
#: so a lone ``-`` or ``'`` is punctuation
_PUNCT_KINDS = {",": COMMA, **dict.fromkeys(TERMINAL_CHARS, TERMINAL),
                **dict.fromkeys(QUOTE_CHARS, QUOTE)}


def phrase_index(pairs: Iterable[tuple[Sequence[str], object]]) -> Mapping[str, tuple]:
    """A read-only map of first word -> the ``(phrase tuple, value)`` pairs
    whose phrase starts with it, longest phrase first (pairs of one length
    keep their order)."""
    index: dict[str, list] = {}
    for phrase, value in pairs:
        index.setdefault(phrase[0], []).append((tuple(phrase), value))
    return MappingProxyType({w: tuple(sorted(cands, key=lambda c: len(c[0]), reverse=True))
                             for w, cands in index.items()})


def longest_phrase(words: Sequence[str | None], i: int,
                   index: Mapping[str, Sequence]) -> tuple[int, object] | None:
    """``(length, value)`` of the first phrase of ``index`` that the words
    from ``words[i]`` on spell, or None.  ``words`` holds normalized forms,
    None for a token that is not a word."""
    for phrase, value in index.get(words[i], ()):
        if tuple(words[i:i + len(phrase)]) == phrase:
            return len(phrase), value
    return None


_BLANK_LINE = re.compile(rf"(?:{LINE_END.pattern})[ \t]*(?:{LINE_END.pattern})")


def has_blank_line(ws: str) -> bool:
    """Whether ``ws`` holds a blank line: it parts paragraphs, and no multiword spans one."""
    # spaces are printable and line ends are not: one cheap test for most whitespace
    return not ws.isprintable() and _BLANK_LINE.search(ws) is not None


def tokenize(text: str, multiwords: Mapping[str, Sequence] = MappingProxyType({}),
             phonetic: Mapping[str, str] = MappingProxyType({})) -> list[Token]:
    """Split text into tokens, merging known multiword expressions.

    ``multiwords`` is the ``phrase_index`` of the multiwords, lowercased
    word sequences, as ``Config.multiwords`` holds it; without it nothing
    merges.  The longest match at each position wins, and no match spans a
    blank line.
    A merged token keeps the original surface text (inner whitespace
    included) and gets an underscore-joined normalized form.  ``phonetic``,
    as ``Config.phon_lexicon`` holds it, sets each token's phonetic override.
    """
    # [pre_ws, chunk, pre_ws, chunk, ..., trailing whitespace]
    parts = _TOKEN_RE.split(text)
    pres = parts[0:-1:2]
    chunks = parts[1::2]
    kinds = [WORD if len(c) > 1 or c.isalnum() else _PUNCT_KINDS.get(c, OTHER_PUNCT)
             for c in chunks]
    norms = [c.lower() if k == WORD else c for c, k in zip(chunks, kinds)]
    words = [n if k == WORD else None for n, k in zip(norms, kinds)]

    # (first chunk, chunk count) of each merge, in text order, found one
    # paragraph at a time
    merges = []
    bounds = [0] + [k for k, p in enumerate(pres) if has_blank_line(p)]
    for a, b in zip(bounds, bounds[1:] + [len(chunks)]):
        para = words[a:b]
        end = 0
        for i in [i for i, w in enumerate(para) if w in multiwords]:
            if i >= end and (m := longest_phrase(para, i, multiwords)):
                end = i + m[0]
                merges.append((a + i, m[0]))

    tokens: list[Token] = []
    pos = 0
    for start, n in merges + [(len(chunks), 0)]:
        tokens += map(Token, chunks[pos:start], norms[pos:start],
                      range(len(tokens), len(tokens) + start - pos),
                      kinds[pos:start], pres[pos:start], map(phonetic.get, norms[pos:start]))
        if n:
            surface = chunks[start] + "".join(
                p + c for p, c in zip(pres[start + 1:start + n], chunks[start + 1:start + n]))
            norm = "_".join(norms[start:start + n])
            tokens.append(Token(surface, norm, len(tokens), WORD, pres[start],
                                phonetic.get(norm), n))
        pos = start + n
    return tokens


def reconstruct(tokens: list[Token], trailing_ws: str = "") -> str:
    """Inverse of tokenize: surfaces plus recorded whitespace."""
    return "".join(t.pre_ws + t.surface for t in tokens) + trailing_ws


def quote_is_opener(tokens: list[Token], i: int) -> bool:
    """A quote mark opens a quotation when it hugs the following word."""
    nxt = tokens[i + 1] if i + 1 < len(tokens) else None
    return nxt is not None and nxt.kind == WORD and nxt.pre_ws == ""


def split_document(tokens: list[Token], title_mode: str = "auto") -> Document:
    """Group tokens into sentences and paragraphs, from the tokens alone.

    Sentences end at terminal punctuation (a quote mark directly after the
    terminal is attached to the closing sentence when a quote was opened
    inside it).  Tokens before the first word open the first sentence; a
    later run without a word joins the sentence before it, which keeps its
    terminal, and a document without a word is one sentence.  A token after
    a blank line opens a paragraph, so blank lines before the first token
    or after the last open none; a sentence lies in the paragraph of its
    first word (of its first token, without one).  The first sentence is
    the title when its last token starts on the first line and it ends
    without terminal punctuation (``title_mode='auto'``; ``'force'`` drops
    the second test).
    """
    if not tokens:
        return Document()

    # the tokens after a blank line; a token's paragraph is how many lie up to it
    para_starts = [k for k in range(1, len(tokens)) if has_blank_line(tokens[k].pre_ws)]

    # (start, end, terminal) of each run of tokens: a run ends at a
    # terminal (or at a closing quote right after it) and where the
    # paragraph changes, so only those positions are visited
    runs = []
    start = 0
    for i in sorted({k for k, t in enumerate(tokens) if t.kind == TERMINAL}.union(para_starts)):
        if i > start and has_blank_line(tokens[i].pre_ws):
            runs.append((start, i, "none"))
            start = i
        if tokens[i].kind == TERMINAL:
            end = i + 1
            if end < len(tokens) and tokens[end].kind == QUOTE \
                    and not quote_is_opener(tokens, end):
                end += 1
            runs.append((start, end, TERMINAL_CHARS[tokens[i].surface]))
            start = end
    runs.append((start, len(tokens), "none"))

    # (start, terminal, first word) of each run with a word: it opens a
    # sentence that lasts up to the next one, so the runs without a word
    # join the sentence before them (the first, before any)
    heads = []
    for start, end, terminal in runs:
        first_word = next((k for k in range(start, end) if tokens[k].kind == WORD), None)
        if first_word is not None:
            heads.append((start, terminal, first_word))
    heads = heads or [(0, "none", 0)]
    bounds = [0] + [start for start, _, _ in heads[1:]] + [len(tokens)]
    # the first sentence is the title when its last token starts on the first line
    last = bounds[1] - 1
    title = (title_mode == "force" or title_mode == "auto" and heads[0][1] == "none") \
        and not LINE_END.search(reconstruct(tokens[:last]) + tokens[last].pre_ws)
    sentences = [Sentence(tokens[a:b], terminal, i == 0 and title,
                          bisect_right(para_starts, w), i)
                 for i, ((_, terminal, w), a, b) in enumerate(zip(heads, bounds, bounds[1:]))]
    return Document(sentences, len(para_starts) + 1)


# Comma classification ------------------------------------------------------

#: words whose appearance right after a comma signals a parenthetical aside
PARENTHETICAL_WORDS = {
    "therefore", "however", "moreover", "indeed", "perhaps", "though",
    "of_course", "in_fact", "say",
}

VOCATIVE_WORDS = {"sir", "madam", "friend", "friends", "baby", "dear", "darling"}

_DETERMINERS = {"the", "a", "an", "this", "that", "these", "those", "their",
                "his", "her", "its", "my", "your", "our"}


def classify_comma(sentence: Sentence, index: int) -> str:
    """One of appositive/vocative/parenthetical/other, by lexical heuristics.

    These are the classes that keep a short comma group standalone.
    """
    if sentence.tokens[index].kind != COMMA:
        raise ValueError("classify_comma called on a non-comma token")
    words = sentence.words
    nxt = next((words[i] for i in range(index + 1, len(words)) if words[i] is not None), None)
    prev = next((words[i] for i in range(index - 1, -1, -1) if words[i] is not None), None)

    if nxt is None:
        return "other"
    if nxt in VOCATIVE_WORDS:
        return "vocative"
    if nxt in PARENTHETICAL_WORDS or prev in PARENTHETICAL_WORDS:
        return "parenthetical"
    if nxt in _DETERMINERS and prev is not None:
        # an NP echo with no verb up to the next boundary restates the head
        after = list(takewhile(lambda w: w is not None, words[index + 1:index + 6]))
        if len(after) >= 2 and not _contains_verb(after):
            return "appositive"
    return "other"


_VERB_HINTS = {"is", "are", "was", "were", "be", "been", "had", "have", "has",
               "could", "would", "should", "will", "shall", "may", "might",
               "said", "did", "do", "does"}


def _contains_verb(words: list[str]) -> bool:
    return any(w in _VERB_HINTS or w.endswith("ed") for w in words)
