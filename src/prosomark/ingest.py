"""Raw text to a tokenized document.

Tokenization separates punctuation, merges known multiwords into single
tokens (surface text is preserved, the normalized form joins the source
words with underscores), splits sentences at terminal punctuation and
paragraphs at blank lines, and flags a punctuation-less first line as the
title.  Every token remembers the whitespace that preceded it so the
original text can be reconstructed byte for byte.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field

WORD = "word"
COMMA = "comma"
TERMINAL = "terminal_punct"
QUOTE = "quote_mark"
OTHER_PUNCT = "other_punct"

TERMINAL_CHARS = {".": "period", "?": "question", "!": "exclamation", ":": "colon"}
QUOTE_CHARS = {'"', "“", "”"}

_TOKEN_RE = re.compile(r"[^\s\w]|[\w'-]+", re.UNICODE)


@dataclass
class Token:
    surface: str
    normalized: str
    index: int
    kind: str
    pre_ws: str = ""
    phon_override: str | None = None
    source_words: int = 1


@dataclass
class Sentence:
    tokens: list[Token]
    terminal: str = "none"
    is_title: bool = False
    paragraph_index: int = 0
    index: int = 0


@dataclass
class Document:
    sentences: list[Sentence] = field(default_factory=list)
    paragraph_count: int = 0
    raw: str = ""

    def tokens(self) -> list[Token]:
        out = []
        for s in self.sentences:
            out.extend(s.tokens)
        return out

    def token_count(self) -> int:
        """One past the last token's index: the length of a list indexed by
        token position that covers every token of the document."""
        return self.sentences[-1].tokens[-1].index + 1 if self.sentences else 0


class PhonLexicon:
    """Case-insensitive word -> phonetic string map."""

    def __init__(self, entries: dict[str, str] | None = None):
        self.entries = {k.lower(): v for k, v in (entries or {}).items()}

    def lookup(self, word: str) -> str | None:
        return self.entries.get(word.lower())


def phon_exception(token: Token, lexicon: PhonLexicon) -> str | None:
    """Phonetic override for a token, if its normalized form is listed."""
    return lexicon.lookup(token.normalized)


def _raw_tokens(text: str):
    """Yield (pre_whitespace, chunk) pairs covering the text exactly."""
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        yield text[pos:m.start()], m.group(0)
        pos = m.end()


def _kind_of(chunk: str) -> str:
    if chunk == ",":
        return COMMA
    if chunk in TERMINAL_CHARS:
        return TERMINAL
    if chunk in QUOTE_CHARS:
        return QUOTE
    if not chunk[0].isalnum() and chunk[0] not in "'-":
        return OTHER_PUNCT
    return WORD


def tokenize(text: str, multiwords: list[list[str]] | None = None) -> list[Token]:
    """Split text into tokens, merging known multiword expressions.

    ``multiwords`` is a list of word sequences (already lowercased); the
    longest match at each position wins.  A merged token keeps the original
    surface text (inner whitespace included) and gets an underscore-joined
    normalized form.
    """
    pieces = list(_raw_tokens(text))
    multiwords = multiwords or []
    by_first: dict[str, list[list[str]]] = {}
    for mw in multiwords:
        by_first.setdefault(mw[0], []).append(mw)
    for cands in by_first.values():
        cands.sort(key=len, reverse=True)

    tokens: list[Token] = []
    i = 0
    while i < len(pieces):
        pre, chunk = pieces[i]
        kind = _kind_of(chunk)
        if kind == WORD:
            low = chunk.lower()
            match = None
            for cand in by_first.get(low, []):
                n = len(cand)
                if i + n > len(pieces):
                    continue
                window = pieces[i:i + n]
                if all(_kind_of(c) == WORD and c.lower() == w
                       for (_, c), w in zip(window, cand)):
                    match = cand
                    break
            if match:
                n = len(match)
                surface = chunk
                for pre2, chunk2 in pieces[i + 1:i + n]:
                    surface += pre2 + chunk2
                tokens.append(Token(surface, "_".join(match), len(tokens),
                                    WORD, pre, source_words=n))
                i += n
                continue
            tokens.append(Token(chunk, low, len(tokens), WORD, pre))
        else:
            tokens.append(Token(chunk, chunk, len(tokens), kind, pre))
        i += 1
    return tokens


def reconstruct(tokens: list[Token], trailing_ws: str = "") -> str:
    """Inverse of tokenize: surfaces plus recorded whitespace."""
    return "".join(t.pre_ws + t.surface for t in tokens) + trailing_ws


def _looks_like_title(line: str) -> bool:
    stripped = line.strip().rstrip("".join(QUOTE_CHARS))
    return bool(stripped) and stripped[-1] not in TERMINAL_CHARS


def quote_is_opener(tokens: list[Token], i: int) -> bool:
    """A quote mark opens a quotation when it hugs the following word."""
    nxt = tokens[i + 1] if i + 1 < len(tokens) else None
    return nxt is not None and nxt.kind == WORD and nxt.pre_ws == ""


def split_document(tokens: list[Token], raw: str, title_mode: str = "auto") -> Document:
    """Group tokens into sentences and paragraphs.

    Sentences end at terminal punctuation (a quote mark directly after the
    terminal is attached to the closing sentence when a quote was opened
    inside it).  Tokens before the first word open the first sentence; a
    later run without a word joins the sentence before it, and a document
    without a word is one sentence.  Paragraphs follow blank lines in the
    raw text, and a sentence lies in the paragraph of its first word (of
    its first token, without one).  The first line is flagged as a title
    when it carries no terminal punctuation (``title_mode='auto'``) or
    unconditionally (``'force'``).
    """
    doc = Document(raw=raw)
    if not tokens:
        doc.paragraph_count = 0
        return doc

    # paragraph index per token, from blank-line offsets in the raw text
    para_starts = [0]
    for m in re.finditer(r"\n[ \t]*\n", raw):
        para_starts.append(m.end())
    offsets = []
    pos = 0
    for t in tokens:
        pos += len(t.pre_ws)
        offsets.append(pos)
        pos += len(t.surface)
    para_of = [bisect_right(para_starts, off) - 1 for off in offsets]

    first_line = raw.split("\n", 1)[0]
    want_title = title_mode == "force" or (title_mode == "auto" and _looks_like_title(first_line))

    sentences: list[Sentence] = []
    cur: list[Token] = []

    def flush(terminal: str):
        first_word = next((t for t in cur if t.kind == WORD), None)
        if first_word is None:
            if sentences:
                sentences[-1].tokens.extend(cur)
                cur.clear()
            return  # the tokens before the first word open the first sentence
        sent = Sentence(list(cur), terminal=terminal, index=len(sentences),
                        paragraph_index=para_of[first_word.index])
        sentences.append(sent)
        cur.clear()

    i = 0
    while i < len(tokens):
        t = tokens[i]
        if cur and para_of[t.index] != para_of[cur[-1].index]:
            flush("none")
        cur.append(t)
        if t.kind == TERMINAL:
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if nxt is not None and nxt.kind == QUOTE \
                    and not quote_is_opener(tokens, i + 1):
                cur.append(nxt)
                i += 1
            flush(TERMINAL_CHARS[t.surface])
        i += 1
    flush("none")
    if not sentences:
        sentences.append(Sentence(list(cur), terminal="none", index=0,
                                  paragraph_index=para_of[cur[0].index]))

    if sentences and want_title and sentences[0].paragraph_index == 0:
        first = sentences[0]
        line_end = len(first_line)
        if all(offsets[t.index] < line_end for t in first.tokens):
            first.is_title = True

    doc.sentences = sentences
    doc.paragraph_count = (max(s.paragraph_index for s in sentences) + 1) if sentences else 0
    return doc


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
    toks = sentence.tokens
    if toks[index].kind != COMMA:
        raise ValueError("classify_comma called on a non-comma token")
    nxt = next((t for t in toks[index + 1:] if t.kind == WORD), None)
    prev = next((t for t in reversed(toks[:index]) if t.kind == WORD), None)

    if nxt is None:
        return "other"
    if nxt.normalized in VOCATIVE_WORDS:
        return "vocative"
    if nxt.normalized in PARENTHETICAL_WORDS:
        return "parenthetical"
    if prev is not None and prev.normalized in PARENTHETICAL_WORDS:
        return "parenthetical"
    if nxt.normalized in _DETERMINERS and prev is not None:
        # an NP echo with no verb up to the next boundary restates the head
        after = []
        for t in toks[index + 1:]:
            if t.kind != WORD:
                break
            after.append(t)
        if len(after) >= 2 and not _contains_verb(after[:5]):
            return "appositive"
    return "other"


_VERB_HINTS = {"is", "are", "was", "were", "be", "been", "had", "have", "has",
               "could", "would", "should", "will", "shall", "may", "might",
               "said", "did", "do", "does"}


def _contains_verb(tokens: list[Token]) -> bool:
    return any(t.normalized in _VERB_HINTS or t.normalized.endswith("ed")
               for t in tokens)
