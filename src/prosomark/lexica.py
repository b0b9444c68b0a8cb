"""Lexicon files and the small built-in word classes the rules consult.

All shipped lexica are plain UTF-8 text with ``#`` comments, so the
fixtures can be edited by hand.  Formats:

* multiword list  - one expression per line, words space-separated
* phonetic list   - ``word<TAB>phonetic``
* frozen table    - ``pattern<TAB>role``
* affect list     - ``word-or-phrase<TAB>{sad|exclaim|exhort}``
* quantifier list - one word per line
* communication-verb list - one lemma per line
"""

from __future__ import annotations

import functools
import importlib.resources
import os
from collections.abc import Collection
from pathlib import Path

from .ingest import PhonLexicon

DATA_PACKAGE = "prosomark.data"


@functools.cache
def _data_dir() -> Path:
    return Path(str(importlib.resources.files(DATA_PACKAGE)))


def data_path(name: str) -> Path:
    return _data_dir() / name


#: path -> ((st_mtime_ns, st_size), numbered content lines) of the last read
_LINES: dict[str, tuple[tuple[int, int], tuple[tuple[int, str], ...]]] = {}


def _lines(path: str | Path) -> tuple[tuple[int, str], ...]:
    """The non-comment lines of a lexicon file, each with its line number.

    A file is read again only when its mtime or size has changed since the
    last read of the same path (the rule Python uses for ``.pyc`` files);
    one entry is kept per path.  The lines are a tuple, so no caller can
    change what the next one gets.
    """
    key = os.fspath(path)
    st = os.stat(key)
    stamp = (st.st_mtime_ns, st.st_size)
    cached = _LINES.get(key)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    lines = []
    for line_no, raw in enumerate(Path(key).read_text(encoding="utf-8").splitlines(),
                                  start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((line_no, line))
    out = tuple(lines)
    _LINES[key] = (stamp, out)
    return out


#: the tags of the affect lexicon
AFFECT_TAGS = ("sad", "exclaim", "exhort")

#: the roles of the frozen table: mapping-table rows, each with the row
#: ``<role>_tail`` of its address-term tail
FROZEN_ROLES = ("exhortative",)


def _tagged(path, line_no: int, line: str, tags: Collection[str]) -> tuple[str, str]:
    """An ``entry<TAB>tag`` line split at its tab, or without one at its
    last space.  A line with one field, or whose tag is not one of ``tags``,
    raises ``ValueError`` naming the file and the line."""
    entry, _, tag = line.partition("\t")
    if not tag:
        entry, _, tag = line.rpartition(" ")
    entry, tag = entry.strip(), tag.strip()
    if not entry or tag not in tags:
        raise ValueError(f"{path}:{line_no}: expected entry<TAB>{'|'.join(tags)}, "
                         f"got {line!r}")
    return entry, tag


def load_multiwords(path: str | Path) -> list[list[str]]:
    return [line.lower().split() for _, line in _lines(path)]


def load_phon_lexicon(path: str | Path) -> PhonLexicon:
    """``word<TAB>phonetic`` lines, or without a tab split at the first
    space.  A line without a phonetic field raises ``ValueError`` naming the
    file and the line."""
    entries = {}
    for n, line in _lines(path):
        word, _, phon = line.partition("\t")
        if not phon:
            word, _, phon = line.partition(" ")
        word, phon = word.strip(), phon.strip()
        if not word or not phon:
            raise ValueError(f"{path}:{n}: expected word<TAB>phonetic, got {line!r}")
        entries[word] = phon
    return PhonLexicon(entries)


def load_word_set(path: str | Path) -> set[str]:
    return {line.lower().replace(" ", "_") for _, line in _lines(path)}


def load_tagged_words(path: str | Path) -> dict[str, str]:
    """word -> tag map (affect lexicon); phrases keep internal spaces."""
    out = {}
    for n, line in _lines(path):
        word, tag = _tagged(path, n, line, AFFECT_TAGS)
        out[word.lower()] = tag
    return out


def load_frozen_table(path: str | Path) -> list[tuple[list[str], str]]:
    out = []
    for n, line in _lines(path):
        pattern, role = _tagged(path, n, line, FROZEN_ROLES)
        out.append((pattern.lower().split(), role))
    return out


# Built-in word classes -----------------------------------------------------
# Small closed classes used by segmentation and the accent rules.  These are not
# a tag set; just enough to tell function words from content words.

DETERMINERS = {"the", "a", "an", "this", "that", "these", "those", "some",
               "any", "no", "every", "each", "all"}

PREPOSITIONS = {"of", "in", "on", "at", "by", "to", "from", "with", "for",
                "round", "around", "into", "over", "under", "about", "above",
                "below", "between", "without", "through", "during", "upon"}

AUXILIARIES = {"is", "are", "was", "were", "am", "be", "been", "being",
               "have", "has", "had", "do", "does", "did",
               "can", "could", "will", "would", "shall", "should",
               "may", "might", "must", "ought"}

PRONOUNS = {"i", "you", "he", "she", "it", "we", "they", "me", "him", "us",
            "them", "himself", "herself", "one_another", "each_other",
            "themselves", "myself", "yourself", "itself"}

POSSESSIVES = {"my", "your", "his", "her", "its", "our", "their"}

COORDINATORS = {"and", "or", "nor"}

#: adversative connectives that stand off prosodically after a strong break
ADVERSATIVE_CONNECTIVES = {"but", "however", "yet"}

#: subordinate-clause openers that create a breath-group boundary
SUBORDINATORS = {"while", "until", "if", "because", "although", "though",
                 "since", "unless", "whereas", "as", "than"}

#: temporal discourse markers that take the announcing contour instead of
#: opening a new group
SUBORDINATE_MARKERS = {"when"}

#: words that open a complement right after a governing head (tight BI-33)
COMPLEMENT_OPENERS = {"that", "this", "what", "which", "who", "whom", "whose",
                      "while", "if", "because"}

#: words that open a looser continuation after a head (BI-32)
LOOSE_OPENERS = {"to", "at_last"}

RELATIVE_PRONOUNS = {"which", "who", "whom", "whose"}

SENTENCE_ADVERBS = {"now", "then", "therefore", "however", "meanwhile",
                    "long_ago", "at_last", "by_this_means", "yesterday",
                    "today", "soon", "here", "there"}

#: small irregular past-tense list for the shallow analyzer
IRREGULAR_PASTS = {"was", "were", "said", "got", "met", "ran", "came", "went",
                   "saw", "took", "spoke", "looked", "had", "did", "stood",
                   "sat", "told", "thought", "made", "gave", "found", "left",
                   "broke", "fell", "rose", "flew", "ate", "drank", "heard",
                   "held", "kept", "knew", "led", "lost", "meant", "paid",
                   "put", "read", "sent", "sold", "slept", "won", "wrote",
                   "brought", "bought", "caught", "taught", "began", "sang"}

COPULAS = {"is", "are", "was", "were", "am", "be", "been"}

#: negation/privative words an affect span extends over to its left
NEGATION_WORDS = {"without", "no", "not", "never"}

#: address terms accepted as the tail of an exhortative frozen expression
DEAR_TERMS = {"baby", "dear", "darling", "honey", "friend", "friends", "love"}


def function_word(norm: str) -> bool:
    return (norm in DETERMINERS or norm in PREPOSITIONS or norm in AUXILIARIES
            or norm in PRONOUNS or norm in COORDINATORS
            or norm in ADVERSATIVE_CONNECTIVES or norm in SUBORDINATORS
            or norm in SUBORDINATE_MARKERS)
