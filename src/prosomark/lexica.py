"""Lexicon files and the small built-in word classes the rules consult.

All shipped lexica are plain UTF-8 text with ``#`` comments, so the
fixtures can be edited by hand; a leading byte-order mark is skipped.
A loaded lexicon is read-only: tuples, frozensets and read-only mappings,
which ``Config.load_lexica`` shares between configs.  Formats:

* multiword list  - one expression per line, words space-separated
* phonetic list   - ``word-or-phrase<TAB>phonetic``
* frozen table    - ``pattern<TAB>role``
* affect list     - ``word-or-phrase<TAB>{sad|exclaim|exhort}``
* quantifier list - one word per line
* communication-verb list - one lemma per line
"""

from __future__ import annotations

import importlib.resources
from collections.abc import Collection, Iterator, Mapping
from pathlib import Path
from types import MappingProxyType

DATA_PACKAGE = "prosomark.data"
DATA_DIR = Path(str(importlib.resources.files(DATA_PACKAGE)))


def data_path(name: str) -> Path:
    return DATA_DIR / name


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The non-comment lines of a lexicon file, each with its line number.
    A file that is not UTF-8 raises ``ValueError`` naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read lexicon {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


#: the tags of the affect lexicon
AFFECT_TAGS = ("sad", "exclaim", "exhort")

#: the roles of the frozen table: mapping-table rows, each with the row
#: ``<role>_tail`` of its address-term tail
FROZEN_ROLES = ("exhortative",)


def _tagged(path: str | Path, tags: Collection[str]) -> Iterator[tuple[str, str]]:
    """The ``entry<TAB>tag`` lines of a lexicon file, split at the tab or
    else at the last space.  A line with one field, or whose tag is not one
    of ``tags``, raises ``ValueError`` naming the file and the line."""
    for line_no, line in _lines(path):
        entry, _, tag = line.partition("\t")
        if not tag:
            entry, _, tag = line.rpartition(" ")
        entry, tag = entry.strip(), tag.strip()
        if not entry or tag not in tags:
            raise ValueError(f"{path}:{line_no}: expected entry<TAB>{'|'.join(tags)}, "
                             f"got {line!r}")
        yield entry, tag


def load_multiwords(path: str | Path) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.lower().split()) for _, line in _lines(path))


def load_phon_lexicon(path: str | Path) -> Mapping[str, str]:
    """word -> phonetic map of ``word<TAB>phonetic`` lines (without a tab,
    split at the first space), keyed like a token's normalized form: folded,
    a multiword's words joined with ``_``.  A line without a phonetic field
    raises ``ValueError`` naming the file and the line."""
    entries = {}
    for n, line in _lines(path):
        word, _, phon = line.partition("\t")
        if not phon:
            word, _, phon = line.partition(" ")
        word, phon = word.strip(), phon.strip()
        if not word or not phon:
            raise ValueError(f"{path}:{n}: expected word<TAB>phonetic, got {line!r}")
        entries["_".join(word.lower().split())] = phon
    return MappingProxyType(entries)


def load_word_set(path: str | Path) -> frozenset[str]:
    return frozenset(line.lower().replace(" ", "_") for _, line in _lines(path))


def load_tagged_words(path: str | Path) -> Mapping[str, str]:
    """word -> tag map (affect lexicon); phrases keep internal spaces."""
    return MappingProxyType({word.lower(): tag for word, tag in _tagged(path, AFFECT_TAGS)})


def load_frozen_table(path: str | Path) -> tuple[tuple[tuple[str, ...], str], ...]:
    return tuple((tuple(pattern.lower().split()), role)
                 for pattern, role in _tagged(path, FROZEN_ROLES))


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

#: quantifier pronouns stand alone and take the pre-quantifier slowdown with
#: its closing pause; modifier quantifiers join the following head under the
#: head slowdown instead
PRONOUN_QUANTIFIERS = {"nobody", "nothing", "none", "everyone", "everybody",
                       "anybody", "anything", "someone", "somebody", "no_one"}

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


FUNCTION_WORDS = frozenset(DETERMINERS | PREPOSITIONS | AUXILIARIES | PRONOUNS
                           | COORDINATORS | ADVERSATIVE_CONNECTIVES | SUBORDINATORS
                           | SUBORDINATE_MARKERS)


def function_word(norm: str) -> bool:
    return norm in FUNCTION_WORDS
