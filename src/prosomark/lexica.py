"""Text files, lexicon lines and the small built-in word classes the rules consult.

Every text file the package reads is UTF-8, read by ``read_text``, and its
lines end where ``LINE_END`` says.  All shipped lexica are plain text with
``#`` comments, so the fixtures can be edited by hand.  ``lines`` splits a
text into its numbered lines, and ``Config.load_lexica`` builds the lexica
from a file's.  Formats:

* multiword list  - one expression per line, words space-separated
* phonetic list   - ``word<TAB>phonetic`` (a word, or a listed multiword)
* frozen table    - ``pattern<TAB>role``
* affect list     - ``word-or-phrase<TAB>{sad|exclaim|exhort}``
* quantifier list - one word per line
* communication-verb list - one lemma per line
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterator
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

#: a line end: ``\r\n``, ``\n`` or a lone ``\r``, and no other character, in
#: any text the package reads; its group keeps the ends in a ``split``
LINE_END = re.compile(r"(\r\n|\r(?!\n)|\n)")


def data_path(name: str) -> Path:
    return DATA_DIR / name


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text, a leading byte-order mark skipped and each ``LINE_END``
    read as ``\\n``; a file not UTF-8 raises ``ValueError(PATH: not UTF-8: ...)``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")    # universal newlines
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None


def lines(text: str) -> list[tuple[int, str]]:
    """Each line of ``text``, split at ``LINE_END``, with its line number,
    stripped of its ``#`` comment and blanks; empty ones are skipped."""
    if "\r" in text:              # LINE_END's split, done by str methods at C speed
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [(line_no, line) for line_no, raw in enumerate(text.split("\n"), 1)
            if (line := raw.partition("#")[0].strip())]


#: the tags of the affect lexicon
AFFECT_TAGS = ("sad", "exclaim", "exhort")

#: the roles of the frozen table: mapping-table rows, each with the row
#: ``<role>_tail`` of its address-term tail
FROZEN_ROLES = ("exhortative",)


def tagged(path: str | Path, tags: Collection[str]) -> Iterator[tuple[int, str, str]]:
    """``(line number, entry, tag)`` of each ``entry<TAB>tag`` line of a
    lexicon file, split at the tab or else at the last space.  A line with
    one field, or whose tag is not one of ``tags``, raises ``ValueError``
    naming the file and the line."""
    for line_no, line in lines(read_text(path)):
        entry, _, tag = line.partition("\t")
        if not tag:
            entry, _, tag = line.rpartition(" ")
        entry, tag = entry.strip(), tag.strip()
        if not entry or tag not in tags:
            raise ValueError(f"{path}:{line_no}: expected entry<TAB>{'|'.join(tags)}, "
                             f"got {line!r}")
        yield line_no, entry, tag


def phonetic(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """``(line number, word, phonetic)`` of each ``word<TAB>phonetic`` line
    (without a tab, split at the first space).  A line without a phonetic
    field raises ``ValueError`` naming the file and the line."""
    for line_no, line in lines(read_text(path)):
        word, _, phon = line.partition("\t")
        if not phon:
            word, _, phon = line.partition(" ")
        word, phon = word.strip(), phon.strip()
        if not word or not phon:
            raise ValueError(f"{path}:{line_no}: expected word<TAB>phonetic, got {line!r}")
        yield line_no, word, phon


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
