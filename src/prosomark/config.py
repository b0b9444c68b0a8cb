"""Run configuration.

Thresholds, lexicon paths and switches.  Everything defaults to the shipped
fixture lexica so the tool runs with zero configuration.  A config file is
flat ``key = value`` text; command-line flags override it.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

from . import lexica
from .ingest import WORD, Shown, phrase_index, tokenize

TITLE_MODES = ("auto", "force", "off")
EMIT_MODES = ("markup", "tobi", "both", "groups")

#: the path field of each lexicon file, in ``_build``'s order
_LEXICA = ("multiword_path", "phonetic_path", "frozen_path", "affect_path", "quantifier_path",
           "comm_verb_path")


def _build(multiword_path, phonetic_path, frozen_path, affect_path, quantifier_path,
           comm_verb_path) -> dict:
    """The lexicon fields of a config, read from its six files: the
    multiwords, the frozen phrases and the sad phrases each as one
    ``phrase_index``.  Every phrase but a multiword takes the text's token
    forms, ``tokenize``'s with the multiwords.  A phrase with a non-word
    token, or a phonetic, quantifier or communication-verb entry of more
    than one token, raises ``ValueError`` naming ``path:line``."""
    multiwords = phrase_index((line.lower().split(), None)
                              for _, line in lexica.lines(lexica.read_text(multiword_path)))

    def forms(path, line_no, phrase, one_word=False) -> tuple[str, ...]:
        tokens = tokenize(phrase, multiwords)
        if any(t.kind != WORD for t in tokens) or one_word and len(tokens) > 1:
            raise ValueError(f"{path}:{line_no}: expected {'one word' if one_word else 'words'}"
                             f", got {phrase!r}")
        return tuple(t.normalized for t in tokens)

    def word_set(path) -> frozenset[str]:
        return frozenset(forms(path, n, line, True)[0]
                         for n, line in lexica.lines(lexica.read_text(path)))

    frozen = phrase_index((forms(frozen_path, n, pattern), role)
                          for n, pattern, role in lexica.tagged(frozen_path, lexica.FROZEN_ROLES))
    affect = {forms(affect_path, n, phrase): tag
              for n, phrase, tag in lexica.tagged(affect_path, lexica.AFFECT_TAGS)}
    phon = {forms(phonetic_path, n, word, True)[0]: phonetic
            for n, word, phonetic in lexica.phonetic(phonetic_path)}
    return {"multiwords": multiwords, "phon_lexicon": MappingProxyType(phon),
            "affect_words": MappingProxyType({" ".join(k): tag for k, tag in affect.items()}),
            "quantifiers": word_set(quantifier_path), "comm_verbs": word_set(comm_verb_path),
            "frozen_index": frozen,
            "sad_index": phrase_index((k, tag) for k, tag in affect.items() if tag == "sad")}


@lru_cache(maxsize=8)
def _built(stamps: tuple[tuple[str, int, int], ...]) -> dict:
    """``_build``'s lexica for the six files' ``(path, st_mtime_ns, st_size)``."""
    return _build(*(path for path, _, _ in stamps))


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_INT_KEYS = ("min_len", "max_len", "max_subj")
#: the keys that take one of a few words: the modes, and a switch's word
_CHOICES = {"title_mode": TITLE_MODES, "emit_mode": EMIT_MODES, "pov_tracking": _BOOLS}


def _check(key: str, value) -> None:
    """Raise ``ValueError`` when ``key`` does not take ``value``: a count
    below 0, or a word that is not one of its key's choices."""
    if key in _INT_KEYS and value < 0:
        raise ValueError(f"{key} must not be negative, not {value}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ValueError(f"{key} must be one of {'/'.join(_CHOICES[key])}, not {value!r}")


class Config(Shown):
    """One compile's parameters and lexicon paths, and what ``load_lexica``
    builds from the files (empty until then): the read-only lexica, whose
    phrases are in the text's token forms (``dead_body``).  The multiwords
    are the phrase index ``tokenize`` reads, and the frozen and the sad
    phrases the phrase indexes the rule planner reads."""
    multiwords = phon_lexicon = affect_words = frozen_index = sad_index = MappingProxyType({})
    quantifiers = comm_verbs = frozenset()

    def __init__(self, min_len: int = 2, max_len: int = 12, max_subj: int = 4,
                 title_mode: str = "auto", emit_mode: str = "markup", pov_tracking: bool = True,
                 multiword_path: Path = lexica.data_path("multiwords.txt"),
                 phonetic_path: Path = lexica.data_path("phonetic.tsv"),
                 frozen_path: Path = lexica.data_path("frozen.tsv"),
                 affect_path: Path = lexica.data_path("affect.tsv"),
                 quantifier_path: Path = lexica.data_path("quantifiers.txt"),
                 comm_verb_path: Path = lexica.data_path("comm_verbs.txt")):
        for key, value in zip(_INT_KEYS + ("title_mode", "emit_mode"),
                              (min_len, max_len, max_subj, title_mode, emit_mode)):
            _check(key, value)
        if min_len > max_len:
            raise ValueError("min_len must not exceed max_len")
        self.min_len, self.max_len, self.max_subj = min_len, max_len, max_subj
        self.title_mode, self.emit_mode, self.pov_tracking = title_mode, emit_mode, pov_tracking
        self.multiword_path, self.phonetic_path = multiword_path, phonetic_path
        self.frozen_path, self.affect_path = frozen_path, affect_path
        self.quantifier_path, self.comm_verb_path = quantifier_path, comm_verb_path

    def load_lexica(self) -> "Config":
        """Fill the lexicon fields from their files.  A missing file raises
        ``FileNotFoundError`` before any lexicon is built; one that is not
        UTF-8, a malformed line or a phrase ``_build`` refuses raises
        ``ValueError`` naming it.  Configs share the lexica of one set of
        six files until a file's mtime or size changes (Python's rule for
        ``.pyc`` files) or eight other sets are loaded after theirs: the
        least recently loaded set is dropped first.  A build that raises
        caches nothing."""
        stamps = []
        for path_field in _LEXICA:
            path = os.fspath(getattr(self, path_field))
            try:
                st = os.stat(path)
            except FileNotFoundError:
                raise FileNotFoundError(f"lexicon file not found: {path!r}") from None
            stamps.append((path, st.st_mtime_ns, st.st_size))
        vars(self).update(_built(tuple(stamps)))
        return self


def parse_config_file(path: str | Path) -> Config:
    """A ``Config`` from a config file, read as a lexicon is (``lexica.lines``).
    A relative lexicon path is joined to the file's directory as written,
    so no other file is read.  A malformed line, an unknown key or a value
    its key does not accept raises ``ValueError`` naming ``path:line``; a
    file that is not UTF-8, or values the ``Config`` refuses together
    (``min_len`` above ``max_len``), raise it naming ``path``."""
    fields: dict[str, object] = {}
    for line_no, line in lexica.lines(lexica.read_text(path)):
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if not value:
                raise ValueError("expected key = value")
            if key in _INT_KEYS:
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"{key} must be an integer, not {value!r}") from None
            elif key == "pov_tracking":
                value = value.lower()
            elif key in _LEXICA:
                value = Path(path).parent.absolute() / value
            elif key not in _CHOICES:
                raise ValueError(f"unknown key {key!r}")
            _check(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        fields[key] = _BOOLS[value] if key == "pov_tracking" else value
    try:
        return Config(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
