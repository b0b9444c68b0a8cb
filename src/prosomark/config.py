"""Run configuration.

Thresholds, lexicon paths and switches.  Everything defaults to the shipped
fixture lexica so the tool runs with zero configuration.  A config file is
flat ``key = value`` text; command-line flags override it.
"""

from __future__ import annotations

import _thread
import os
from pathlib import Path
from types import MappingProxyType

from . import lexica
from .ingest import WORD, Shown, phrase_index, tokenize

TITLE_MODES = ("auto", "force", "off")
EMIT_MODES = ("markup", "tobi", "both", "groups")

#: (path field, lexicon field) of each lexicon file, in ``_build``'s order
_LEXICA = (("multiword_path", "multiwords"), ("phonetic_path", "phon_lexicon"),
           ("frozen_path", "frozen_table"), ("affect_path", "affect_words"),
           ("quantifier_path", "quantifiers"), ("comm_verb_path", "comm_verbs"))

#: the six lexicon paths -> (their files' (path, st_mtime_ns, st_size),
#: the lexicon fields ``_build`` built from them), first built first
_BUILT: dict[tuple[str, ...], tuple] = {}
_BUILT_LIMIT = 8            # the most sets of paths ``_BUILT`` holds
_BUILT_LOCK = _thread.allocate_lock()     # makes a store and its eviction one step


def _build(multiword_path, phonetic_path, frozen_path, affect_path, quantifier_path,
           comm_verb_path) -> dict:
    """The lexicon fields of a config, read from its six files, and the
    phrase indexes of the frozen and the sad phrases; every phrase takes the
    text's token forms, ``tokenize``'s with the multiwords.  A phrase with a
    non-word token, or a phonetic, quantifier or communication-verb entry
    of more than one token, raises ``ValueError`` naming ``path:line``."""
    multiwords = tuple(tuple(line.lower().split()) for _, line in lexica.lines(multiword_path))

    def forms(path, line_no, phrase, one_word=False) -> tuple[str, ...]:
        tokens = tokenize(phrase, multiwords)
        if any(t.kind != WORD for t in tokens) or one_word and len(tokens) > 1:
            raise ValueError(f"{path}:{line_no}: expected {'one word' if one_word else 'words'}"
                             f", got {phrase!r}")
        return tuple(t.normalized for t in tokens)

    def word_set(path) -> frozenset[str]:
        return frozenset(forms(path, n, line, True)[0] for n, line in lexica.lines(path))

    def index(pairs) -> MappingProxyType:       # a read-only ``phrase_index``
        return MappingProxyType({w: tuple(cands) for w, cands in phrase_index(pairs).items()})

    frozen = tuple((forms(frozen_path, n, pattern), role)
                   for n, pattern, role in lexica.tagged(frozen_path, lexica.FROZEN_ROLES))
    affect = {forms(affect_path, n, phrase): tag
              for n, phrase, tag in lexica.tagged(affect_path, lexica.AFFECT_TAGS)}
    phon = {forms(phonetic_path, n, word, True)[0]: phonetic
            for n, word, phonetic in lexica.phonetic(phonetic_path)}
    return {"multiwords": multiwords, "phon_lexicon": MappingProxyType(phon),
            "frozen_table": frozen,
            "affect_words": MappingProxyType({" ".join(k): tag for k, tag in affect.items()}),
            "quantifiers": word_set(quantifier_path), "comm_verbs": word_set(comm_verb_path),
            "frozen_index": index(frozen),
            "sad_index": index((k, tag) for k, tag in affect.items() if tag == "sad")}


class Config(Shown):
    """One compile's parameters and lexicon paths, and what ``load_lexica``
    builds from the files (empty until then): the read-only lexica, whose
    phrases are in the text's token forms (``dead_body``), and the
    read-only phrase indexes of the frozen and the sad phrases, which the
    rule planner reads."""
    multiwords = frozen_table = ()
    phon_lexicon = affect_words = frozen_index = sad_index = MappingProxyType({})
    quantifiers = comm_verbs = frozenset()

    def __init__(self, min_len: int = 2, max_len: int = 12, max_subj: int = 4,
                 title_mode: str = "auto", emit_mode: str = "markup", pov_tracking: bool = True,
                 multiword_path: Path = lexica.data_path("multiwords.txt"),
                 phonetic_path: Path = lexica.data_path("phonetic.tsv"),
                 frozen_path: Path = lexica.data_path("frozen.tsv"),
                 affect_path: Path = lexica.data_path("affect.tsv"),
                 quantifier_path: Path = lexica.data_path("quantifiers.txt"),
                 comm_verb_path: Path = lexica.data_path("comm_verbs.txt")):
        for key, value in zip(_INT_KEYS, (min_len, max_len, max_subj)):
            if value < 0:
                raise ValueError(f"{key} must not be negative, not {value}")
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
        six paths until a file's mtime or size changes (Python's rule for
        ``.pyc`` files) or the ``_BUILT_LIMIT`` sets built after theirs push
        them out.  A build that raises caches nothing; threads that miss
        together each build equal lexica, and the last to store them wins."""
        paths, stamps = [], []
        for path_field, _ in _LEXICA:
            path = os.fspath(getattr(self, path_field))
            try:
                st = os.stat(path)
            except FileNotFoundError:
                raise FileNotFoundError(f"lexicon file not found: {path}") from None
            paths.append(path)
            stamps.append((path, st.st_mtime_ns, st.st_size))
        key = tuple(paths)
        hit = _BUILT.get(key)
        if hit is None or hit[0] != stamps:
            hit = (stamps, _build(*paths))
            with _BUILT_LOCK:
                _BUILT[key] = hit
                if len(_BUILT) > _BUILT_LIMIT:
                    del _BUILT[next(iter(_BUILT))]
        vars(self).update(hit[1])
        return self


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_INT_KEYS = ("min_len", "max_len", "max_subj")
_PATH_KEYS = {path for path, _ in _LEXICA}
_MODE_KEYS = {"title_mode": TITLE_MODES, "emit_mode": EMIT_MODES}


def parse_config_file(path: str | Path) -> Config:
    """A ``Config`` from a config file.  A malformed line, an unknown key or
    a value its key does not accept raises ``ValueError`` naming
    ``path:line``; values the ``Config`` refuses together (``min_len``
    above ``max_len``) raise it naming ``path``."""
    fields: dict[str, object] = {}
    text = Path(path).read_text(encoding="utf-8-sig")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        where = f"{path}:{line_no}"
        if not value:
            raise ValueError(f"{where}: expected key = value")
        if key in _INT_KEYS:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(f"{where}: {key} must be an integer, "
                                 f"not {value!r}") from None
            if fields[key] < 0:                 # the Config's check, with the line
                raise ValueError(f"{where}: {key} must not be negative, not {fields[key]}")
        elif key == "pov_tracking":
            if value.lower() not in _BOOLS:
                raise ValueError(f"{where}: {key} must be one of "
                                 f"{'/'.join(_BOOLS)}, not {value!r}")
            fields[key] = _BOOLS[value.lower()]
        elif key in _PATH_KEYS:
            fields[key] = (Path(value) if Path(value).is_absolute()
                           else (Path(path).parent / value).resolve())
        elif key in _MODE_KEYS:
            if value not in _MODE_KEYS[key]:
                raise ValueError(f"{where}: {key} must be one of "
                                 f"{'/'.join(_MODE_KEYS[key])}, not {value!r}")
            fields[key] = value
        else:
            raise ValueError(f"{where}: unknown key {key!r}")
    try:
        return Config(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
