"""Run configuration.

Thresholds, lexicon paths and switches.  Everything defaults to the shipped
fixture lexica so the tool runs with zero configuration.  A config file is
flat ``key = value`` text; command-line flags override it.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import MappingProxyType

from . import lexica
from .ingest import phrase_index, tokenize

TITLE_MODES = ("auto", "force", "off")
EMIT_MODES = ("markup", "tobi", "both", "groups")

#: (path field, lexicon field, loader) of each lexicon
_LEXICA = (("multiword_path", "multiwords", lexica.load_multiwords),
           ("phonetic_path", "phon_lexicon", lexica.load_phon_lexicon),
           ("frozen_path", "frozen_table", lexica.load_frozen_table),
           ("affect_path", "affect_words", lexica.load_tagged_words),
           ("quantifier_path", "quantifiers", lexica.load_word_set),
           ("comm_verb_path", "comm_verbs", lexica.load_word_set))

#: (build, paths) -> (the files' (path, st_mtime_ns, st_size), what it built)
_BUILT: dict[tuple, tuple] = {}


def _token_forms(multiwords, frozen_table, affect_words) -> tuple:
    """The frozen table and the affect list in the text's token forms, and
    the phrase indexes of the frozen patterns and of the sad entries."""
    def forms(phrase: str) -> tuple[str, ...]:
        return tuple(t.normalized for t in tokenize(phrase, multiwords))
    frozen = tuple((forms(" ".join(pattern)), role) for pattern, role in frozen_table)
    affect = {forms(key): tag for key, tag in affect_words.items()}
    return (frozen, MappingProxyType({" ".join(k): tag for k, tag in affect.items()}),
            phrase_index(frozen), phrase_index((k, t) for k, t in affect.items() if t == "sad"))


class Config:
    """One compile's parameters and lexicon paths, and what ``load_lexica``
    builds from the files (empty until then): the read-only lexica, whose
    frozen patterns and affect phrases are in the text's token forms
    (``dead_body``), and the phrase indexes of the frozen and the sad
    phrases, which the rule planner reads."""
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
        UTF-8 raises ``ValueError`` naming it.  Configs share each lexicon:
        it is built again only when its file's mtime or size has changed
        since its loader last built it (Python's rule for ``.pyc`` files).
        One entry is kept per build and paths; a build that raises caches
        nothing.  Threads that miss together each build an equal lexicon and
        store it in one dict write, so no lock is needed."""
        stamps = {}
        for path_field, name, _ in _LEXICA:
            path = os.fspath(getattr(self, path_field))
            try:
                st = os.stat(path)
            except FileNotFoundError:
                raise FileNotFoundError(f"lexicon file not found: {path}") from None
            stamps[name] = (path, st.st_mtime_ns, st.st_size)
        for (_, name, load), stamp in zip(_LEXICA, stamps.values()):
            hit = _BUILT.get((load, stamp[0]))
            if hit is None or hit[0] != stamp:
                hit = _BUILT[load, stamp[0]] = (stamp, load(stamp[0]))
            setattr(self, name, hit[1])
        # phrases take token forms again when a multiword, frozen or affect file changes
        files = (stamps["multiwords"], stamps["frozen_table"], stamps["affect_words"])
        key = (_token_forms, *[path for path, _, _ in files])
        hit = _BUILT.get(key)
        if hit is None or hit[0] != files:
            hit = _BUILT[key] = (files, _token_forms(self.multiwords, self.frozen_table,
                                                     self.affect_words))
        self.frozen_table, self.affect_words, self.frozen_index, self.sad_index = hit[1]
        return self


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_INT_KEYS = ("min_len", "max_len", "max_subj")
_PATH_KEYS = {path for path, _, _ in _LEXICA}
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
