"""Run configuration.

Thresholds, lexicon paths and switches.  Everything defaults to the shipped
fixture lexica so the tool runs with zero configuration.  A config file is
flat ``key = value`` text; command-line flags override it.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

from . import lexica

TITLE_MODES = ("auto", "force", "off")
EMIT_MODES = ("markup", "tobi", "both", "groups")

#: (path field, lexicon field, loader) of each lexicon
_LEXICA = (("multiword_path", "multiwords", lexica.load_multiwords),
           ("phonetic_path", "phon_lexicon", lexica.load_phon_lexicon),
           ("frozen_path", "frozen_table", lexica.load_frozen_table),
           ("affect_path", "affect_words", lexica.load_tagged_words),
           ("quantifier_path", "quantifiers", lexica.load_word_set),
           ("comm_verb_path", "comm_verbs", lexica.load_word_set))

#: (loader, path) -> ((path, st_mtime_ns, st_size), lexicon) of its last build
_BUILT: dict[tuple, tuple] = {}


class Config:
    """One compile's parameters, lexicon paths and loaded lexica.  The
    lexicon fields, filled by ``load_lexica``, are read-only and shared
    between configs."""
    def __init__(self, min_len: int = 2, max_len: int = 12, max_subj: int = 4,
                 title_mode: str = "auto", emit_mode: str = "markup", pov_tracking: bool = True,
                 multiword_path: Path = lexica.data_path("multiwords.txt"),
                 phonetic_path: Path = lexica.data_path("phonetic.tsv"),
                 frozen_path: Path = lexica.data_path("frozen.tsv"),
                 affect_path: Path = lexica.data_path("affect.tsv"),
                 quantifier_path: Path = lexica.data_path("quantifiers.txt"),
                 comm_verb_path: Path = lexica.data_path("comm_verbs.txt"),
                 multiwords: tuple[tuple[str, ...], ...] = (),
                 phon_lexicon: Mapping[str, str] = MappingProxyType({}),
                 frozen_table: tuple[tuple[tuple[str, ...], str], ...] = (),
                 affect_words: Mapping[str, str] = MappingProxyType({}),
                 quantifiers: frozenset[str] = frozenset(),
                 comm_verbs: frozenset[str] = frozenset()):
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
        self.multiwords, self.phon_lexicon = multiwords, phon_lexicon
        self.frozen_table, self.affect_words = frozen_table, affect_words
        self.quantifiers, self.comm_verbs = quantifiers, comm_verbs

    def load_lexica(self) -> "Config":
        """Fill the lexicon fields from their files.  A missing file raises
        ``FileNotFoundError`` before any lexicon is built; one that is not
        UTF-8 raises ``ValueError`` naming it.  Configs share each lexicon:
        it is built again only when its file's mtime or size has changed
        since its loader last built it (Python's rule for ``.pyc`` files).
        One entry is kept per loader and path; a build that raises caches
        nothing.  Threads that miss together each build an equal lexicon and
        store it in one dict write, so no lock is needed."""
        stamps = []
        for path_field, _, _ in _LEXICA:
            path = os.fspath(getattr(self, path_field))
            try:
                st = os.stat(path)
            except FileNotFoundError:
                raise FileNotFoundError(f"lexicon file not found: {path}") from None
            stamps.append((path, st.st_mtime_ns, st.st_size))
        for (_, name, load), stamp in zip(_LEXICA, stamps):
            hit = _BUILT.get((load, stamp[0]))
            if hit is None or hit[0] != stamp:
                hit = _BUILT[load, stamp[0]] = (stamp, load(stamp[0]))
            setattr(self, name, hit[1])
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
