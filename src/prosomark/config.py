"""Run configuration.

Thresholds, lexicon paths and switches.  Everything defaults to the shipped
fixture lexica so the tool runs with zero configuration.  A config file is
flat ``key = value`` text; command-line flags override it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import lexica
from .annotations import DEFAULT_RELEVANCE_RULES

TITLE_MODES = ("auto", "force", "off")
EMIT_MODES = ("markup", "tobi", "both", "groups")


@dataclass
class Config:
    min_len: int = 2
    max_len: int = 12
    max_subj: int = 4
    title_mode: str = "auto"            # auto | force | off
    emit_mode: str = "markup"           # markup | tobi | both | groups
    pov_tracking: bool = True
    multiword_path: Path = field(default_factory=lambda: lexica.data_path("multiwords.txt"))
    phonetic_path: Path = field(default_factory=lambda: lexica.data_path("phonetic.tsv"))
    frozen_path: Path = field(default_factory=lambda: lexica.data_path("frozen.tsv"))
    affect_path: Path = field(default_factory=lambda: lexica.data_path("affect.tsv"))
    quantifier_path: Path = field(default_factory=lambda: lexica.data_path("quantifiers.txt"))
    comm_verb_path: Path = field(default_factory=lambda: lexica.data_path("comm_verbs.txt"))
    relevance_rules: list = field(default_factory=lambda: list(DEFAULT_RELEVANCE_RULES))

    # loaded lexica (filled by load_lexica)
    multiwords: list[list[str]] = field(default_factory=list)
    phon_lexicon: object = None
    frozen_table: list = field(default_factory=list)
    affect_words: dict[str, str] = field(default_factory=dict)
    quantifiers: set[str] = field(default_factory=set)
    comm_verbs: set[str] = field(default_factory=set)

    def __post_init__(self):
        if self.min_len > self.max_len:
            raise ValueError("min_len must not exceed max_len")

    def load_lexica(self) -> "Config":
        """Fill the lexicon fields from their files.  A missing file raises
        ``FileNotFoundError`` before any is loaded; one that is not UTF-8
        raises ``ValueError`` naming it."""
        loads = ((self.multiword_path, "multiwords", lexica.load_multiwords),
                 (self.phonetic_path, "phon_lexicon", lexica.load_phon_lexicon),
                 (self.frozen_path, "frozen_table", lexica.load_frozen_table),
                 (self.affect_path, "affect_words", lexica.load_tagged_words),
                 (self.quantifier_path, "quantifiers", lexica.load_word_set),
                 (self.comm_verb_path, "comm_verbs", lexica.load_word_set))
        for path, _, _ in loads:
            if not Path(path).exists():
                raise FileNotFoundError(f"lexicon file not found: {path}")
        for path, name, load in loads:
            try:
                setattr(self, name, load(path))
            except UnicodeDecodeError as exc:
                raise ValueError(f"cannot read lexicon {path}: {exc}") from exc
        return self


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_INT_KEYS = {"min_len", "max_len", "max_subj"}
_PATH_KEYS = {"multiword_path", "phonetic_path", "frozen_path", "affect_path",
              "quantifier_path", "comm_verb_path"}
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
