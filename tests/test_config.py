"""Configuration: lexicon loading and config files."""

import copy

import pytest

from prosomark.cli import run
from prosomark.config import Config, parse_config_file

LEXICON_FIELDS = ("multiwords", "frozen_table", "affect_words", "quantifiers", "comm_verbs")


def test_configs_share_no_lexicon_objects():
    first = Config().load_lexica()
    pristine = {name: copy.deepcopy(getattr(first, name)) for name in LEXICON_FIELDS}
    first.multiwords.append(["zz", "top"])
    first.multiwords[0].append("extra")
    first.frozen_table[0][0].append("extra")
    first.affect_words["cat"] = "sad"
    first.quantifiers.add("zz")
    first.comm_verbs.discard(next(iter(first.comm_verbs)))
    first.phon_lexicon.entries["cat"] = "kat"

    second = Config().load_lexica()
    for name in LEXICON_FIELDS:
        assert getattr(second, name) == pristine[name], name
    assert "cat" not in second.phon_lexicon.entries


@pytest.mark.parametrize("value,expected", [
    ("1", True), ("TRUE", True), ("yes", True), ("On", True),
    ("0", False), ("false", False), ("No", False), ("off", False),
])
def test_config_file_booleans(tmp_path, value, expected):
    path = tmp_path / "c.cfg"
    path.write_text(f"pov_tracking = {value}\nemit_mode = tobi\ntitle_mode = off\n")
    cfg = parse_config_file(path)
    assert (cfg.pov_tracking, cfg.emit_mode, cfg.title_mode) == (expected, "tobi", "off")


def test_min_len_above_max_len_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="min_len must not exceed max_len"):
        Config(min_len=5, max_len=3)
    path = tmp_path / "c.cfg"
    path.write_text("min_len = 5\nmax_len = 3\n")
    with pytest.raises(ValueError) as exc:
        parse_config_file(path)
    assert str(exc.value) == f"{path}: min_len must not exceed max_len"
    # the command line reports it on one line that names the file
    text = tmp_path / "in.txt"
    text.write_text("Cats run.\n")
    assert run([str(text), "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"prosomark: config error: {path}: min_len must not exceed max_len\n"
