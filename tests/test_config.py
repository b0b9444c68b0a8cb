"""Configuration: lexicon loading and config files."""

import copy
import inspect
import os
import re
from pathlib import Path
from unittest import mock

import pytest

from conftest import load
from prosomark import config as config_module
from prosomark import ingest, pipeline, render_markup, run_pipeline
from prosomark.cli import run
from prosomark.config import _LEXICA, Config, parse_config_file
from prosomark.pipeline import ProsodyManager

#: the fields ``load_lexica`` fills: the lexica and their phrase indexes
_FIELDS = [name for _, name in _LEXICA] + ["frozen_index", "sad_index"]


def _fresh_build(cfg):
    """Each lexicon field of ``cfg`` built again from its files, past the cache."""
    with mock.patch.dict(config_module._BUILT, clear=True):
        fresh = copy.copy(cfg).load_lexica()
    return {name: getattr(fresh, name) for name in _FIELDS}


def test_configs_share_no_lexicon_objects():
    # no config can change a lexicon another config holds: loaded lexica
    # and phrase indexes are read-only, so each of these edits raises
    first = Config().load_lexica()
    edits = [lambda: first.multiwords.append(["zz", "top"]),
             lambda: first.multiwords[0].append("extra"),
             lambda: first.frozen_table[0][0].append("extra"),
             lambda: first.affect_words.__setitem__("cat", "sad"),
             lambda: first.quantifiers.add("zz"),
             lambda: first.comm_verbs.discard(next(iter(first.comm_verbs))),
             lambda: first.phon_lexicon.__setitem__("cat", "kat"),
             lambda: first.frozen_index.clear(),
             lambda: first.frozen_index["come"][0][0].append("extra"),
             lambda: first.sad_index.__setitem__("cat", ()),
             lambda: first.sad_index["sly"].append((("cat",), "sad"))]
    for edit in edits:
        with pytest.raises((AttributeError, TypeError)):
            edit()

    second = Config().load_lexica()
    fresh = _fresh_build(second)
    for name in _FIELDS:
        assert getattr(second, name) == fresh[name], name
    assert "cat" not in second.phon_lexicon


def test_loaded_configs_share_lexicon_objects():
    first, second = Config().load_lexica(), Config().load_lexica()
    for name in _FIELDS:
        assert getattr(first, name) is getattr(second, name), name


def test_rewritten_lexicon_is_built_again(tmp_path):
    affect = tmp_path / "affect.tsv"
    affect.write_text("dog\tsad\n")
    before = Config(affect_path=affect).load_lexica().affect_words
    assert Config(affect_path=affect).load_lexica().affect_words is before
    stat = affect.stat()
    affect.write_text("cat\tsad\nsorrow\tsad\n")
    os.utime(affect, ns=(stat.st_atime_ns, stat.st_mtime_ns + 5_000_000_000))
    after = Config(affect_path=affect).load_lexica().affect_words
    assert after is not before
    assert (dict(before), dict(after)) == ({"dog": "sad"}, {"cat": "sad", "sorrow": "sad"})


def test_failed_lexicon_build_is_not_cached(tmp_path):
    affect = tmp_path / "affect.tsv"
    affect.write_text("dog\tsad\ncat\n")
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(str(affect))}:2: expected entry<TAB>"):
            Config(affect_path=affect).load_lexica()


def test_missing_lexicon_file_builds_nothing(tmp_path):
    missing = tmp_path / "comm_verbs.txt"
    cfg = Config(comm_verb_path=missing)
    with pytest.raises(FileNotFoundError) as exc:
        cfg.load_lexica()
    assert str(exc.value) == f"lexicon file not found: {missing}"
    assert (cfg.multiwords, cfg.quantifiers) == ((), frozenset())


def test_lexicon_phrases_load_in_token_forms(tmp_path):
    # "got up" and "dead body" are shipped multiwords, each one token
    frozen, affect = tmp_path / "frozen.tsv", tmp_path / "affect.tsv"
    frozen.write_text("got up\texhortative\n")
    affect.write_text("dead body\tsad\ncold night\texclaim\n")
    cfg = Config(frozen_path=frozen, affect_path=affect).load_lexica()
    assert cfg.frozen_table == ((("got_up",), "exhortative"),)
    assert dict(cfg.affect_words) == {"dead_body": "sad", "cold night": "exclaim"}
    assert cfg.frozen_index == {"got_up": ((("got_up",), "exhortative"),)}
    assert cfg.sad_index == {"dead_body": ((("dead_body",), "sad"),)}


@pytest.mark.parametrize("field,entries,expected", [
    ("quantifier_path", "all\n\na few\n", "one word"),
    ("comm_verb_path", "said\n\ncried out\n", "one word"),
    ("phonetic_path", "hue\thUW\n\nnew york\tnUWyOrk\n", "one word"),
    ("affect_path", "sly\tsad\n\noh no!\tsad\n", "words"),
])
def test_lexicon_phrase_the_text_cannot_spell_is_an_error(tmp_path, field, entries, expected):
    # no token of the text is two words that are not a listed multiword,
    # and no phrase match spans punctuation: such an entry would never apply
    path = tmp_path / "lexicon.txt"
    path.write_text(entries)
    phrase = entries.splitlines()[2].partition("\t")[0]
    message = f"{path}:3: expected {expected}, got {phrase!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Config(**{field: path}).load_lexica()


def test_one_load_leaves_one_cache_entry():
    with mock.patch.dict(config_module._BUILT, clear=True):
        cfg = Config().load_lexica()
        assert list(config_module._BUILT) == [
            tuple(os.fspath(getattr(cfg, path)) for path, _ in _LEXICA)]


def test_cache_keeps_at_most_its_limit_of_lexicon_sets(tmp_path):
    # a process that loads many distinct sets of paths keeps only the last
    with mock.patch.dict(config_module._BUILT, clear=True):
        for i in range(config_module._BUILT_LIMIT + 3):
            path = tmp_path / f"quantifiers{i}.txt"
            path.write_text("all\n")
            cfg = Config(quantifier_path=path).load_lexica()
            assert len(config_module._BUILT) <= config_module._BUILT_LIMIT
        assert len(config_module._BUILT) == config_module._BUILT_LIMIT
        # the oldest went first: the last set loaded is still held
        assert list(config_module._BUILT)[-1] == tuple(
            os.fspath(getattr(cfg, path)) for path, _ in _LEXICA)
        assert cfg.quantifiers == {"all"}


def test_one_cli_run_builds_each_lexicon_set_once(tmp_path, monkeypatch):
    built = []
    build = config_module._build
    monkeypatch.setattr(config_module, "_build", lambda *paths: built.append(paths) or build(*paths))
    text = tmp_path / "in.txt"
    text.write_text(load("belling_cat.txt"))
    with mock.patch.dict(config_module._BUILT, clear=True):
        assert run([str(text), "--emit", "both", "--out", str(tmp_path / "out.txt")]) == 0
    assert len(built) == 1


def test_repr_names_the_class_and_every_constructor_field():
    cfg = Config(max_len=9, emit_mode="tobi", frozen_path=Path("frozen.tsv"))
    fields = list(inspect.signature(Config).parameters)
    assert len(fields) == 12
    assert repr(cfg) == "Config(" + ", ".join(
        f"{name}={getattr(cfg, name)!r}" for name in fields) + ")"
    assert "max_len=9, " in repr(cfg) and "frozen_path=PosixPath('frozen.tsv')" in repr(cfg)


def test_compile_tokenizes_only_the_text(tmp_path, monkeypatch):
    frozen = tmp_path / "frozen.tsv"
    frozen.write_text("hush now\texhortative\n")
    cfg = Config(frozen_path=frozen).load_lexica()
    ProsodyManager(Config().load_lexica()).process("The cat ran.")
    calls, indexes = [], []

    def counted(function, log):
        def wrapper(*args):
            result = function(*args)
            log.append(result)
            return result
        return wrapper

    monkeypatch.setattr(pipeline, "tokenize", counted(ingest.tokenize, calls))
    monkeypatch.setattr(ingest, "phrase_index", counted(ingest.phrase_index, indexes))
    ProsodyManager(cfg).process("Hush now, dear. The cat ran.")
    assert len(calls) == 1
    # the one index built is the multiword index of the text's tokenize
    assert [{value for cands in index.values() for _, value in cands}
            for index in indexes] == [{None}]


def test_rewritten_multiword_file_gives_new_token_forms(tmp_path):
    multiwords, frozen = tmp_path / "multiwords.txt", tmp_path / "frozen.tsv"
    multiwords.write_text("got up\n")
    frozen.write_text("come on\texhortative\n")
    cfg = Config(multiword_path=multiwords, frozen_path=frozen)
    assert cfg.load_lexica().frozen_table == ((("come", "on"), "exhortative"),)
    stat = multiwords.stat()
    multiwords.write_text("got up\ncome on\n")
    os.utime(multiwords, ns=(stat.st_atime_ns, stat.st_mtime_ns + 5_000_000_000))
    assert cfg.load_lexica().frozen_table == ((("come_on",), "exhortative"),)


def test_constructor_takes_no_lexicon(config):
    for name in _FIELDS:
        with pytest.raises(TypeError):
            Config(**{name: getattr(config, name)})


def test_replaced_loaded_config_still_compiles():
    cfg = Config().load_lexica()
    nopov = copy.copy(cfg)
    nopov.pov_tracking = False
    assert nopov.affect_words is cfg.affect_words
    text, ann = load("fox_crow.txt"), load("fox_crow.ann")

    def markup(config):
        result = run_pipeline(text, ann, config)
        return render_markup(result.doc, result.script)

    assert markup(nopov) == markup(Config(pov_tracking=False).load_lexica()) != markup(cfg)
    # a read-only mapping cannot be copied deeply
    with pytest.raises(TypeError):
        copy.deepcopy(cfg)


@pytest.mark.parametrize("value,expected", [
    ("1", True), ("TRUE", True), ("yes", True), ("On", True),
    ("0", False), ("false", False), ("No", False), ("off", False),
])
def test_config_file_booleans(tmp_path, value, expected):
    path = tmp_path / "c.cfg"
    path.write_text(f"pov_tracking = {value}\nemit_mode = tobi\ntitle_mode = off\n")
    cfg = parse_config_file(path)
    assert (cfg.pov_tracking, cfg.emit_mode, cfg.title_mode) == (expected, "tobi", "off")


@pytest.mark.parametrize("key", ["min_len", "max_len", "max_subj"])
def test_negative_count_is_rejected(key):
    with pytest.raises(ValueError, match=f"^{key} must not be negative, not -1$"):
        Config(**{key: -1})
    assert getattr(Config(**{key: 0, "min_len": 0}), key) == 0


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
