"""Configuration: lexicon loading."""

import copy

from prosomark.config import Config

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
