"""Breath-group segmentation and junctions."""

import random

import pytest

from prosomark.annotations import AnnotationSet, ClauseFeatures, shallow_analyze
from prosomark.config import Config
from prosomark.docindex import DocIndex
from prosomark.ingest import split_document, tokenize
from prosomark import phrasing
from prosomark.phrasing import END_STOPPED, BreathGroup, segment
from prosomark.pipeline import run_pipeline
from conftest import load


def group_texts(sentence, groups):
    out = []
    for g in groups:
        out.append(" ".join(sentence.tokens[i].normalized for i in g.positions()
                            if sentence.tokens[i].kind == "word"))
    return out


def test_fable_decomposition_matches_golden(fable_result):
    assert fable_result.groups_text() == load("belling_cat.groups.golden")


def test_long_first_sentence_groups(fable_result):
    sent = fable_result.doc.sentences[1]
    assert group_texts(sent, fable_result.groups[1]) == [
        "long_ago",
        "the mice had a general council",
        "to consider what measures they could take to outwit their common enemy",
        "the cat",
    ]


def test_single_group_sentence(config):
    text = "Mice ran."
    doc = split_document(tokenize(text, config.multiwords), "off")
    groups = segment(doc.sentences[0], DocIndex(doc, shallow_analyze(doc)), config)
    assert len(groups) == 1


@pytest.mark.parametrize("text,spans,texts", [
    ("Some said this and some said that.", None,
     ["some said this", "and some said that"]),
    # the clause opens on the word after the coordinator
    ("They ran and the cat sat there.", {1: (0, 1), 2: (3, 7)},
     ["they ran", "and the cat sat there"]),
], ids=["shallow", "clause_after_the_coordinator"])
def test_split_before_clause_coordination(config, text, spans, texts):
    doc = split_document(tokenize(text, config.multiwords), "off")
    ann = (shallow_analyze(doc) if spans is None else
           AnnotationSet([ClauseFeatures(n) for n in spans], clause_spans=spans))
    groups = segment(doc.sentences[0], DocIndex(doc, ann), config)
    assert group_texts(doc.sentences[0], groups) == texts
    assert groups[1].trigger == "coordination"


@pytest.mark.parametrize("key,noun,texts", [
    ("corpse", "corpse", ["they saw the corpse", "and the cat there"]),
    ("dead body", "dead body", ["they saw the dead_body", "and the cat there"]),
    ("corpse", "dog", ["they saw the dog and the cat there"]),
], ids=["corpse-corpse", "dead body-dead body", "not_an_affect_word"])
def test_coordination_after_an_affect_word(tmp_path, key, noun, texts):
    # one clause over the whole sentence, so only an affect word before
    # "and" opens a group; "dead body" is a shipped multiword, one token
    affect = tmp_path / "affect.tsv"
    affect.write_text(f"{key}\tsad\n", encoding="utf-8")
    text = f"They saw the {noun} and the cat there."
    doc = split_document(tokenize(text, Config().load_lexica().multiwords), "off")
    ann = AnnotationSet([ClauseFeatures(1)], clause_spans={1: (0, 8)})
    sent = doc.sentences[0]
    groups = segment(sent, DocIndex(doc, ann), Config(affect_path=affect).load_lexica())
    assert group_texts(sent, groups) == texts
    assert all(g.trigger == "coordination" for g in groups[1:])


@pytest.mark.parametrize("text,index,min_len,texts", [
    ('"What a noble bird I see above me?"', 0, 2, ["what a noble bird i see", "above me"]),
    # the middle sentence holds no quote mark but is direct speech
    ('He said: "Look. What a noble bird I see above me! Yes."', 2, 2,
     ["what a noble bird i see", "above me"]),
    # only a question or an exclamation
    ('"The bird sat above me."', 0, 2, ["the bird sat above me"]),
    # of four words or more
    ('"Birds above me!"', 0, 1, ["birds above me"]),
    # whose adjunct is two or three words long
    ('"Look at the bird under the old tree!"', 0, 2, ["look at the bird under the old tree"]),
    # opens at its last locative preposition only
    ('"It hovered over above me!"', 0, 1, ["it hovered over", "above me"]),
], ids=["question", "continuation", "statement", "three_words", "long_adjunct",
        "two_prepositions"])
def test_final_locative_adjunct_of_a_quoted_sentence(text, index, min_len, texts):
    res = run_pipeline(text, None, Config(min_len=min_len).load_lexica())
    assert group_texts(res.doc.sentences[index], res.groups[index]) == texts


QUOTED = 'He said: "The cat ran. Look at the bird under the tree!" Then he left.'


@pytest.mark.parametrize("text,sidecar", [
    ("belling_cat.txt", "belling_cat.ann"), ("belling_cat.txt", None),
    ("fox_crow.txt", "fox_crow.ann"), ("fox_crow.txt", None), (QUOTED, None),
], ids=["fable", "fable_shallow", "fox", "fox_shallow", "quoted"])
def test_segment_with_the_compile_index_gives_its_groups(config, text, sidecar):
    # QUOTED's second sentence is direct speech only through the quotation
    # opened in the sentence before it, so an index over that sentence alone
    # misses its final locative adjunct
    text = load(text) if text.endswith(".txt") else text
    res = run_pipeline(text, load(sidecar) if sidecar else None, config)
    ix = DocIndex(res.doc, res.ann)
    assert {s.index: segment(s, ix, config) for s in res.doc.sentences} == res.groups


def test_stray_quote_mark_is_not_direct_speech(config):
    # the mark opens no word, so the index ignores it and nothing is quoted
    res = run_pipeline('" What a bird I see above me!', None, config)
    assert res.diagnostics == ["unbalanced quotation mark ignored ('\"' in sentence 0)"]
    assert group_texts(res.doc.sentences[0], res.groups[0]) == ["what a bird i", "see above me"]


@pytest.mark.parametrize("text,min_len,texts", [
    ("Very slowly the mice crept away.", 2, ["very slowly", "the mice crept away"]),
    # "at last" is one token of two source words: the run reaches min_len
    ("Then at last we ran far away.", 3, ["then at_last", "we ran far away"]),
    # the run "now then" goes on past the comma and stays short of min_len,
    # so only the comma cuts
    ("Now, then the cat ran away.", 3, ["now", "then the cat ran away"]),
], ids=["very_slowly", "run_of_source_words", "short_run"])
def test_sentence_initial_adverbial_phrase_split(text, min_len, texts):
    cfg = Config(min_len=min_len).load_lexica()
    doc = split_document(tokenize(text, cfg.multiwords), "off")
    groups = segment(doc.sentences[0], DocIndex(doc, shallow_analyze(doc)), cfg)
    assert group_texts(doc.sentences[0], groups) == texts


def test_long_subject_split_before_verb(config):
    text = "The very old grey mouse from the mill said that."
    doc = split_document(tokenize(text, config.multiwords), "off")
    groups = segment(doc.sentences[0], DocIndex(doc, shallow_analyze(doc)), config)
    texts = group_texts(doc.sentences[0], groups)
    assert any(t.startswith("said") for t in texts[1:])


def test_max_len_resplit(config):
    words = "the cat saw that the dog saw that the bird saw that the mouse ran away now".split()
    text = " ".join(words) + "."
    doc = split_document(tokenize(text, config.multiwords), "off")
    groups = segment(doc.sentences[0], DocIndex(doc, shallow_analyze(doc)), config)
    for g in groups:
        n = sum(doc.sentences[0].tokens[i].source_words for i in g.positions()
                if doc.sentences[0].tokens[i].kind == "word")
        assert n <= config.max_len


def test_max_len_resplit_of_a_very_long_sentence(config):
    # one re-split per repeat: a recursion per split ran out of stack
    text = "the cat saw this " * 1000 + "dog."
    doc = split_document(tokenize(text, config.multiwords), "off")
    sent = doc.sentences[0]
    groups = segment(sent, DocIndex(doc, shallow_analyze(doc)), config)
    assert [w for g in groups for w in g.words] == \
        [i for i, t in enumerate(sent.tokens) if t.kind == "word"]
    assert len(groups) == 999
    assert [g.trigger for g in groups[:2]] == ["start", "complement"]
    assert [len(g.words) for g in groups[:2]] == [3, 4]
    assert all(len(g.words) <= config.max_len for g in groups)


def test_each_group_is_built_once(config, monkeypatch):
    # the short_commas shape of tools/corpus_digest.py: every fragment is
    # one word short of min_len, so all of them merge into one group.  A
    # group that is built and then merged copies its words again, in C,
    # where the counter of tools/cost_count.py cannot see it.
    text = "the, " * 400 + "ran."
    doc = split_document(tokenize(text, config.multiwords), "off")
    sent = doc.sentences[0]
    ix = DocIndex(doc, shallow_analyze(doc))
    built = []

    def recording(*args, **kwargs):
        group = BreathGroup(*args, **kwargs)
        built.append(len(group.words))
        return group

    monkeypatch.setattr(phrasing, "BreathGroup", recording)
    groups = segment(sent, ix, config)
    assert [w for g in groups for w in g.words] == \
        [i for i, w in enumerate(sent.words) if w is not None]
    assert sum(built) == 401


def test_lowering_max_len_never_merges(config, fable_result):
    tighter = Config().load_lexica()
    tighter.max_len = 6
    doc = fable_result.doc
    ix = DocIndex(doc, fable_result.ann)
    for sent in doc.sentences:
        if sent.is_title:
            continue
        wide = segment(sent, ix, config)
        narrow = segment(sent, ix, tighter)
        assert len(narrow) >= len(wide)
        wide_bounds = {g.token_span[0] for g in wide}
        narrow_bounds = {g.token_span[0] for g in narrow}
        assert wide_bounds <= narrow_bounds


def test_partition_property_fixtures(fable_result, fox_result):
    for res in (fable_result, fox_result):
        for sent in res.doc.sentences:
            if sent.is_title:
                continue
            words = [i for i, t in enumerate(sent.tokens) if t.kind == "word"]
            covered = []
            for g in res.groups[sent.index]:
                covered.extend(i for i in g.positions()
                               if sent.tokens[i].kind == "word")
            assert covered == words


def test_partition_property_synthetic(config):
    rng = random.Random(4242)
    vocab = ("the cat sat and the dog ran while a bird sang , so nobody "
             "spoke to the small grey mouse because it was very quiet").split()
    cfg = Config().load_lexica()
    cfg.title_mode = "off"
    for _ in range(150):
        n = rng.randint(1, 16)
        text = " ".join(rng.choice(vocab) for _ in range(n)) + "."
        doc = split_document(tokenize(text, cfg.multiwords), "off")
        ix = DocIndex(doc, shallow_analyze(doc))
        for sent in doc.sentences:
            groups = segment(sent, ix, cfg)
            words = [i for i, t in enumerate(sent.tokens) if t.kind == "word"]
            covered = []
            for g in groups:
                covered.extend(i for i in g.positions()
                               if sent.tokens[i].kind == "word")
            assert covered == words, text


def test_last_group_always_end_stopped(fable_result, fox_result):
    for res in (fable_result, fox_result):
        for sent in res.doc.sentences:
            groups = res.groups[sent.index]
            if groups:
                assert groups[-1].junction == END_STOPPED


def _random_texts(rng, count):
    """Criterion 9's random sentences, then texts with marks anywhere:
    straight and curly quotes, colons, no terminal, paragraph breaks."""
    vocab = ("the a cat dog mouse bird old small said saw ran came and but "
             "or while when if because nobody all some every to of in her "
             "his very now then sly impossible one council bell").split()
    for _ in range(count):
        n = rng.randint(1, 14)
        body = []
        for i in range(n):
            body.append(rng.choice(vocab))
            if i < n - 1 and rng.random() < 0.12:
                body.append(",")
        text = " ".join(body).replace(" ,", ",") + rng.choice([".", "?", "!"])
        yield '"' + text + '"' if rng.random() < 0.2 else text
    marks = (",", ".", "?", "!", ":", ";", '"', "\u201c", "\u201d", "\n\n")
    for _ in range(count):
        yield " ".join(rng.choice(vocab) if rng.random() < 0.7 else rng.choice(marks)
                       for _ in range(rng.randint(1, 40)))


def test_groups_hold_words_and_last_group_end_stopped_random(config):
    # the planner relies on both: it takes each group's last word unguarded,
    # and closes a sentence only through an end-stopped group
    for text in _random_texts(random.Random(31337), 500):
        res = run_pipeline(text, None, config)
        for sent in res.doc.sentences:
            groups = res.groups[sent.index]
            for g in groups:
                assert any(sent.tokens[i].kind == "word" for i in g.positions()), text
            if groups:
                assert groups[-1].junction == END_STOPPED, text


def test_junction_examples(fable_result):
    doc = fable_result.doc
    sent = doc.sentences[1]
    groups = fable_result.groups[1]
    by_text = {t: g for t, g in zip(group_texts(sent, groups), groups)}
    assert by_text["the cat"].junction == END_STOPPED          # at punctuation
    assert by_text["the mice had a general council"].junction == "enjambed"
    sent2 = doc.sentences[2]
    groups2 = fable_result.groups[2]
    by_text2 = {t: g for t, g in zip(group_texts(sent2, groups2), groups2)}
    assert by_text2["and said he had a proposal"].junction == "enjambed"
