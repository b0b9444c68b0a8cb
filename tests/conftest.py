import pytest

from prosomark.config import Config
from prosomark.lexica import data_path
from prosomark.pipeline import run_pipeline
from prosomark.prosody import BreakIndex

FIXTURES = data_path("fixtures")


def load(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


#: the contour shapes of the tone inventory; a label may add one of the
#: opaque intensity variants -1 to -4
CONTOUR_SHAPES = frozenset({
    "H*-L", "H*-H", "H*-L%", "H*-H%", "L-L%", "L*-L%", "H-H*", "H-!H*",
    "H-!L*", "H*+L%", "H*+L-", "!L+H*%",
})


def is_contour_label(label: str) -> bool:
    shape = label[:-2] if label[-2:] in ("-1", "-2", "-3", "-4") else label
    return shape in CONTOUR_SHAPES


#: the break indices that fall only after a breath group's last word
GROUP_END_BREAKS = frozenset({BreakIndex.BI3, BreakIndex.BI4, BreakIndex.BI22})


def breaks_off_group_ends(result) -> list[str]:
    """The ``GROUP_END_BREAKS`` events of a compile whose nearest token
    before them is not the last word of a breath group of its sentence."""
    ends = {s.tokens[g.words[-1]].index
            for s in result.doc.sentences for g in result.groups[s.index]}
    off = []
    last = None                 # the index of the nearest token so far
    for item in result.script.items:
        if item.kind == "token":
            last = item.token.index
        elif item.kind == "event" and item.bi in GROUP_END_BREAKS and last not in ends:
            off.append(f"{item.bi.label} after token {last}")
    return off


@pytest.fixture(scope="session")
def config():
    return Config().load_lexica()


@pytest.fixture(scope="session")
def fable_result():
    cfg = Config().load_lexica()
    return run_pipeline(load("belling_cat.txt"), load("belling_cat.ann"), cfg)


@pytest.fixture(scope="session")
def fox_result():
    cfg = Config().load_lexica()
    return run_pipeline(load("fox_crow.txt"), load("fox_crow.ann"), cfg)


@pytest.fixture(scope="session")
def fox_nopov_result():
    cfg = Config().load_lexica()
    cfg.pov_tracking = False
    return run_pipeline(load("fox_crow.txt"), load("fox_crow.ann"), cfg)
