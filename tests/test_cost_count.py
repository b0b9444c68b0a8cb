"""The cost counter of ``tools/cost_count.py``, run on a module of its own,
and the counts it wrote to ``BENCH_cost.json``."""

import importlib.util
import json
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''\
def helper(x):
    return x + 1


def stage(n):
    total = 0
    for i in range(n):
        total = helper(total)
    return total


def failing():
    raise ValueError("out")


def words(n):
    yield from range(n)
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counter_counts_lines_and_calls_per_stage(tmp_path):
    tool = _load("cost_count", ROOT / "tools" / "cost_count.py")
    path = tmp_path / "tiny.py"
    path.write_text(MODULE)
    tiny = _load("tiny", path)

    def run():
        tiny.stage(3)
        try:
            tiny.failing()
        except ValueError:
            pass
        list(tiny.words(2))
        tiny.helper(0)

    stages = {tiny.stage.__code__: "loop", tiny.failing.__code__: "fail"}
    counts = tool.count(run, stages, root=tmp_path)
    # the instructions of Python 3.11: stage: 2 for the assignment, 5 for
    # the loop's iterator, 8 per pass, 1 for the loop's end and 2 for the
    # return; helper: called 3 times from the stage, 4 instructions each
    assert counts["loop"] == [2 + 5 + 3 * 8 + 1 + 2 + 3 * 4, 1 + 3]
    assert counts["fail"] == [5, 1]
    # the generator: 8, 3 and 5 instructions in its 3 resumptions, 1 call
    # each; the helper called after the exception left its stage
    assert counts["other"] == [8 + 3 + 5 + 4, 3 + 1]
    report = tool.report(counts, tokens=4)
    assert report["total"] == {"ops": 71, "calls": 9,
                               "ops_per_token": 17.75, "calls_per_token": 2.25}
    assert list(report["stages"]) == ["fail", "loop", "other"]


LAYOUTS = '''\
def one_line(xs):
    return [x * 2 for x in xs if x % 3]


def three_lines(xs):
    return [x * 2
            for x in xs
            if x % 3]
'''


def test_counter_counts_the_same_work_alike_on_one_line_or_three(tmp_path):
    # a line event fires each time evaluation moves to another line, so
    # the three-line comprehension would send more of them per item
    tool = _load("cost_count", ROOT / "tools" / "cost_count.py")
    path = tmp_path / "layouts.py"
    path.write_text(LAYOUTS)
    layouts = _load("layouts", path)
    items = list(range(30))
    stages = {layouts.one_line.__code__: "one", layouts.three_lines.__code__: "three"}
    counts = tool.count(lambda: (layouts.one_line(items), layouts.three_lines(items)),
                        stages, root=tmp_path)
    assert counts["one"] == counts["three"]
    assert counts["one"][0] > len(items)


def test_bench_cost_file_matches_a_recount():
    # the 1k stories and the cli_batch slice; the 16k stories take seconds
    tool = _load("cost_count", ROOT / "tools" / "cost_count.py")
    saved = json.loads(tool.BENCH_FILE.read_text(encoding="utf-8"))
    here = platform.python_version()
    assert saved["python"].split(".")[:2] == here.split(".")[:2], (
        f"{tool.BENCH_FILE.name} was counted on Python {saved['python']} and this is "
        f"Python {here}, whose compiler emits other instructions; recount it here with "
        "tools/cost_count.py --write before comparing")
    recount = tool.measure(saved["seed"], sizes=[("1k", 1000)])
    assert recount == {name: saved["workloads"][name] for name in recount}, (
        "the counts moved: refresh the file with tools/cost_count.py --write")


def test_every_story_instruction_lies_in_a_stage():
    # a compile's work outside every stage of ``stages()`` counts to
    # "other": a token or a sentence patched after it is built would
    # show there, as the phonetic loop after the split once did (8.5-9.0
    # instructions per token); what is left is the glue that calls the stages
    saved = json.loads((ROOT / "BENCH_cost.json").read_text(encoding="utf-8"))
    stories = {name: w for name, w in saved["workloads"].items()
               if name.startswith("story_")}
    assert len(stories) == 4
    assert {name: w["stages"]["other"]["ops_per_token"] for name, w in stories.items()
            if w["stages"]["other"]["ops_per_token"] >= 2.0} == {}
