"""The line census of ``tools/line_census.py``, run on a module of its own."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''\
def covered(x):
    """A docstring is no statement."""
    if x:
        return 1
    return 2


def allowed():
    return 3
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_lists_the_statements_that_never_ran(tmp_path):
    tool = _load("line_census", ROOT / "tools" / "line_census.py")
    path = tmp_path / "tiny.py"
    path.write_text(MODULE)
    tiny = _load("tiny", path)
    with tool.Tracer(tmp_path) as tracer:
        assert tiny.covered(True) == 1
    allowlist = {("tiny.py", "allowed", None): "a whole function",
                 ("tiny.py", "covered", "return 3"): "matches nothing"}
    report, stale = tool.unrun([path], tracer.hits, allowlist)
    assert report == [f"{path}:5: covered: return 2"]
    assert stale == ["allowlist entry matches no unrun statement: "
                     "('tiny.py', 'covered', 'return 3')"]
    assert all(reason for reason in tool.ALLOWLIST.values())
