"""List the statements of ``src/prosomark`` that never run.

Usage, from the root of a checkout (standard library only, plus pytest for
``--pytest``):

    python3 tools/line_census.py            # over the corpus digest
    python3 tools/line_census.py --pytest   # over the digest and the tests

It traces, with ``sys.settrace``, every frame whose code lies under
``src/prosomark`` while it compiles the 2,557 documents of
``tools/corpus_digest.py`` and, with ``--pytest``, while it runs the tests
of ``pyproject.toml``'s ``testpaths`` in this process.  On a two-core Xeon
host the digest takes about 15 s and the tests about 55 s more.  It then prints one ``path:line: function: source`` line for
each statement of a function body that no line event reached, less the
entries of ``ALLOWLIST``, and one line for each allowlist entry that
matched nothing; pytest's report goes to stderr.  The exit status is 1
when it printed anything (2 when the tests failed).

A statement counts as run when any line of its header (the whole statement,
for a simple one) gave a line event.  Docstrings and ``global``/``nonlocal``
declarations compile to no instruction and are not counted.  Code run in a
subprocess is not traced: that is what the allowlist is for.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prosomark"

#: (file, function, statement source or None for the whole function) ->
#: why the statement runs in no traced process
ALLOWLIST: dict[tuple[str, str, str | None], str] = {
    ("cli.py", "main", None):
        "the console entry point; tests/test_cli.py runs it in a subprocess",
}


# Statements ------------------------------------------------------------------

def _header_lines(node: ast.stmt) -> range:
    """The lines of a statement before its first nested statement."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(start, end + 1)


def statements(source: str) -> list[tuple[str, ast.stmt]]:
    """(qualified function name, statement) for every statement of every
    function body in ``source``, nested blocks included."""
    out: list[tuple[str, ast.stmt]] = []

    def visit(body, scope, in_function, function_body=False):
        for i, node in enumerate(body):
            docstring = (function_body and i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if in_function and not docstring \
                    and not isinstance(node, (ast.Global, ast.Nonlocal)):
                out.append((scope, node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{node.name}" if scope else node.name
                is_function = not isinstance(node, ast.ClassDef)
                visit(node.body, name, is_function, is_function)
                continue
            for block in ("body", "orelse", "finalbody"):
                visit(getattr(node, block, ()), scope, in_function)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, scope, in_function)
            for case in getattr(node, "cases", ()):
                visit(case.body, scope, in_function)

    visit(ast.parse(source).body, "", False)
    return out


# Tracing ---------------------------------------------------------------------

class Tracer:
    """Line events of the frames whose file lies under ``root``, kept per
    file.  Used as a context manager; it restores the trace functions it
    replaced, so a traced test may trace too.  A subclass keeps something
    else by overriding ``local``."""

    def __init__(self, root: Path):
        self.prefix = os.path.join(str(root), "")
        self.hits: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}

    def _global(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        return self.local(frame)

    def local(self, frame):
        """The local trace function of a frame under the root, called at
        its ``call`` event."""
        filename = frame.f_code.co_filename
        local = self._local.get(filename)
        if local is None:
            lines = self.hits.setdefault(filename, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local
            self._local[filename] = local
        return local

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def unrun(files: list[Path], hits: dict[str, set[int]], allowlist) -> tuple[list[str], list[str]]:
    """The report lines of the statements of ``files`` that no hit reached
    and no ``allowlist`` entry covers, and those of the unused entries."""
    report = []
    used = set()
    for path in files:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for scope, node in statements(source):
            if ran.intersection(_header_lines(node)):
                continue
            text = lines[node.lineno - 1].strip()
            key = next((k for k in ((path.name, scope, text), (path.name, scope, None))
                        if k in allowlist), None)
            if key is not None:
                used.add(key)
                continue
            try:
                shown = path.relative_to(ROOT)
            except ValueError:
                shown = path
            report.append(f"{shown}:{node.lineno}: {scope}: {text}")
    stale = [f"allowlist entry matches no unrun statement: {k}"
             for k in allowlist if k not in used]
    return report, stale


# Workloads -------------------------------------------------------------------

def run_digest() -> None:
    """Compile and render every document of the corpus digest."""
    sys.path.insert(0, str(ROOT / "tools"))
    import corpus_digest as cd

    cfg = cd.Config().load_lexica()
    fx = cd.wl.Fixtures.load(cd.data_path("fixtures"))
    for _, text, sidecar, config in cd.corpus(fx, cfg):
        cd.digest(cd.run_pipeline(text, sidecar, config))


def run_pytest() -> int:
    """The tests of ``testpaths`` in this process, without hypothesis's
    per-example deadline: tracing slows every example down."""
    import pytest
    from hypothesis import settings

    settings.register_profile("line_census", deadline=None)
    settings.load_profile("line_census")
    os.chdir(ROOT)
    # the test report goes to stderr, so stdout holds the census alone;
    # hypothesis is imported above, before pytest could rewrite its asserts
    with contextlib.redirect_stdout(sys.stderr):
        return pytest.main(["-q", "-p", "no:cacheprovider",
                            "-W", "ignore::pytest.PytestAssertRewriteWarning"])


def main(argv: list[str]) -> int:
    if argv not in ([], ["--pytest"]):
        print("usage: python3 tools/line_census.py [--pytest]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with Tracer(PACKAGE) as tracer:
        run_digest()
        status = run_pytest() if argv else 0
    if status != 0:
        print(f"line_census: pytest exited with {status}; the census is incomplete",
              file=sys.stderr)
    report, stale = unrun(sorted(PACKAGE.glob("*.py")), tracer.hits, ALLOWLIST)
    for line in report + stale:
        print(line)
    return 2 if status != 0 else 1 if report or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
