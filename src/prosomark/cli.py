"""Command-line front end.

Wires the whole pipeline: read text (plus sidecar annotations when given,
shallow analysis otherwise), write the requested output, and optionally
compare it against a golden file.  Exit codes: 0 success, 1 usage error,
2 input parse/integrity error, 3 golden-check mismatch.  The input, sidecar,
config and lexicon files are read as UTF-8 with an optional byte-order
mark; a golden file is compared byte for byte, so a mark there counts.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from .annotations import IntegrityError, SidecarError
from .config import EMIT_MODES, TITLE_MODES, Config, parse_config_file
from .emit import render_markup, render_tobi
from .lexica import LINE_END, read_text
from .pipeline import run_pipeline

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prosomark",
        description="Compile plain text into expressive speech-command markup "
                    "and symbolic prosodic annotation.")
    parser.add_argument("input", help="input text file")
    parser.add_argument("--sidecar", metavar="PATH",
                        help="clause-level annotation sidecar")
    parser.add_argument("--emit", choices=EMIT_MODES,
                        default=None, help="output kind (default: markup)")
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--check", metavar="PATH",
                        help="compare output against a golden file")
    parser.add_argument("--title", choices=TITLE_MODES, default=None,
                        help="title detection mode")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="output file (default: stdout)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so every call may share one
    return build_parser()


def golden_check(produced: str, golden: str) -> str:
    """Byte comparison; on mismatch, a positional report with a token diff.
    Lines end at ``LINE_END``, as in every file the package reads."""
    if produced == golden:
        return ""
    p_lines, g_lines = _ended_lines(produced), _ended_lines(golden)
    for ln, (p_line, g_line) in enumerate(zip(p_lines, g_lines), start=1):
        if p_line == g_line:
            continue
        (p, p_end), (g, g_end) = p_line, g_line
        if p == g:
            return (f"mismatch at line {ln}: line ends differ\n"
                    f"expected: {g_end!r}\nactual:   {p_end!r}")
        col = next((i for i, (a, b) in enumerate(zip(p, g), start=1) if a != b),
                   min(len(p), len(g)) + 1)
        # without a differing word, the differing character ('' past the end)
        tok = next(((a, b) for a, b in zip(p.split(), g.split()) if a != b),
                   (p[col - 1:col], g[col - 1:col]))
        return (f"mismatch at line {ln}, column {col}\n"
                f"expected: {tok[1]!r}\n"
                f"actual:   {tok[0]!r}\n"
                f"expected line: {g}\n"
                f"actual line:   {p}")
    return f"mismatch: produced {len(p_lines)} lines, golden has {len(g_lines)}"


def _ended_lines(text: str) -> list[tuple[str, str]]:
    """``(line, end)`` of each line of ``text``; a last line without an end
    has end ``''`` and counts only when it is not empty."""
    parts = LINE_END.split(text) + [""]
    return [(line, end) for line, end in zip(parts[::2], parts[1::2]) if line or end]


def _write_output(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    # never leave a partial file behind: write to a sibling then rename;
    # a symlink is followed, so its target takes the output, as with `>`
    out_path = os.path.realpath(out_path)
    directory = os.path.dirname(out_path)
    fd, tmp = _new_sibling(directory)
    try:
        with open(fd, "w", encoding="utf-8") as fh:     # closes fd on any failure
            try:
                # a rewritten output keeps its permission bits, as with `>`
                os.fchmod(fd, stat.S_IMODE(os.stat(out_path).st_mode))
            except FileNotFoundError:
                pass
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _new_sibling(directory: str) -> tuple[int, str]:
    """A new file of a unique name in ``directory``, open for writing, and
    its path.  It gets mode 0o666 less the umask, as a file that a shell
    redirection creates."""
    while True:
        path = os.path.join(directory, f".prosomark-{os.urandom(8).hex()}")
        try:
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), path
        except FileExistsError:
            continue


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code or 0
        return EXIT_OK if code == 0 else EXIT_USAGE

    try:
        cfg = parse_config_file(args.config) if args.config else Config()
    except (OSError, ValueError) as exc:
        print(f"prosomark: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.emit:
        cfg.emit_mode = args.emit
    if args.title:
        cfg.title_mode = args.title

    try:
        cfg.load_lexica()
    except (OSError, ValueError) as exc:
        print(f"prosomark: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        text = read_text(args.input)
    except (OSError, ValueError) as exc:
        print(f"prosomark: cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        sidecar_text = read_text(args.sidecar) if args.sidecar else None
    except (OSError, ValueError) as exc:
        print(f"prosomark: cannot read sidecar: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        result = run_pipeline(text, sidecar_text, cfg)
    except (SidecarError, IntegrityError) as exc:
        print(f"prosomark: {exc}", file=sys.stderr)
        return EXIT_INPUT

    for d in result.diagnostics:
        print(f"prosomark: note: {d}", file=sys.stderr)

    if cfg.emit_mode == "markup":
        output = render_markup(result.doc, result.script)
    elif cfg.emit_mode == "tobi":
        output = render_tobi(result.doc, result.script)
    elif cfg.emit_mode == "both":
        output = (render_markup(result.doc, result.script) + "\n"
                  + render_tobi(result.doc, result.script))
    else:
        output = result.groups_text()

    try:
        _write_output(output, args.out)
    except OSError as exc:
        print(f"prosomark: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.check:
        try:
            golden = Path(args.check).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"prosomark: cannot read golden file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        report = golden_check(output, golden)
        if report:
            print(report, file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
