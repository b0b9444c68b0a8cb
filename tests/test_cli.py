"""Command-line behavior: flags, exit codes, golden checking."""

import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from prosomark.cli import golden_check, run
from conftest import FIXTURES


#: the environment of a child Python that imports this checkout's sources
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])))


def invoke(*args):
    return run(list(args))


def test_help_flag():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from prosomark.cli import run; import sys; sys.exit(run(['--help']))"],
        capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0
    assert "prosomark" in proc.stdout


def test_no_arguments_is_usage_error():
    assert invoke() == 1


def test_markup_golden_via_cli(tmp_path):
    out = tmp_path / "markup.txt"
    code = invoke(str(FIXTURES / "belling_cat.txt"),
                  "--sidecar", str(FIXTURES / "belling_cat.ann"),
                  "--emit", "markup",
                  "--out", str(out),
                  "--check", str(FIXTURES / "belling_cat.markup.golden"))
    assert code == 0
    assert out.read_text() == (FIXTURES / "belling_cat.markup.golden").read_text()


def test_groups_golden_via_cli(tmp_path):
    out = tmp_path / "groups.txt"
    code = invoke(str(FIXTURES / "belling_cat.txt"),
                  "--sidecar", str(FIXTURES / "belling_cat.ann"),
                  "--emit", "groups",
                  "--out", str(out),
                  "--check", str(FIXTURES / "belling_cat.groups.golden"))
    assert code == 0


def test_check_mismatch_exits_three(tmp_path, capsys):
    golden = tmp_path / "wrong.golden"
    golden.write_text("this is not the output\n")
    code = invoke(str(FIXTURES / "belling_cat.txt"),
                  "--sidecar", str(FIXTURES / "belling_cat.ann"),
                  "--emit", "groups",
                  "--out", str(tmp_path / "o.txt"),
                  "--check", str(golden))
    assert code == 3
    assert "mismatch" in capsys.readouterr().err


def test_check_compares_the_golden_line_ends(tmp_path, capsys):
    # a golden whose lines end in CRLF holds other bytes than the output
    lf = FIXTURES / "belling_cat.markup.golden"
    crlf = tmp_path / "crlf.golden"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    args = [str(FIXTURES / "belling_cat.txt"), "--sidecar", str(FIXTURES / "belling_cat.ann"),
            "--out", str(tmp_path / "o.txt"), "--check"]
    assert invoke(*args, str(lf)) == 0
    notes = capsys.readouterr().err
    assert invoke(*args, str(crlf)) == 3
    assert capsys.readouterr().err == \
        notes + "mismatch at line 1: line ends differ\nexpected: '\\r\\n'\nactual:   '\\n'\n"


def test_missing_input_is_usage_error(tmp_path):
    assert invoke(str(tmp_path / "nope.txt")) == 1


def test_bad_sidecar_is_input_error(tmp_path):
    bad = tmp_path / "bad.ann"
    bad.write_text("CLAUSE\t1\tbroken\n")
    code = invoke(str(FIXTURES / "belling_cat.txt"), "--sidecar", str(bad),
                  "--out", str(tmp_path / "o.txt"))
    assert code == 2


def test_config_file_overrides(tmp_path):
    out = tmp_path / "tobi.txt"
    code = invoke(str(FIXTURES / "fox_crow.txt"),
                  "--sidecar", str(FIXTURES / "fox_crow.ann"),
                  "--config", str(FIXTURES / "fox_nopov.cfg"),
                  "--emit", "tobi",
                  "--out", str(out),
                  "--check", str(FIXTURES / "fox_crow_nopov.tobi.golden"))
    assert code == 0


def test_emit_both(tmp_path):
    out = tmp_path / "both.txt"
    code = invoke(str(FIXTURES / "fox_crow.txt"),
                  "--sidecar", str(FIXTURES / "fox_crow.ann"),
                  "--emit", "both", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "[[pbas" in text and "BI-22" in text


def test_outputs_identical_across_runs(tmp_path):
    outs = []
    for i in range(3):
        out = tmp_path / f"run{i}.txt"
        assert invoke(str(FIXTURES / "belling_cat.txt"),
                      "--sidecar", str(FIXTURES / "belling_cat.ann"),
                      "--emit", "both", "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_missing_lexicon_file_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("multiword_path = /nonexistent/multiwords.txt\n")
    code = invoke(str(FIXTURES / "belling_cat.txt"), "--config", str(cfg),
                  "--out", str(tmp_path / "o.txt"))
    assert code == 1


_NEL_MARKUP = ("[[pbas 44.000; rate 140; volm +0.3]]They found the dead\x85body "
               "[[pbas 38.000; rate 130; volm +0.3]]there[[slnc 200]],[[rset 0]] .\n\n"
               "[[pbas 54.000; rate 170; volm +0.3]]It ran .\n")


def test_golden_check_reports():
    assert golden_check("same\n", "same\n") == ""
    report = golden_check("a value 2 here\n", "a value 3 here\n")
    assert "line 1" in report and "'3'" in report and "'2'" in report
    assert "line 2" in golden_check("same\nx 2\n", "same\nx 3\n")
    assert golden_check("a\nb\n", "a\n") == "mismatch: produced 2 lines, golden has 1"
    # (produced, golden, report): byte-exact, so whitespace and line ends
    # count; a differing line end is named with both ends, and a line
    # whose words all match shows the differing character
    rows = [("a\n", "a", "mismatch at line 1: line ends differ\nexpected: ''\nactual:   '\\n'"),
            ("a b\n", "a b\r\n",
             "mismatch at line 1: line ends differ\nexpected: '\\r\\n'\nactual:   '\\n'"),
            ("x \n", "x\n", "mismatch at line 1, column 2\nexpected: ''\nactual:   ' '\n"
                            "expected line: x\nactual line:   x "),
            # the markup of "They found the dead\x85body there.\n\nIt ran.": the
            # multiword token keeps its NEL, which ends no line
            (_NEL_MARKUP, _NEL_MARKUP.replace("It ran", "It sat"),
             "mismatch at line 3, column 40\nexpected: 'sat'\nactual:   'ran'\n"
             "expected line: [[pbas 54.000; rate 170; volm +0.3]]It sat .\n"
             "actual line:   [[pbas 54.000; rate 170; volm +0.3]]It ran .")]
    for produced, golden, report in rows:
        assert golden_check(produced, golden) == report, (produced, golden)


_CLAUSE = ("CLAUSE\t{no}\tmain/prop\texternal\tfactive\tnull\tbackground"
           "\tactivity\trun\tpres\tnarration\tobjective\t{span}\n")


def _three_tokens(tmp_path):
    text = tmp_path / "in.txt"
    text.write_text("Cats run.\n")
    return text


@pytest.mark.parametrize("span", ["900-1000", "2-1", "0-3", "0-2000000000"])
def test_clause_span_outside_text_is_input_error(tmp_path, capsys, span):
    side = tmp_path / "s.ann"
    side.write_text(_CLAUSE.format(no=7, span=span))
    code = invoke(str(_three_tokens(tmp_path)), "--sidecar", str(side),
                  "--out", str(tmp_path / "o.txt"))
    assert code == 2
    err = capsys.readouterr().err
    assert "clause 7" in err and span in err and err.count("\n") == 1


def test_clause_span_inside_text_is_accepted(tmp_path):
    side = tmp_path / "s.ann"
    side.write_text(_CLAUSE.format(no=1, span="0-2"))
    assert invoke(str(_three_tokens(tmp_path)), "--sidecar", str(side),
                  "--out", str(tmp_path / "o.txt")) == 0


def test_non_integer_clause_number_is_input_error(tmp_path, capsys):
    side = tmp_path / "s.ann"
    side.write_text(_CLAUSE.format(no="one", span="0-1"))
    code = invoke(str(_three_tokens(tmp_path)), "--sidecar", str(side),
                  "--out", str(tmp_path / "o.txt"))
    assert code == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["input", "sidecar", "golden file"])
def test_non_utf8_file_is_usage_error(tmp_path, capsys, which):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"Caf\xe9 \xff\xfe noir.\n")
    args = {"input": [str(bad)],
            "sidecar": [str(_three_tokens(tmp_path)), "--sidecar", str(bad)],
            "golden file": [str(_three_tokens(tmp_path)), "--check", str(bad)]}[which]
    assert invoke(*args, "--out", str(tmp_path / "o.txt")) == 1
    err = capsys.readouterr().err
    # the input and the sidecar are read by lexica.read_text, which names the file
    named = "" if which == "golden file" else f" {bad}: not UTF-8:"
    assert err.startswith(f"prosomark: cannot read {which}:{named}") and err.count("\n") == 1


def test_non_utf8_lexicon_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "affect.tsv"
    bad.write_bytes(b"caf\xe9\tsad\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"affect_path = {bad}\n")
    assert invoke(str(_three_tokens(tmp_path)), "--config", str(cfg),
                  "--out", str(tmp_path / "o.txt")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"prosomark: {bad}: not UTF-8: ") and err.count("\n") == 1


def _compile_with_bom(tmp_path, kind: str | None) -> str:
    """The fable with its sidecar, a config and an affect lexicon, compiled
    to markup and ToBI; the file of ``kind`` starts with a UTF-8
    byte-order mark."""
    home = tmp_path / str(kind)
    home.mkdir()

    def write(name, text, file_kind):
        path = home / name
        path.write_text(("\ufeff" if file_kind == kind else "") + text, encoding="utf-8")
        return path

    text = write("in.txt", (FIXTURES / "belling_cat.txt").read_text(encoding="utf-8"), "input")
    side = write("in.ann", (FIXTURES / "belling_cat.ann").read_text(encoding="utf-8"), "sidecar")
    # the lexicon's first line is an entry the fable uses
    affect = write("affect.tsv", "cat\tsad\nsorrow\tsad\n", "lexicon")
    cfg = write("in.cfg", f"pov_tracking = on\naffect_path = {affect}\n", "config")
    out = home / "o.txt"
    assert invoke(str(text), "--sidecar", str(side), "--config", str(cfg),
                  "--emit", "both", "--out", str(out)) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["input", "sidecar", "config", "lexicon"])
def test_byte_order_mark_is_skipped(tmp_path, kind):
    assert _compile_with_bom(tmp_path, kind) == _compile_with_bom(tmp_path, None)


@pytest.mark.parametrize("name,lines", [
    ("affect_path", "sly\tsad\n\nsad\n"),         # tag without its entry
    ("frozen_path", "# frozen\n\ncome on\n"),    # pattern without its role
    ("phonetic_path", "cat\tkat\n\nhue\n"),       # word without its phonetic
    # entries the text cannot spell: two words that are not a multiword,
    # or a punctuation token
    ("quantifier_path", "all\n\na few\n"),
    ("comm_verb_path", "said\n\ncried out\n"),
    ("phonetic_path", "hue\thUW\n\nnew york\tnUWyOrk\n"),
    ("affect_path", "sly\tsad\n\noh no!\tsad\n"),
])
def test_single_field_lexicon_line_is_usage_error(tmp_path, capsys, name, lines):
    bad = tmp_path / "lexicon.tsv"
    bad.write_text(lines)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{name} = {bad}\n")
    assert invoke(str(_three_tokens(tmp_path)), "--config", str(cfg),
                  "--out", str(tmp_path / "o.txt")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"prosomark: {bad}:") and ":3: " in err and err.count("\n") == 1


@pytest.mark.parametrize("line,message", [
    ("emit_mode = bogus", "emit_mode must be one of markup/tobi/both/groups, not 'bogus'"),
    ("title_mode = Force", "title_mode must be one of auto/force/off, not 'Force'"),
    ("pov_tracking = maybe", "pov_tracking must be one of "
                             "1/true/yes/on/0/false/no/off, not 'maybe'"),
    ("min_len = two", "min_len must be an integer, not 'two'"),
    ("max_subj = -1", "max_subj must not be negative, not -1"),
    ("emit_mode", "expected key = value"),
    ("colour = red", "unknown key 'colour'"),
    # a form feed ends no line: the text after it is the value's
    ("min_len = 3\fbogus = 1", "min_len must be an integer, not '3\\x0cbogus = 1'"),
], ids=["emit_mode", "title_mode", "pov_tracking", "min_len", "max_subj",
        "no_value", "unknown_key", "form_feed"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# a config\n{line}\n")
    out = tmp_path / "o.txt"
    assert invoke(str(_three_tokens(tmp_path)), "--config", str(cfg),
                  "--out", str(out)) == 1
    assert capsys.readouterr().err == f"prosomark: config error: {cfg}:2: {message}\n"
    assert not out.exists()


def test_config_file_not_utf8_is_usage_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"min_len = 3\n\xff\n")
    out = tmp_path / "o.txt"
    assert invoke(str(_three_tokens(tmp_path)), "--config", str(cfg),
                  "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"prosomark: config error: {cfg}: not UTF-8: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "o.txt"
    assert invoke(str(_three_tokens(tmp_path)), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("prosomark: cannot write output: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_out_naming_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert invoke(str(_three_tokens(tmp_path)), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("prosomark: cannot write output: ") and err.count("\n") == 1
    assert not list(tmp_path.glob(".prosomark-*"))


def test_out_file_mode_follows_the_umask(tmp_path):
    # as for `prosomark in.txt > out`: a new output gets mode 0o666 less
    # the umask, and a rewritten one keeps its mode
    src = str(_three_tokens(tmp_path))
    out = tmp_path / "out.txt"
    old = os.umask(0o027)
    try:
        assert invoke(src, "--out", str(out)) == 0
        assert out.stat().st_mode & 0o777 == 0o640
        os.umask(0o022)
        out.chmod(0o604)
        assert invoke(src, "--out", str(out)) == 0
        assert out.stat().st_mode & 0o777 == 0o604
    finally:
        os.umask(old)
    assert not list(tmp_path.glob(".prosomark-*"))


def test_out_sibling_name_in_use_takes_another(tmp_path, monkeypatch):
    taken = tmp_path / f".prosomark-{bytes(8).hex()}"
    taken.write_text("someone else's\n")
    names = iter([bytes(8), bytes([1] * 8)])
    monkeypatch.setattr(os, "urandom", lambda n: next(names))
    out = tmp_path / "out.txt"
    assert invoke(str(_three_tokens(tmp_path)), "--emit", "groups", "--out", str(out)) == 0
    assert out.read_text() == "cats run β\n"
    assert taken.read_text() == "someone else's\n"
    assert [p.name for p in tmp_path.glob(".prosomark-*")] == [taken.name]


def test_out_writes_through_a_symlink(tmp_path):
    # as for `> link`: the link stays and its target takes the output
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target.name)
    assert invoke(str(_three_tokens(tmp_path)), "--emit", "groups", "--out", str(link)) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == "cats run β\n"
    assert not list(tmp_path.glob(".prosomark-*"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_out_writes_into_a_fifo_in_place(tmp_path):
    # as for `> fifo`: the FIFO stays and its reader takes the output; the
    # read end opens first and without blocking, so neither side blocks
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert invoke(str(_three_tokens(tmp_path)), "--emit", "groups", "--out", str(fifo)) == 0
        assert os.read(reader, 1 << 16) == "cats run β\n".encode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert not list(tmp_path.glob(".prosomark-*"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
def test_failed_out_write_leaves_no_descriptor_open(tmp_path, capsys):
    # an --out that is a self-symlink fails after the sibling file is open;
    # one process may run many commands, so each failure must close it
    loop = tmp_path / "loop"
    loop.symlink_to(loop.name)
    src = str(_three_tokens(tmp_path))
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        assert invoke(src, "--out", str(loop)) == 1
    assert len(os.listdir("/proc/self/fd")) == before
    assert not list(tmp_path.glob(".prosomark-*"))
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 5 and all(line.startswith("prosomark: cannot write output: ")
                                   for line in lines)


def test_output_goes_to_stdout_without_out(tmp_path, capsys):
    assert invoke(str(_three_tokens(tmp_path)), "--emit", "groups") == 0
    assert capsys.readouterr().out == "cats run β\n"


def test_rewritten_lexicon_is_read_again(tmp_path):
    # the lexicon is re-read when its size or mtime changes between calls
    affect = tmp_path / "affect.tsv"
    affect.write_text("dog\tsad\n")
    cfg = tmp_path / "affect.cfg"
    cfg.write_text(f"affect_path = {affect}\n")
    text = tmp_path / "in.txt"
    text.write_text("The old cat sat on the mat.\n")

    def markup():
        out = tmp_path / "o.txt"
        assert invoke(str(text), "--config", str(cfg), "--out", str(out)) == 0
        return out.read_text(encoding="utf-8")

    before = markup()
    stat = affect.stat()
    affect.write_text("cat\tsad\nsorrow\tsad\n")
    os.utime(affect, ns=(stat.st_atime_ns, stat.st_mtime_ns + 5_000_000_000))
    after = markup()
    sad_cat = "[[pbas 36.000; rate 110; volm -0.2]]cat"
    assert sad_cat in after and sad_cat not in before


def test_title_flag_does_not_carry_over(tmp_path):
    text = tmp_path / "in.txt"
    text.write_text("The cat sat.\n\nIt ran.\n")

    def tobi(*flags):
        out = tmp_path / "o.txt"
        assert invoke(str(text), "--emit", "tobi", *flags, "--out", str(out)) == 0
        return out.read_text(encoding="utf-8")

    plain = tobi()
    assert tobi("--title", "force") != plain
    assert tobi() == plain


def test_a_first_sentence_with_a_terminal_is_no_title(tmp_path):
    # the first line ends without one, but the first sentence does not
    text = tmp_path / "in.txt"
    text.write_text("He ran. But she fell --\n")
    out = tmp_path / "o.txt"
    assert invoke(str(text), "--emit", "tobi", "--out", str(out)) == 0
    assert not out.read_text(encoding="utf-8").startswith("H*-L")


def test_threads_can_share_the_parser_and_lexicon_cache(tmp_path):
    # the affect lexicon's copy is new to the cache, so the threads fill it
    affect = tmp_path / "affect.tsv"
    affect.write_bytes((FIXTURES.parent / "affect.tsv").read_bytes())
    cfg = tmp_path / "affect.cfg"
    cfg.write_text(f"affect_path = {affect}\n")
    flag_sets = [("--emit", "markup"), ("--emit", "tobi", "--title", "force"),
                 ("--emit", "groups", "--config", str(cfg)),
                 ("--emit", "both", "--title", "off", "--config", str(cfg)),
                 ("--sidecar", str(FIXTURES / "belling_cat.ann"), "--emit", "tobi")]

    def compile_(k, out):
        assert invoke(str(FIXTURES / "belling_cat.txt"), *flag_sets[k], "--out", str(out)) == 0
        return out.read_text(encoding="utf-8")

    shared = {}
    start = threading.Barrier(len(flag_sets))

    def worker(k):
        start.wait(timeout=60)
        shared[k] = [compile_(k, tmp_path / f"t{k}-{n}.txt") for n in range(3)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(flag_sets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(len(flag_sets)):
        assert shared[k] == [compile_(k, tmp_path / f"solo{k}.txt")] * 3, flag_sets[k]


def test_python_m_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "prosomark.cli", str(_three_tokens(tmp_path)),
         "--emit", "groups"],
        capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0
    assert proc.stdout == "cats run β\n"


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # each walkthrough runs against this checkout's sources
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
