"""Command-line behavior: flags, exit codes, golden checking."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from prosomark.cli import golden_check, run
from conftest import FIXTURES


def invoke(*args):
    return run(list(args))


def test_help_flag():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from prosomark.cli import run; import sys; sys.exit(run(['--help']))"],
        capture_output=True, text=True)
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


def test_golden_check_reports():
    assert golden_check("same\n", "same\n") == ""
    report = golden_check("a value 2 here\n", "a value 3 here\n")
    assert "line 1" in report and "'3'" in report and "'2'" in report
    assert golden_check("x \n", "x\n") != ""  # byte-exact, whitespace counts


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


@pytest.mark.parametrize("which", ["input", "sidecar"])
def test_non_utf8_file_is_usage_error(tmp_path, capsys, which):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"Caf\xe9 \xff\xfe noir.\n")
    args = [str(bad)] if which == "input" else \
        [str(_three_tokens(tmp_path)), "--sidecar", str(bad)]
    assert invoke(*args, "--out", str(tmp_path / "o.txt")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"prosomark: cannot read {which}:") and err.count("\n") == 1


def test_python_m_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "prosomark.cli", str(_three_tokens(tmp_path)),
         "--emit", "groups"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "cats run β\n"


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # each walkthrough runs against this checkout's sources
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
