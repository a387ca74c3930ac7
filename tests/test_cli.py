"""The tx-infer command line front end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from jtxinfer.cli import main

from conftest import CYCLE_SRC, FAC_SRC, OLFUN_SRC

SRC = Path(__file__).resolve().parents[1] / "src"
BUILTINS = SRC / "jtxinfer" / "builtins.json"


def write(tmp_path, name, src):
    p = tmp_path / name
    p.write_text(src)
    return p


def test_success_writes_all_outputs(tmp_path):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(p)]) == 0
    assert (tmp_path / "Fac.typed.jtx").exists()
    assert (tmp_path / "Fac.sigs.txt").read_text() == \
        "Fac.getFac : Integer -> Integer\n"
    assert (tmp_path / "Fac.desc.txt").read_text() == \
        "Fac.getFac : (Ljava$lang$Integer;)Ljava$lang$Integer;\n"
    assert (tmp_path / "Fac.funifaces.txt").exists()


def test_emit_subset_only(tmp_path):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(p), "--emit", "sigs,desc"]) == 0
    assert not (tmp_path / "Fac.typed.jtx").exists()
    assert not (tmp_path / "Fac.funifaces.txt").exists()
    assert (tmp_path / "Fac.sigs.txt").exists()
    assert (tmp_path / "Fac.desc.txt").exists()


def test_unknown_emit_target_is_config_error(tmp_path, capsys):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(p), "--emit", "sigs,bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_untypable_exits_1(tmp_path, capsys):
    p = write(tmp_path, "Bad.jtx",
              "class Bad { Boolean m() { var x = 1; return x; } }")
    assert main([str(p)]) == 1
    assert "untypable" in capsys.readouterr().err


def test_syntax_error_exits_2(tmp_path, capsys):
    p = write(tmp_path, "Broken.jtx", "class {")
    assert main([str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "nope.jtx")]) == 2
    assert capsys.readouterr().err


def test_bad_max_solutions_exits_2(tmp_path, capsys):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(p), "--max-solutions", "0"]) == 2
    assert "max-solutions" in capsys.readouterr().err


def test_dump_stage_prints_blocks(tmp_path, capsys):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(p), "--dump-stage", "constraints",
                 "--dump-stage", "solutions"]) == 0
    out = capsys.readouterr().out
    assert "== constraints ==" in out
    assert "== solutions ==" in out
    assert "remaining:" in out and "sigma:" in out


def test_dump_stage_generics(tmp_path, capsys):
    p = write(tmp_path, "Cycle.jtx", CYCLE_SRC)
    assert main([str(p), "--dump-stage", "generics"]) == 0
    out = capsys.readouterr().out
    assert "== generics ==" in out
    assert "extends Object" in out


def test_explicit_table_path(tmp_path):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(p), "--table", str(BUILTINS)]) == 0
    assert (tmp_path / "Fac.sigs.txt").read_text() == \
        "Fac.getFac : Integer -> Integer\n"


def test_table_env_fallback(tmp_path, monkeypatch):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    monkeypatch.setenv("TXINFER_TABLE", str(BUILTINS))
    assert main([str(p)]) == 0
    assert (tmp_path / "Fac.typed.jtx").exists()


def test_multiple_inputs_processed(tmp_path):
    a = write(tmp_path, "Fac.jtx", FAC_SRC)
    b = write(tmp_path, "Cycle.jtx", CYCLE_SRC)
    assert main([str(a), str(b)]) == 0
    assert (tmp_path / "Fac.typed.jtx").exists()
    assert (tmp_path / "Cycle.typed.jtx").exists()


def test_batch_continues_past_a_bad_file(tmp_path, capsys):
    bad = write(tmp_path, "Broken.jtx", "class {")
    good = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(bad), str(good)]) == 2
    for suffix in ("typed.jtx", "sigs.txt", "desc.txt", "funifaces.txt"):
        assert (tmp_path / f"Fac.{suffix}").exists()
    assert "Broken.jtx" in capsys.readouterr().err


def test_batch_exit_code_is_the_worst(tmp_path):
    untypable = write(tmp_path, "Bad.jtx",
                      "class Bad { Boolean m() { var x = 1; return x; } }")
    broken = write(tmp_path, "Broken.jtx", "class {")
    assert main([str(untypable), str(tmp_path / "Fac.jtx")]) == 2
    assert main([str(broken), str(untypable)]) == 2
    assert main([str(untypable), str(untypable)]) == 1


def test_outputs_byte_identical_across_runs(tmp_path):
    p = write(tmp_path, "OLFun.jtx", OLFUN_SRC)
    assert main([str(p)]) == 0
    first = {n: (tmp_path / n).read_bytes()
             for n in ("OLFun.typed.jtx", "OLFun.sigs.txt",
                       "OLFun.desc.txt", "OLFun.funifaces.txt")}
    assert main([str(p)]) == 0
    second = {n: (tmp_path / n).read_bytes() for n in first}
    assert first == second


def test_console_script_entry_point(tmp_path):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    # the child finds the package the way this test run does, installed or not
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "jtxinfer.cli", str(p)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert (tmp_path / "Fac.typed.jtx").exists()
