"""The tx-infer command line front end."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jtxinfer.cli import main

from conftest import (ALL_GOLDEN_SRCS, CAPTURE_SRC, CYCLE_SRC, FAC_SRC,
                      OLFUN_SRC, TWO_CYCLES_SRC)

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")

SRC = Path(__file__).resolve().parents[1] / "src"
BUILTINS = SRC / "jtxinfer" / "builtins.json"


def write(tmp_path, name, src):
    p = tmp_path / name
    p.write_text(src)
    return p


def tx_infer(args, **env):
    """Run the command line front end in a child interpreter."""
    # the child finds the package the way this test run does, installed or not
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "jtxinfer.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


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


def test_step_budget_exits_3_without_saying_untypable(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(UNIFY, "MAX_STEPS", 3)
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(p)]) == 3
    err = capsys.readouterr().err
    assert "Fac.jtx" in err and "steps" in err
    assert "untypable" not in err
    assert not (tmp_path / "Fac.sigs.txt").exists()
    broken = write(tmp_path, "Broken.jtx", "class {")
    assert main([str(p), str(broken)]) == 3


def test_deep_nesting_exits_3(tmp_path, capsys):
    p = write(tmp_path, "Deep.jtx", "class C { m(x) { return "
              + "(" * 400 + "x" + ")" * 400 + "; } }")
    assert main([str(p)]) == 3
    assert "Deep.jtx: resource limit: " in capsys.readouterr().err


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
    proc = tx_infer([str(p)])
    assert proc.returncode == 0
    assert (tmp_path / "Fac.typed.jtx").exists()


def test_outputs_independent_of_hash_seed(tmp_path):
    sources = dict(ALL_GOLDEN_SRCS, Capture=CAPTURE_SRC,
                   TwoCycles=TWO_CYCLES_SRC)
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        out.mkdir()
        files = [str(write(out, f"{n}.jtx", s)) for n, s in sources.items()]
        proc = tx_infer([*files, "--dump-stage", "generics"],
                        PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, {p.name: p.read_bytes()
                                   for p in sorted(out.iterdir())}))
    assert len(runs[0][1]) == 5 * len(sources)
    assert runs[0] == runs[1]
