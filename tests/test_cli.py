"""The tx-infer command line front end."""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from jtxinfer import JtxError, classtable
from jtxinfer.cli import main

from conftest import (ALL_GOLDEN_SRCS, CAPTURE_SRC, CYCLE_SRC, FAC_SRC,
                      OLFUN_SRC, PINNED_SRCS, TWO_CYCLES_SRC)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")

SRC = Path(__file__).resolve().parents[1] / "src"
BUILTINS = SRC / "jtxinfer" / "builtins.json"


def write(tmp_path, name, src):
    p = tmp_path / name
    p.write_text(src)
    return p


def python(args, text=True, **env):
    """Run a child interpreter with `args`; its output is decoded unless
    `text` is false."""
    # the child finds the package the way this test run does, installed or not
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=text,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def tx_infer(args, **env):
    """Run the command line front end in a child interpreter."""
    return python(["-m", "jtxinfer.cli", *args], **env)


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


def test_non_utf8_file_exits_2_and_the_batch_goes_on(tmp_path, capsys):
    bad = tmp_path / "Bad.jtx"
    bad.write_bytes(b'class C { m(x) { return "\xff"; } }')
    ok = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(bad), str(ok)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("tx-infer: Bad.jtx: ") and "utf-8" in line
    assert (tmp_path / "Fac.sigs.txt").exists()


# a descriptor collision raised while emitting (see CHANGES.md FOUND lines)
COLLISION_SRC = (
    "import java.lang.Integer; class C { f0; f1; m0(p0) { var v0 = 1; "
    "v0 = f1; p0 = f0; v0 = p0; var v1 = v0; return f0; } "
    "m1(p0, p1, p2) { f1 = p2; var v0 = 1; v0 = m0(p2); var v1 = v0; } "
    "m2(p0) { f1 = p0; var v0 = f0; v0 = m0(p0); return f1; } }")


def test_error_while_emitting_exits_2_and_writes_nothing(tmp_path):
    p = write(tmp_path, "Coll.jtx", COLLISION_SRC)
    proc = tx_infer([str(p)])
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("tx-infer: Coll.jtx: error: C.m1: descriptor ")
    assert [f.name for f in tmp_path.iterdir()] == ["Coll.jtx"]


@pytest.mark.parametrize("src, erased", [
    ("import java.lang.Integer; class C { m(x) { return x + 1; } "
     "m(y) { return y + 2; } }", "Ljava$lang$Integer;"),
    ("class C { m(x) { return x; } m(x) { return x; } }",
     "Ljava$lang$Object;")])
def test_two_declarations_with_one_descriptor_collide(tmp_path, src, erased):
    """A JVM class holds no method twice, so two declarations whose
    typings share a descriptor are an error, not two equal lines."""
    p = write(tmp_path, "Twice.jtx", src)
    proc = tx_infer([str(p)])
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line == (f"tx-infer: Twice.jtx: error: C.m: descriptor "
                    f"({erased}){erased} is shared by distinct typings")
    assert [f.name for f in tmp_path.iterdir()] == ["Twice.jtx"]


def test_overloads_of_one_name_with_distinct_descriptors_type(tmp_path):
    p = write(tmp_path, "OL.jtx", ALL_GOLDEN_SRCS["OL"])
    assert main([str(p)]) == 0
    lines = (tmp_path / "OL.desc.txt").read_text().splitlines()
    assert len(lines) == len(set(lines)) > 1


@pytest.mark.parametrize("src", [
    # no function type is used: the class would be listed as one
    "class Fun1$$ { f; } class C { m(x) { x.f = 1; return x; } }",
    # a lambda uses Fun1$$: the class would be a duplicate of its entry
    "class Fun1$$ { } class C { m() { return x -> x; } }"])
def test_a_class_named_like_a_function_type_is_refused(tmp_path, capsys,
                                                        src):
    p = write(tmp_path, "Reserved.jtx", src)
    assert main([str(p)]) == 2
    assert capsys.readouterr().err == (
        "tx-infer: Reserved.jtx: error: 1:1: class name 'Fun1$$' is "
        "reserved for function types\n")
    assert [f.name for f in tmp_path.iterdir()] == ["Reserved.jtx"]


@pytest.mark.parametrize("src", ["", "class C { }", "class C { f; }"])
def test_a_unit_without_methods_writes_empty_line_outputs(tmp_path, src):
    p = write(tmp_path, "Empty.jtx", src)
    proc = tx_infer([str(p)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "Empty.sigs.txt").read_bytes() == b""
    assert (tmp_path / "Empty.desc.txt").read_bytes() == b""
    assert (tmp_path / "Empty.funifaces.txt").read_bytes() == b""


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    p = write(tmp_path, "W.jtx", "class Café { m(x) { return x; } }")
    # an ASCII locale, neither coerced nor overridden by UTF-8 mode
    proc = python(["-X", "utf8=0", "-m", "jtxinfer.cli", str(p)],
                  LC_ALL="C", PYTHONCOERCECLOCALE="0")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "W.sigs.txt").read_text(encoding="utf-8") == \
        "Café.m : <A extends B, B> A -> B\n"
    assert "class Café" in (tmp_path / "W.typed.jtx").read_text(
        encoding="utf-8")


def test_dumps_are_utf8_whatever_the_locale(tmp_path):
    p = write(tmp_path, "W.jtx", "class Café { m(x) { return x; } }")
    proc = python(["-X", "utf8=0", "-m", "jtxinfer.cli", str(p),
                   "--dump-stage", "constraints"], text=False,
                  LC_ALL="C", PYTHONCOERCECLOCALE="0")
    assert (proc.returncode, proc.stderr) == (0, b"")
    out = proc.stdout.decode("utf-8")
    assert out.startswith("== constraints ==\n") and "Café" in out


def test_dumps_go_to_a_text_stdout(tmp_path):
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([str(p), "--dump-stage", "solutions"]) == 0
    assert out.getvalue().startswith("== solutions ==\n")


def test_failed_write_exits_2_and_leaves_no_outputs(tmp_path):
    p = write(tmp_path, "W.jtx", FAC_SRC.replace("Fac", "W"))
    (tmp_path / "W.sigs.txt").mkdir()
    proc = tx_infer([str(p), str(write(tmp_path, "Fac.jtx", FAC_SRC))])
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("tx-infer: W.jtx: [Errno 21] Is a directory: ")
    # the typed output written before the failure is gone again, and the
    # batch goes on
    assert sorted(f.name for f in tmp_path.iterdir() if f.name[0] == "W") \
        == ["W.jtx", "W.sigs.txt"]
    assert (tmp_path / "Fac.sigs.txt").exists()


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
              + "(" * 1000 + "x" + ")" * 1000 + "; } }")
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


def test_flags_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    """`main` reuses one argument parser: a later call without flags
    prints no dump and writes all four outputs."""
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    assert main([str(p), "--dump-stage", "constraints", "--emit", "sigs"]) == 0
    assert "== constraints ==" in capsys.readouterr().out
    assert not (tmp_path / "Fac.typed.jtx").exists()
    (tmp_path / "Fac.sigs.txt").unlink()
    assert main([str(p)]) == 0
    assert capsys.readouterr().out == ""
    for suffix in ("typed.jtx", "sigs.txt", "desc.txt", "funifaces.txt"):
        assert (tmp_path / f"Fac.{suffix}").exists(), suffix


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


def test_bundled_table_is_read_once_per_process(tmp_path, monkeypatch):
    reads = []

    def files(package):
        reads.append(package)
        return resources.files(package)

    monkeypatch.setattr(classtable, "resources", SimpleNamespace(files=files))
    classtable._bundled_entries.cache_clear()
    paths = [str(write(tmp_path, f"{n}.jtx", s))
             for n, s in ALL_GOLDEN_SRCS.items()]
    assert main(paths) == 0
    assert main(paths[:1]) == 0
    assert reads == ["jtxinfer"]


@pytest.mark.parametrize("how", ["flag", "env"])
def test_table_file_is_read_for_every_call(tmp_path, monkeypatch, how):
    table = tmp_path / "table.json"
    table.write_text(BUILTINS.read_text())
    p = write(tmp_path, "Diamond.jtx", PINNED_SRCS["DiamondFst"])
    args = [str(p)]
    if how == "flag":
        args += ["--table", str(table)]
    else:
        monkeypatch.setenv("TXINFER_TABLE", str(table))
    assert main(args) == 0
    data = json.loads(table.read_text())
    data["classes"] = [c for c in data["classes"] if c["name"] != "Pair"]
    table.write_text(json.dumps(data))
    assert main(args) == 2
    monkeypatch.delenv("TXINFER_TABLE", raising=False)
    assert main([str(p)]) == 0


BAD_TABLES = {
    "missing": None,
    "not-json": "not json\n",
    "no-name": '{"classes": [{"params": []}]}',
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_bad_table_file_is_an_error_naming_it(tmp_path, case):
    table = tmp_path / "table.json"
    if BAD_TABLES[case] is not None:
        table.write_text(BAD_TABLES[case])
    with pytest.raises(JtxError, match=re.escape(f"class table {table}: ")):
        classtable.load_builtin_entries(str(table))
    p = write(tmp_path, "Fac.jtx", FAC_SRC)
    proc = tx_infer([str(p), "--table", str(table)])
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"tx-infer: Fac.jtx: error: class table {table}: ")


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
    # terms hash by address, and names by the seed: no output may follow
    # the order of a set of either, in or-group programs least of all
    sources = dict(ALL_GOLDEN_SRCS, Capture=CAPTURE_SRC,
                   TwoCycles=TWO_CYCLES_SRC, **PINNED_SRCS, **{
                       p.name.replace("/", "_"): p.source
                       for p in corpus.workload("ambiguity", 1)
                       + corpus.workload("paper-units", 1)
                       if p.name in ("surviving/n2", "depth/n10",
                                     "refutable/n5")})
    assert len(sources) == 9 + len(PINNED_SRCS) + 3
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


def test_start_up_loads_no_dataclass_machinery():
    # `dataclasses` and what it pulls in (`inspect`, `ast`, `dis`) cost a
    # fresh interpreter 20 to 30 ms of CPU before the first compile
    code = ("import sys; import jtxinfer.cli; from jtxinfer import "
            "build_class_table, parse; build_class_table(parse('')); "
            "print(sorted(sys.modules))")
    proc = python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert "jtxinfer.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis"} == set()
