"""`javac` as a check of the emitted programs that shares no rule with
jtxinfer: the typed outputs of the goldens, of the seed-1 benchmark corpus
and of the pinned programs, translated by `to_java.to_java`, compile in
one `javac` run, each in a package of its own."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jtxinfer as J

from conftest import ALL_GOLDEN_SRCS, PINNED_SRCS
from to_java import to_java

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

JAVAC = shutil.which("javac")

PROGRAMS = {**ALL_GOLDEN_SRCS, **PINNED_SRCS, **{
    f"{w}/{p.name}": p.source
    for w in ("paper-units", "ambiguity", "long-methods")
    for p in corpus.workload(w, 1)}}


@pytest.mark.skipif(JAVAC is None, reason="javac is not on the PATH")
def test_typed_outputs_compile_with_javac(tmp_path):
    files = []
    for name, src in sorted(PROGRAMS.items()):
        package = "p_" + re.sub(r"\W", "_", name)
        path = tmp_path / package / "Program.java"
        path.parent.mkdir()
        path.write_text(to_java(J.typed_source(J.run_source(src)), package))
        files.append(str(path))
    proc = subprocess.run(
        [JAVAC, "-J-Xmx256m", "-nowarn", "-Xmaxerrs", "1000",
         "-d", str(tmp_path / "classes"), *files],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
