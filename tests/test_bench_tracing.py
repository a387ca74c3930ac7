"""The benchmark's traced mode wraps pipeline functions by name.

`perfbench/tracing.py` replaces module attributes of `jtxinfer` (see
`Tracer.install`) and reads the collapse count from the return value of
`enforce_java_conformance`.  A rename, or a call that no longer goes
through the module attribute, would only show in a traced benchmark run;
this test runs one traced compile of the Cycle program instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

from conftest import CYCLE_SRC  # noqa: E402
from jtxinfer.lexer import tokenize  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_traced_cycle_run_reaches_every_wrapped_name(tmp_path, capsys):
    src = tmp_path / "Cycle.jtx"
    src.write_text(CYCLE_SRC)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the constraints dump is the one caller of `flatten`
        rc = tracer.main(["--dump-stage", "constraints", str(src)])
    finally:
        tracer.uninstall()
    assert rc == 0
    wrapped = set(tracing._SPAN_METRIC) | {"run_source", "cli.main"}
    assert wrapped - {name for name, *_ in tracer.spans} == set()
    metrics = tracing.pass_metrics(tracer.spans, 0, tracer.counts, 1.0)
    assert metrics["generics.collapses"] > 0
    # the tracer counts the list `parse` gets from `parser.tokenize`; the
    # parser's eof padding is its own
    assert metrics["parser.tokens"] == len(tokenize(CYCLE_SRC))
    for suffix in ("typed.jtx", "sigs.txt", "desc.txt", "funifaces.txt"):
        assert ((tmp_path / f"Cycle.{suffix}").read_text()
                == (GOLDEN / f"Cycle.{suffix}").read_text()), suffix
