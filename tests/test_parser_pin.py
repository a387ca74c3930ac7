"""Parser results pinned on broken and complete programs.

`tests/golden/parser_pin.json` holds, for each of the seven golden programs,
the result of parsing every prefix cut at a token boundary (the start and
the end of each token) and the program with each single token deleted: the
diagnostic as `(type, message, line, col)`, or the sha256 of
`repr(parse(src))` when it parses.  It also holds that sha256 for every
golden and every benchmark corpus program (`perfbench/corpus.py`, imported
read-only: each workload, seeds 1-3).  Cuts near the end of the input pin
the parser's lookahead past the last token.  The fixture was written by the
recursive-descent parser before it read its tokens by index; regenerate it
only for a change of grammar, with `PYTHONPATH=src python
tests/test_parser_pin.py`, and say why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from jtxinfer.errors import JtxError
from jtxinfer.lexer import tokenize
from jtxinfer.parser import parse

from conftest import ALL_GOLDEN_SRCS

GOLDEN = Path(__file__).resolve().parent / "golden"
PIN = GOLDEN / "parser_pin.json"
WORKLOADS = ("paper-units", "ambiguity", "long-methods")
SEEDS = (1, 2, 3)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def outcome(src):
    """The sha256 of the tree's repr, or the diagnostic as a list.  Local
    declaration uids are counted from 1 in each parse, so the repr does
    not depend on what was parsed before."""
    try:
        tree = parse(src)
    except JtxError as exc:
        return [type(exc).__name__, exc.message, exc.line, exc.col]
    return hashlib.sha256(repr(tree).encode()).hexdigest()


def token_spans(src):
    """(start, end) source offsets of every token but the eof."""
    line_starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
    spans = []
    for kind, text, line, col in tokenize(src)[:-1]:
        start = line_starts[line - 1] + col - 1
        width = len(text) + 2 if kind == "string" else len(text)
        spans.append((start, start + width))
    return spans


def cuts(src):
    """Every prefix at a token boundary and every single-token deletion,
    each with its outcome."""
    spans = token_spans(src)
    bounds = sorted({b for span in spans for b in span})
    return {
        "prefixes": [[b, outcome(src[:b])] for b in bounds],
        "deletions": [[s, e, outcome(src[:s] + src[e:])] for s, e in spans],
    }


def corpus_trees():
    return {w: {str(s): {p.name: outcome(p.source)
                         for p in corpus.workload(w, s)}
                for s in SEEDS}
            for w in WORKLOADS}


def snapshot():
    return {
        "golden_cuts": {n: cuts(src) for n, src in ALL_GOLDEN_SRCS.items()},
        "golden_trees": {n: outcome(src)
                         for n, src in ALL_GOLDEN_SRCS.items()},
        "corpus_trees": corpus_trees(),
    }


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN.read_text())


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN_SRCS))
def test_golden_cuts_match_pin(pin, name):
    want = pin["golden_cuts"][name]
    got = cuts(ALL_GOLDEN_SRCS[name])
    for kind in ("prefixes", "deletions"):
        assert len(got[kind]) == len(want[kind]), kind
        for g, w in zip(got[kind], want[kind]):
            assert g == w, (kind, g[:-1])


def test_golden_and_corpus_trees_match_pin(pin):
    assert {n: outcome(src) for n, src in ALL_GOLDEN_SRCS.items()} \
        == pin["golden_trees"]
    assert corpus_trees() == pin["corpus_trees"]


if __name__ == "__main__":
    PIN.write_text(json.dumps(snapshot(), indent=0, sort_keys=True) + "\n")
