"""`jtxinfer.lexer.tokenize` against the tokenizer it replaced.

`reference_lexer.py` is the tokenizer that made one regex match per
whitespace run as well as per token.  On any input both give the same
`(kind, text, line, col)` list, or the same `(type, message, line, col)`
diagnostic.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jtxinfer.errors import JtxError
from jtxinfer.lexer import KEYWORDS, UNSUPPORTED, tokenize

import reference_lexer
from conftest import ALL_GOLDEN_SRCS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

WORDS = sorted(KEYWORDS) + ["try", "this", "record", "int", "x", "Foo_1",
                            "_a", "$", "$b", "a$1", "__", "Integer"]
NUMBERS = ["1.", "12", "0", "1.5", "12."]
STRINGS = ['"a b"', '""', '"', '"ab', '"a\nb"', '"/* x */"']
COMMENTS = ["// c", "//", "/* x */", "/**/", "/* a\n b */", "/* open",
            "/*", "*/", "/"]
PUNCTS = ["->", "<=", "++", "||", "==", "(", ")", "{", "}", "<", ">", ";",
          ",", ".", "=", "+", "*", "-", "|", "?", "#", "²"]
BLANKS = ["\t", "\r", "\n", " ", "\u00a0", "\u2028", "\x0b", "\x0c",
          "\x85", "\r\n", "\n\n  "]
PIECES = WORDS + NUMBERS + STRINGS + COMMENTS + PUNCTS + BLANKS
CHARS = sorted(set("".join(PIECES)))


def lex(tokenize_fn, src, fields=lambda t: t):
    """The tokens of `src` as `(kind, text, line, col)`, each made by
    `fields` from one token, or the diagnostic."""
    try:
        return [fields(t) for t in tokenize_fn(src)]
    except JtxError as exc:
        return (type(exc), exc.message, exc.line, exc.col)


def assert_same(src):
    assert lex(tokenize, src) == lex(
        reference_lexer.tokenize, src,
        lambda t: (t.kind, t.text, t.line, t.col))


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_same_tokens_on_joined_pieces(src):
    assert_same(src)


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=CHARS, max_size=40))
def test_same_tokens_on_mixed_characters(src):
    assert_same(src)


@pytest.mark.parametrize("src", [
    "", " ", "\n", "x", "x ", " x\n", "\n\n\tx", "x\r\ny", "a b",
    "class A { } // end", "class A { } /* end */  ", '"open\n',
    "try", "  this", "x\n  ²", "1.\n", "/* a\n\n b */ c", "a /* b */\n c",
])
def test_same_tokens_on_edge_cases(src):
    assert_same(src)


def test_same_tokens_on_goldens_and_corpus():
    srcs = list(ALL_GOLDEN_SRCS.values())
    srcs += [p.source for w in ("paper-units", "ambiguity", "long-methods")
             for p in corpus.workload(w, 1)]
    for src in srcs:
        assert_same(src)
