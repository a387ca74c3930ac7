"""The tokenizer as it was before it skipped blanks inside the token match:
one regex match per whitespace run and per token.  Kept unchanged as the
reference that `tests/test_lexer_reference.py` checks `jtxinfer.lexer`
against."""

from __future__ import annotations

import re
from dataclasses import dataclass

from jtxinfer.errors import JtxSyntaxError, UnsupportedFeature

KEYWORDS = {
    "class", "import", "var", "while", "return", "new", "void",
    "true", "false", "extends",
}

# Recognised but outside the supported subset; reported explicitly.
UNSUPPORTED = {
    "try", "catch", "finally", "throw", "throws", "if", "else", "for",
    "switch", "case", "interface", "implements", "static", "public",
    "private", "protected", "final", "abstract", "int", "boolean", "char",
    "byte", "short", "long", "float", "instanceof", "super", "this",
    "package", "enum", "record",
}

# One alternative per token kind, tried in order; the groups after `punct`
# match only where no token can start, and `_ERRORS` names what each means.
# A word must start with a letter, '_' or '$': `[^\W\d]` also takes digits
# such as '²', which `tokenize` reports as unexpected.
_TOKEN = re.compile(r"""
      (?P<space>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<word>(?:[^\W\d]|\$)[\w$]*)
    | (?P<float>\d+\.)
    | (?P<int>\d+)
    | (?P<string>"[^"\n]*")
    | (?P<punct>->|<=|\+\+|\|\||==|[(){}<>;,.=+*])
    | (?P<open_comment>/\*)
    | (?P<open_string>")
    | (?P<wildcard>\?)
    | (?P<other>.)
""", re.VERBOSE | re.DOTALL)

_ERRORS = {
    "float": (UnsupportedFeature, "floating point literals are not supported"),
    "open_comment": (JtxSyntaxError, "unterminated comment"),
    "open_string": (JtxSyntaxError, "unterminated string literal"),
    "wildcard": (UnsupportedFeature, "wildcard types are not supported"),
}


@dataclass
class Token:
    kind: str  # 'ident', 'keyword', 'int', 'string', 'punct', 'eof'
    text: str
    line: int
    col: int

    def __repr__(self):
        return f"{self.kind}({self.text!r})"


def tokenize(source):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind, text, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if kind == "space" or kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        elif kind == "word" and (text[0].isalpha() or text[0] in "_$"):
            if text in UNSUPPORTED:
                raise UnsupportedFeature(
                    f"'{text}' is not part of the supported subset", line, col)
            tokens.append(Token("keyword" if text in KEYWORDS else "ident",
                                text, line, col))
        elif kind == "punct" or kind == "int":
            tokens.append(Token(kind, text, line, col))
        elif kind == "string":
            tokens.append(Token(kind, text[1:-1], line, col))
        else:
            cls, message = _ERRORS.get(kind) or (
                JtxSyntaxError, f"unexpected character {text[0]!r}")
            raise cls(message, line, col)
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
