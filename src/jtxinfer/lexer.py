"""Tokenizer for `.jtx` compilation units.

One regex match per token: each match skips the blanks before its token.
A newline together with the blank lines and indentation after it is one
match of its own, as are the blanks at the end of input, so lines are
counted only there and in block comments.  The list ends with one `eof`
token at the end of input.
"""

from __future__ import annotations

import re

from .errors import JtxSyntaxError, UnsupportedFeature

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

# Blanks other than a newline, then one alternative per token kind, tried in
# order.  `space` is a newline with all blanks after it, or the end of input,
# so blanks at the end are matched there and never backtracked into `other`.
# The groups after `string` match only where no token can start, and
# `_ERRORS` names what each means.  A word must start with a letter, '_' or
# '$': `[^\W\d]` also takes digits such as '²', which `tokenize` reports as
# unexpected.
_TOKEN = re.compile(r"""[^\S\n]*(?:
      (?P<word>(?:[^\W\d]|\$)[\w$]*)
    | (?P<punct>->|<=|\+\+|\|\||==|[(){}<>;,.=+*])
    | (?P<space>\n\s*|\Z)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<float>\d+\.)
    | (?P<int>\d+)
    | (?P<string>"[^"\n]*")
    | (?P<open_comment>/\*)
    | (?P<open_string>")
    | (?P<wildcard>\?)
    | (?P<other>.)
)""", re.VERBOSE | re.DOTALL)

_ERRORS = {
    "float": (UnsupportedFeature, "floating point literals are not supported"),
    "open_comment": (JtxSyntaxError, "unterminated comment"),
    "open_string": (JtxSyntaxError, "unterminated string literal"),
    "wildcard": (UnsupportedFeature, "wildcard types are not supported"),
}


class Token:
    # kind: 'ident', 'keyword', 'int', 'string', 'punct' or 'eof'
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind, self.text = kind, text
        self.line, self.col = line, col

    def __repr__(self):
        return f"{self.kind}({self.text!r})"


def tokenize(source):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text, start = m[kind], m.start(kind)
        col = start - line_start + 1
        if kind == "word" and (text[0].isalpha() or text[0] in "_$"):
            if text in UNSUPPORTED:
                raise UnsupportedFeature(
                    f"'{text}' is not part of the supported subset", line, col)
            tokens.append(Token("keyword" if text in KEYWORDS else "ident",
                                text, line, col))
        elif kind == "punct" or kind == "int":
            tokens.append(Token(kind, text, line, col))
        elif kind == "space" or kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        elif kind == "string":
            tokens.append(Token(kind, text[1:-1], line, col))
        else:
            cls, message = _ERRORS.get(kind) or (
                JtxSyntaxError, f"unexpected character {text[0]!r}")
            raise cls(message, line, col)
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
