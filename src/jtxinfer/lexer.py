"""Tokenizer for `.jtx` compilation units.

One regex match per token: each match skips the blanks and newlines
before its token, and one more matches the end of input.  A token's line
counts the newlines before it, each found with `str.find` once a token
starts past it, so a newline costs no match of its own.
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

# Blanks, then one alternative per token kind, tried in order.  `eof`
# matches only at the end of input, after all blanks there, so they are
# never backtracked into `other`.  The groups after `string` match only
# where no token can start, and `_ERRORS` names what each means.  A word
# must start with a letter, '_' or '$': `[^\W\d]` also takes digits such as
# '²', which `tokenize` reports as unexpected.
_TOKEN = re.compile(r"""\s*(?:
      (?P<word>(?:[^\W\d]|\$)[\w$]*)
    | (?P<punct>->|<=|\+\+|\|\||==|[(){}<>;,.=+*])
    | (?P<eof>\Z)
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


# a word's kind by its text, None where it is unsupported
_WORD_KINDS = dict.fromkeys(KEYWORDS, "keyword") | dict.fromkeys(UNSUPPORTED)


def tokenize(source):
    """The tokens of `source` as `(kind, text, line, col)` tuples: kind is
    'ident', 'keyword', 'int', 'string', 'punct' or 'eof', and a string's
    text leaves out its quotes.  The list ends with the one eof token."""
    tokens = []
    append = tokens.append
    find, size = source.find, len(source)
    # `base` is the offset before column 1 of `line`, and `nl` that of the
    # first newline after it; past the last one `find` gives -1, which the
    # `% (size + 1)` makes the size of the source
    line, base, nl = 1, -1, find("\n") % (size + 1)
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        start = m.end() - len(text)  # a token ends where its match does
        while nl < start:
            line, base, nl = line + 1, nl, find("\n", nl + 1) % (size + 1)
        # a word starting with an ASCII character starts with a letter, '_'
        # or '$'
        if kind == "word" and (text < "\x80" or text[0].isalpha()):
            kind = _WORD_KINDS.get(text, "ident")
            if kind is None:
                raise UnsupportedFeature(
                    f"'{text}' is not part of the supported subset",
                    line, start - base)
        elif kind == "punct" or kind == "int":
            pass  # taken as matched
        elif kind == "comment":
            continue
        elif kind == "eof":
            break  # after blanks at the end an empty `eof` can match again
        elif kind == "string":
            text = text[1:-1]
        else:
            cls, message = _ERRORS.get(kind) or (
                JtxSyntaxError, f"unexpected character {text[0]!r}")
            raise cls(message, line, start - base)
        append((kind, text, line, start - base))
    append(("eof", "", line, start - base))
    return tokens
