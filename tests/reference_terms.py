"""The term functions as they were when terms were frozen dataclasses:
each call walks the term again.  Kept unchanged as the references that
`tests/test_typeterms.py` checks the interned terms against: their stored
placeholder tuples and printed forms, and `substitute`."""

from __future__ import annotations

from jtxinfer.typeterms import ClassType, TPH


def term_str(term):
    """The printed form of a term."""
    if isinstance(term, ClassType):
        if not term.args:
            return term.name
        return f"{term.name}<{', '.join(term_str(a) for a in term.args)}>"
    if isinstance(term, TPH):
        return term.name
    return "void"


def substitute(term, sigma):
    """Apply a TPH->TypeTerm map to a term (single pass)."""
    if isinstance(term, TPH):
        return sigma.get(term.name, term)
    if isinstance(term, ClassType):
        if not term.args:
            return term
        return ClassType(term.name, tuple(substitute(a, sigma) for a in term.args))
    return term


def tphs_of(term):
    """TPH names occurring in a term, in left-to-right order of first
    occurrence (a dict used as an ordered set)."""
    out = {}
    _collect_tphs(term, out)
    return out


def _collect_tphs(term, out):
    if isinstance(term, TPH):
        out.setdefault(term.name)
    elif isinstance(term, ClassType):
        for a in term.args:
            _collect_tphs(a, out)


def is_ground(term):
    """True when the term contains no TPH."""
    if isinstance(term, TPH):
        return False
    if isinstance(term, ClassType):
        return all(is_ground(a) for a in term.args)
    return True
