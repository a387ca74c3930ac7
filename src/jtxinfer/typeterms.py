"""Type terms: class types, placeholders and void.

Terms are immutable; substitution returns new terms.  A function type is
the class type ``Fun{N}$$<T1, …, TN, R>``, or ``FunVoid{N}$$<T1, …, TN>``
when it returns void; the class table generates an entry for each such
head a program uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class TypeTerm:
    __slots__ = ()


@dataclass(frozen=True)
class ClassType(TypeTerm):
    """Named type, possibly generic.  Also used for declared type variables,
    which are arity-0 entries in a scoped class table."""

    name: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return self.name
        return f"{self.name}<{', '.join(str(a) for a in self.args)}>"


@dataclass(frozen=True)
class TPH(TypeTerm):
    """Type placeholder: a fresh inference variable."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class VoidType(TypeTerm):
    def __str__(self):
        return "void"


VOID = VoidType()

# FunN$$ / FunVoidN$$ head, N without leading zeros; `match` finds it at the
# start of a mangled name
FUN_HEAD = re.compile(r"Fun(Void)?(0|[1-9]\d*)\$\$")


def fun_head_arity(name):
    """Return (is_void, arity) when `name` is a FunN$$/FunVoidN$$ head."""
    m = FUN_HEAD.fullmatch(name)
    if not m:
        return None
    return (m.group(1) is not None, int(m.group(2)))


def fun_type(params, ret):
    """The class type of a function from `params` to `ret`."""
    params = tuple(params)
    if ret == VOID:
        return ClassType(f"FunVoid{len(params)}$$", params)
    return ClassType(f"Fun{len(params)}$$", params + (ret,))


def is_fun(term):
    """True when `term` is a FunN$$/FunVoidN$$ class type."""
    return (isinstance(term, ClassType)
            and FUN_HEAD.fullmatch(term.name) is not None)


def tph_name(n):
    """Name of the n-th generated placeholder: 0 -> A, 25 -> Z, 26 -> AA, ...
    (bijective base 26)."""
    out = []
    n += 1
    while n > 0:
        n, rem = divmod(n - 1, 26)
        out.append(chr(ord("A") + rem))
    return "".join(reversed(out))


# cached: the unifier looks up the scope of a placeholder by its number at
# every branch point
@lru_cache(maxsize=1 << 16)
def tph_number(name):
    """Inverse of `tph_name`; None for a name it does not produce."""
    if not name or not all("A" <= ch <= "Z" for ch in name):
        return None
    value = 0
    for ch in name:
        value = value * 26 + (ord(ch) - ord("A") + 1)
    return value - 1


def substitute(term, sigma):
    """Apply a TPH->TypeTerm map to a term (single pass)."""
    if isinstance(term, TPH):
        return sigma.get(term.name, term)
    if isinstance(term, ClassType):
        if not term.args:
            return term
        return ClassType(term.name, tuple(substitute(a, sigma) for a in term.args))
    return term


def instantiate(term, mapping):
    """Replace each type-variable reference (an arg-less ClassType whose
    name is in `mapping`) by its image."""
    if isinstance(term, ClassType):
        if not term.args:
            return mapping.get(term.name, term)
        return ClassType(term.name,
                         tuple(instantiate(a, mapping) for a in term.args))
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


def fun_subterms(term):
    """All function-type subterms of a term (including the term itself),
    in pre-order."""
    if not isinstance(term, ClassType):
        return []
    out = [term] if is_fun(term) else []
    for a in term.args:
        out.extend(fun_subterms(a))
    return out
