"""Type terms: class types, placeholders, function types and void.

Terms are immutable; substitution returns new terms.  `FunType` with
``ret=VOID`` models the void-returning function-interface family.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


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

# FunN$$ / FunVoidN$$ head; `match` finds it at the start of a mangled name
FUN_HEAD = re.compile(r"Fun(Void)?(\d+)\$\$")


@dataclass(frozen=True)
class FunType(TypeTerm):
    """Function type Fun{N}$$<T1,..,TN,R> (contravariant args, covariant
    return) or FunVoid{N}$$<T1,..,TN> when ``ret`` is VOID."""

    args: tuple
    ret: TypeTerm

    @property
    def arity(self):
        return len(self.args)

    @property
    def head(self):
        if self.ret == VOID:
            return f"FunVoid{self.arity}$$"
        return f"Fun{self.arity}$$"

    def __str__(self):
        inner = list(self.args) if self.ret == VOID else list(self.args) + [self.ret]
        return f"{self.head}<{', '.join(str(a) for a in inner)}>"


def fun_head_arity(name):
    """Return (is_void, arity) when `name` is a FunN$$/FunVoidN$$ head."""
    m = FUN_HEAD.fullmatch(name)
    if not m:
        return None
    return (m.group(1) is not None, int(m.group(2)))


def fun_type(is_void, args):
    """The FunType a FunN$$/FunVoidN$$ head denotes over its type arguments:
    all are parameters when void, else the last one is the return type."""
    args = tuple(args)
    if is_void:
        return FunType(args, VOID)
    return FunType(args[:-1], args[-1])


def tph_name(n):
    """Name of the n-th generated placeholder: 0 -> A, 25 -> Z, 26 -> AA, ...
    (bijective base 26)."""
    out = []
    n += 1
    while n > 0:
        n, rem = divmod(n - 1, 26)
        out.append(chr(ord("A") + rem))
    return "".join(reversed(out))


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
    if isinstance(term, FunType):
        return FunType(
            tuple(substitute(a, sigma) for a in term.args),
            substitute(term.ret, sigma),
        )
    return term


def instantiate(term, mapping):
    """Replace each type-variable reference (an arg-less ClassType whose
    name is in `mapping`) by its image."""
    if isinstance(term, ClassType):
        if not term.args:
            return mapping.get(term.name, term)
        return ClassType(term.name,
                         tuple(instantiate(a, mapping) for a in term.args))
    if isinstance(term, FunType):
        return FunType(tuple(instantiate(a, mapping) for a in term.args),
                       instantiate(term.ret, mapping))
    return term


def tphs_of(term):
    """Set of TPH names occurring in a term."""
    out = set()
    _collect_tphs(term, out)
    return out


def _collect_tphs(term, out):
    if isinstance(term, TPH):
        out.add(term.name)
    elif isinstance(term, ClassType):
        for a in term.args:
            _collect_tphs(a, out)
    elif isinstance(term, FunType):
        for a in term.args:
            _collect_tphs(a, out)
        _collect_tphs(term.ret, out)


def is_ground(term):
    """True when the term contains no TPH."""
    if isinstance(term, TPH):
        return False
    if isinstance(term, ClassType):
        return all(is_ground(a) for a in term.args)
    if isinstance(term, FunType):
        return all(is_ground(a) for a in term.args) and is_ground(term.ret)
    return True


def fun_subterms(term):
    """All FunType subterms of a term (including the term itself)."""
    out = []
    _collect_funs(term, out)
    return out


def _collect_funs(term, out):
    if isinstance(term, FunType):
        out.append(term)
        for a in term.args:
            _collect_funs(a, out)
        _collect_funs(term.ret, out)
    elif isinstance(term, ClassType):
        for a in term.args:
            _collect_funs(a, out)
