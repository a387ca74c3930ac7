"""Type terms: class types, declared type variables, placeholders and void.

Terms are hash-consed: constructing a term returns the one object for its
structure, a class type's `(name, args)` or a placeholder's name, and
`VOID` is the one void term.  So two terms are equal exactly when they are
the same object, and `==` and `hash` are those of `object`.  Each term
holds what is computed once when it is first built: `tphs`, the names of
its placeholders in left-to-right order of first occurrence, and its
printed form.  Terms are immutable; substitution returns new terms.  The
intern tables live as long as the process and hold every distinct term it
builds.

A function type is the class type ``Fun{N}$$<T1, …, TN, R>``, or
``FunVoid{N}$$<T1, …, TN>`` when it returns void; the class table
generates an entry for each such head a program uses.
"""

from __future__ import annotations

import re
from functools import lru_cache


class TypeTerm:
    """A hash-consed term: `tphs` is its tuple of placeholder names, in
    order of first occurrence, and `str` its printed form."""

    __slots__ = ("tphs", "_str")

    def __str__(self):
        return self._str

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


# writes a slot past `TypeTerm.__setattr__`; only while a term is built
_set = object.__setattr__

_CLASS_TYPES = {}   # (name, args) -> ClassType
_TPHS = {}          # name -> TPH


class ClassType(TypeTerm):
    """Named type, possibly generic; `args` is a tuple of terms.  A
    declared type variable is one too, a `TypeVar`."""

    __slots__ = ("name", "args")

    def __new__(cls, name, args=()):
        term = _CLASS_TYPES.get((name, args))
        if term is None:
            term = object.__new__(cls)
            _set(term, "name", name)
            _set(term, "args", args)
            _set(term, "tphs", tuple(dict.fromkeys(
                n for a in args for n in a.tphs)))
            _set(term, "_str", f"{name}<{', '.join(a._str for a in args)}>"
                 if args else name)
            _CLASS_TYPES[name, args] = term
        return term

    def __reduce__(self):
        return (ClassType, (self.name, self.args))

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, args={self.args!r})"


class TypeVar(ClassType):
    """A declared type variable of member `owner`, a member scope, so each
    member's `T` is a term of its own.  Its `name`, which head tests
    compare, holds the member behind an `@`, which no identifier contains;
    it prints as `source`.  Terms are interned: `ClassType(var.name)` is
    `var`."""

    __slots__ = ("source", "owner")

    def __new__(cls, source, owner):
        name = "@".join([source, *map(str, owner)])
        if (name, ()) not in _CLASS_TYPES:
            term = super().__new__(cls, name)
            _set(term, "_str", source)
            _set(term, "source", source)
            _set(term, "owner", owner)
        return _CLASS_TYPES[name, ()]

    def __reduce__(self):
        return (TypeVar, (self.source, self.owner))


class TPH(TypeTerm):
    """Type placeholder: a fresh inference variable."""

    __slots__ = ("name",)

    def __new__(cls, name):
        term = _TPHS.get(name)
        if term is None:
            term = object.__new__(cls)
            _set(term, "name", name)
            _set(term, "tphs", (name,))
            _set(term, "_str", name)
            _TPHS[name] = term
        return term

    def __reduce__(self):
        return (TPH, (self.name,))

    def __repr__(self):
        return f"TPH(name={self.name!r})"


class VoidType(TypeTerm):
    __slots__ = ()

    def __new__(cls):
        return VOID

    def __reduce__(self):
        return (VoidType, ())

    def __repr__(self):
        return "VoidType()"


VOID = object.__new__(VoidType)
_set(VOID, "tphs", ())
_set(VOID, "_str", "void")

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
    if ret is VOID:
        return ClassType(f"FunVoid{len(params)}$$", params)
    return ClassType(f"Fun{len(params)}$$", params + (ret,))


def is_fun(term):
    """True when `term` is a FunN$$/FunVoidN$$ class type."""
    return (isinstance(term, ClassType)
            and FUN_HEAD.fullmatch(term.name) is not None)


def is_atomic(term):
    """True when `term` is a class type without arguments, or void."""
    return (isinstance(term, ClassType) and not term.args) or term is VOID


# cached, as `tph_number` is: generation names every placeholder it draws
@lru_cache(maxsize=1 << 16)
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
    """Apply a TPH->TypeTerm map to a term (single pass); a ground term is
    returned as it is."""
    if not term.tphs:
        return term
    if isinstance(term, TPH):
        return sigma.get(term.name, term)
    return ClassType(term.name,
                     tuple([substitute(a, sigma) for a in term.args]))


def instantiate(term, mapping):
    """Replace each type-variable reference of a template (an arg-less
    ClassType, a `TypeVar` among them, whose name is in `mapping`) by its
    image.  Any other term, and a missing template (None), stays as it is."""
    if isinstance(term, ClassType):
        if not term.args:
            return mapping.get(term.name, term)
        return ClassType(term.name,
                         tuple(instantiate(a, mapping) for a in term.args))
    return term


def tphs_of(term):
    """TPH names occurring in a term, in left-to-right order of first
    occurrence: the tuple the term holds."""
    return term.tphs


def is_ground(term):
    """True when the term contains no TPH."""
    return not term.tphs


def fun_subterms(term):
    """All function-type subterms of a term (including the term itself),
    in pre-order."""
    if not isinstance(term, ClassType):
        return []
    out = [term] if is_fun(term) else []
    for a in term.args:
        out.extend(fun_subterms(a))
    return out
