"""Function-type name mangling and the empty-interface hierarchy.

A function type is a ``FunN$$``/``FunVoidN$$``-headed class type.  A ground
``FunN$$<ty1, …, tyn, ty0>`` maps to a flat class name by the substitutions
``.`` -> ``$`` and ``<``/``,``/``>`` -> ``$_$``; one without type arguments
(``FunVoid0$$``) keeps its bare head, and placeholder-parameterised function
types erase to the bare ``FunN$$`` root, matching descriptor erasure.  The
decode direction exists so tests can prove the mangling injective over the
supported alphabet.
"""

from __future__ import annotations

from .classtable import qualified_names
from .errors import JtxError
from .typeterms import (FUN_HEAD, VOID, ClassType, TypeVar, fun_subterms,
                        is_fun, is_ground)

SEP = "$_$"


def _qualified(name, table):
    if table is not None and name in table.entries:
        return table.entries[name].qualified
    return name


def mangle_funtype_name(t, table=None):
    """Mangled class name of a function type; erased root when any
    parameter is still a placeholder or type variable."""
    if not t.args or not _concrete(t):
        return t.name
    parts = [_mangle_term(a, table) for a in t.args]
    return t.name + SEP + SEP.join(parts) + SEP


def _concrete(t):
    """True when `t` holds neither a placeholder nor a declared variable."""
    return is_ground(t) and not isinstance(t, TypeVar) and all(
        map(_concrete, t.args))


def _mangle_term(t, table):
    if is_fun(t):
        return mangle_funtype_name(t, table)
    return _qualified(t.name, table).replace(".", "$")


def decode_funtype_name(name, table=None):
    """Inverse of `mangle_funtype_name` on ground names."""
    term, rest = _decode(name, {} if table is None
                         else qualified_names(table.entries))
    if rest:
        raise JtxError(f"trailing characters in mangled name: {rest!r}")
    return term


def _decode(s, by_qualified):
    m = FUN_HEAD.match(s)
    if not m:
        raise JtxError(f"not a mangled function-type name: {s!r}")
    is_void, n = m.group(1) is not None, int(m.group(2))
    rest = s[m.end():]
    count = n if is_void else n + 1
    if count and not rest.startswith(SEP):
        raise JtxError(f"malformed mangled name: {s!r}")
    if count:
        rest = rest[len(SEP):]
    parts = []
    for _ in range(count):
        if FUN_HEAD.match(rest):
            inner, rest = _decode(rest, by_qualified)
            parts.append(inner)
            if not rest.startswith(SEP):
                raise JtxError(f"missing separator in {s!r}")
            rest = rest[len(SEP):]
        else:
            idx = rest.find(SEP)
            if idx < 0:
                raise JtxError(f"missing separator in {s!r}")
            qualified = rest[:idx].replace("$", ".")
            parts.append(ClassType(by_qualified.get(
                qualified, qualified.rsplit(".", 1)[-1])))
            rest = rest[idx + len(SEP):]
    return ClassType(m.group(0), tuple(parts)), rest


def collect_used_funtypes(terms):
    """Every function-type instantiation in the given type terms, in a
    deterministic order."""
    seen = {}
    for t in terms:
        for f in fun_subterms(t):
            seen[str(f)] = f
    return [seen[k] for k in sorted(seen)]


class FunInterfaceDecl:
    __slots__ = ("name", "direct_supers", "root")

    def __init__(self, name, direct_supers=None, root=""):
        self.name = name
        self.direct_supers = [] if direct_supers is None else direct_supers
        self.root = root

    def render(self):
        supers = list(self.direct_supers) + [self.root]
        return f"{self.name} : {', '.join(supers)}"


def fun_interface_hierarchy(used, table):
    """One interface decl per mangled name, from the first used function
    type that has it; super-edges point at the immediate supertypes among
    the used set, plus the erased root."""
    used = list(used)
    decls = {}
    for t in used:
        name = mangle_funtype_name(t, table)
        if name in decls:
            continue
        supers = []
        above = [u for u in used
                 if u is not t and _concrete(u) and _concrete(t)
                 and table.is_subtype(t, u)]
        for u in above:
            if any(w is not u and w is not t and table.is_subtype(t, w)
                   and table.is_subtype(w, u) for w in above):
                continue  # some used type lies strictly between
            supers.append(mangle_funtype_name(u, table))
        decls[name] = FunInterfaceDecl(name=name,
                                       direct_supers=sorted(supers),
                                       root=t.name)
    return list(decls.values())


def render_manifest(decls):
    return "\n".join(d.render() for d in decls) + ("\n" if decls else "")


def descriptor_term(t, table=None):
    """JVM-style descriptor fragment for one type.  Placeholders and type
    variables erase to Object; generic heads keep their raw name."""
    if t is VOID:
        return "V"
    if is_fun(t):
        return f"L{mangle_funtype_name(t, table)};"
    if isinstance(t, ClassType) and not isinstance(t, TypeVar):
        return "L" + _qualified(t.name, table).replace(".", "$") + ";"
    return "Ljava$lang$Object;"
