"""Function-type name mangling and the empty-interface hierarchy.

A ground ``FunN$$<ty1, …, tyn, ty0>`` maps to a flat class name by the
substitutions ``.`` -> ``$`` and ``<``/``,``/``>`` -> ``$_$``; placeholder-
parameterised function types erase to the bare ``FunN$$`` root, matching
descriptor erasure.  The decode direction exists so tests can prove the
mangling injective over the supported alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import JtxError
from .typeterms import (FUN_HEAD, VOID, ClassType, FunType, fun_subterms,
                        fun_type, is_ground)

SEP = "$_$"


def _qualified(name, table):
    if table is not None and name in table.entries:
        return table.entries[name].qualified
    return name


def mangle_funtype_name(t, table=None):
    """Mangled class name of a function type; erased root when any
    parameter is still a placeholder or type variable."""
    if not is_ground(t) or _has_typevar(t, table):
        return t.head
    parts = [_mangle_term(a, table) for a in t.args]
    if t.ret != VOID:
        parts.append(_mangle_term(t.ret, table))
    return t.head + SEP + SEP.join(parts) + SEP


def _has_typevar(t, table):
    if table is None:
        return False
    if isinstance(t, ClassType):
        return table.is_typevar(t) or any(_has_typevar(a, table)
                                          for a in t.args)
    if isinstance(t, FunType):
        return (any(_has_typevar(a, table) for a in t.args)
                or _has_typevar(t.ret, table))
    return False


def _mangle_term(t, table):
    if isinstance(t, FunType):
        return mangle_funtype_name(t, table)
    return _qualified(t.name, table).replace(".", "$")


def decode_funtype_name(name, table=None):
    """Inverse of `mangle_funtype_name` on ground names."""
    term, rest = _decode(name, table)
    if rest:
        raise JtxError(f"trailing characters in mangled name: {rest!r}")
    return term


def _decode(s, table):
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
            inner, rest = _decode(rest, table)
            parts.append(inner)
            if not rest.startswith(SEP):
                raise JtxError(f"missing separator in {s!r}")
            rest = rest[len(SEP):]
        else:
            idx = rest.find(SEP)
            if idx < 0:
                raise JtxError(f"missing separator in {s!r}")
            qualified = rest[:idx].replace("$", ".")
            parts.append(_class_by_qualified(qualified, table))
            rest = rest[idx + len(SEP):]
    return fun_type(is_void, parts), rest


def _class_by_qualified(qualified, table):
    if table is not None:
        for entry in table.entries.values():
            if entry.qualified == qualified:
                return ClassType(entry.name)
    return ClassType(qualified.rsplit(".", 1)[-1])


def collect_used_funtypes(terms):
    """Every function-type instantiation in the given type terms, in a
    deterministic order."""
    seen = {}
    for t in terms:
        for f in fun_subterms(t):
            seen[str(f)] = f
    return [seen[k] for k in sorted(seen)]


@dataclass
class FunInterfaceDecl:
    name: str
    direct_supers: list = field(default_factory=list)
    root: str = ""

    def render(self):
        supers = list(self.direct_supers) + [self.root]
        return f"{self.name} : {', '.join(supers)}"


def fun_interface_hierarchy(used, table):
    """One interface decl per used function type; super-edges point at the
    immediate supertypes among the used set, plus the erased root."""
    used = list(used)
    decls = []
    for t in used:
        name = mangle_funtype_name(t, table)
        supers = []
        above = [u for u in used
                 if u != t and is_ground(u) and is_ground(t)
                 and table.is_subtype(t, u)]
        for u in above:
            if any(w is not u and w is not t and table.is_subtype(t, w)
                   and table.is_subtype(w, u) for w in above):
                continue  # some used type lies strictly between
            supers.append(mangle_funtype_name(u, table))
        decls.append(FunInterfaceDecl(name=name,
                                      direct_supers=sorted(supers),
                                      root=t.head))
    return decls


def render_manifest(decls):
    return "\n".join(d.render() for d in decls) + ("\n" if decls else "")


def descriptor_term(t, table=None):
    """JVM-style descriptor fragment for one type.  Placeholders and type
    variables erase to Object; generic heads keep their raw name."""
    if t == VOID:
        return "V"
    if isinstance(t, FunType):
        return f"L{mangle_funtype_name(t, table)};"
    if isinstance(t, ClassType):
        if table is not None and table.is_typevar(t):
            return "Ljava$lang$Object;"
        return "L" + _qualified(t.name, table).replace(".", "$") + ";"
    return "Ljava$lang$Object;"
