"""Finite type universe and the declared subtype relation.

The built-in universe ships as `builtins.json`; `build_class_table` selects
the slice reachable from a program's imports plus everything its literals
and operators force in, generates a function-type entry for each
``FunN$$``/``FunVoidN$$`` head the program uses, and adds the user classes.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from .errors import (ArityMismatch, DuplicateClass, JtxError,
                     UnknownIdentifier, UnknownImport, UnsupportedFeature)
from .typeterms import (VOID, ClassType, TPH, TypeVar, fun_head_arity,
                        instantiate)
from . import syntax as S

# a JVM method takes at most 255 parameter slots, `this` among them
MAX_FUN_ARITY = 254

CLASS = ("class",)    # the scope of the class's own clause and fields

# The typing rules that name built-in classes, read by constraint generation
# and by the scan of the classes a program forces in.  A construct forces
# the class its rule names: a literal its type, `while` its condition's
# bound, `++` the type it adds.  An overloaded operator takes each of its
# candidate types that is visible, so it forces none; a fixed operator
# forces its operand bound and its result.
RULES = {S.IntLit: "Integer", S.BoolLit: "Boolean", S.StrLit: "String",
         S.While: "Boolean", S.Increment: "Integer"}
OVERLOADED_OPERATORS = {"+": ("Integer", "Double", "String"),
                        "*": ("Integer", "Double")}
FIXED_OPERATORS = {"<=": ("Number", "Boolean"), "||": ("Boolean", "Boolean")}


class MethodSig:
    """`typeparams` is [(name, bound TypeTerm or None)], `params` a
    TypeTerm per parameter and `ret` a TypeTerm; equal to a signature of
    equal parts."""

    __slots__ = ("name", "typeparams", "params", "ret")

    def __init__(self, name, typeparams, params, ret):
        self.name, self.typeparams = name, typeparams
        self.params, self.ret = params, ret

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.typeparams, self.params, self.ret)
                == (other.name, other.typeparams, other.params, other.ret))


class Entry:
    """A class of the universe, equal to an entry of equal parts.
    `super_template` is a TypeTerm over ClassType(param) refs; `methods`
    holds MethodSig templates, and a user class its fully annotated methods
    until the pipeline replaces them with the inferred typings; `fields`
    maps a name to a TypeTerm or None; `generics` is a user class's
    generics clause, [(name, bound or None)]: the type parameters its
    methods and fields take besides their own."""

    __slots__ = ("name", "qualified", "params", "variance", "super_template",
                 "methods", "fields", "generics", "constructor", "pending")

    def __init__(self, name, qualified="", params=None, variance=None,
                 super_template=None, methods=None, fields=None,
                 generics=None, constructor=None):
        self.name = name
        self.qualified = qualified
        self.params = [] if params is None else params
        self.variance = [] if variance is None else variance
        self.super_template = super_template
        self.methods = [] if methods is None else methods
        self.fields = {} if fields is None else fields
        self.generics = [] if generics is None else generics
        self.constructor = [] if constructor is None else constructor
        self.pending = None   # see `ClassTable.register`

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

    @property
    def arity(self):
        return len(self.params)


def _template_from_json(obj):
    if obj is None:
        return None
    if "void" in obj:
        return VOID
    if "var" in obj:
        return ClassType(obj["var"])
    return ClassType(obj["class"],
                     tuple(_template_from_json(a) for a in obj.get("args", [])))


def load_builtin_entries(path=None):
    """Ordered dict of built-in entries from the bundled (or given) table.
    An entry named like a function-type head is dropped: those entries are
    generated (`_fun_entry`), never imported.

    The bundled table is parsed once per process: each call returns a new
    dict over the same entries, which no caller may change (later writes
    touch only user entries' `methods`, `fields` and `generics`).  A
    table at `path` is read on every call; one that cannot be read, is not
    JSON or lacks a key is a `JtxError` that names the path."""
    if path is None:
        return dict(_bundled_entries())
    try:
        with open(path, encoding="utf-8") as fh:
            return _entries_from_json(json.load(fh))
    except OSError as exc:
        problem = exc.strerror or exc
    except ValueError as exc:
        problem = f"not a JSON table: {exc}"
    except KeyError as exc:
        problem = f"an entry has no key {exc}"
    raise JtxError(f"class table {path}: {problem}")


@functools.cache
def _bundled_entries():
    return _entries_from_json(json.loads(
        resources.files("jtxinfer").joinpath("builtins.json")
        .read_text(encoding="utf-8")))


def _entries_from_json(data):
    entries = {}
    for raw in data["classes"]:
        if fun_head_arity(raw["name"]) is not None:
            continue
        methods = [
            MethodSig(
                name=m["name"],
                typeparams=[(tp, None) for tp in m.get("typeparams", [])],
                params=[_template_from_json(p) for p in m["params"]],
                ret=_template_from_json(m["return"]),
            )
            for m in raw.get("methods", [])
        ]
        entries[raw["name"]] = Entry(
            name=raw["name"],
            qualified=raw.get("qualified", raw["name"]),
            params=list(raw.get("params", [])),
            variance=list(raw.get("variance", [])),
            super_template=_template_from_json(raw.get("super")),
            methods=methods,
            constructor=[_template_from_json(p)
                         for p in raw.get("constructor", [])],
        )
    return entries


class ClassTable:
    """Immutable view of the type universe.

    `typevars` maps each declared type variable of the view's class, a
    `TypeVar` of the class or of one of its methods, to its bound (None for
    none), in declaration order: the class's clause, then each method's.

    Each view caches `supertype_chain` per term, `subtype_heads` per
    (head, member scope) and the unifier's `sups` and `bound_heads` (see
    `unify._Unifier`), so the searches of every component and class over
    one view answer each query once.  These depend only on the entries,
    their super templates and the view's variables, and none of these
    changes once a view is queried: `build_class_table` adds every entry
    before the first chain is walked, later writes (the pipeline's
    inferred typings and field types, through `register`) touch only user
    entries' `methods`, `fields` and `generics`, and every view has caches
    of its own.  The built-in entries are shared by every table of the
    process and never written.  A table and its views (`shared`) share
    what depends on the entries alone: `generic`, whether some entry takes
    type arguments (only built-in and function-type entries do, all in
    place when `build_class_table` makes the table); `_below`, each head
    -> the entries whose chain reaches it, in table order; and the member
    index of `members`, which reads exactly what `register` writes, so
    `register` renews it.
    """

    def __init__(self, entries, typevars=None, shared=None):
        self.entries = entries
        self.typevars = typevars or {}
        self._chains = {}     # term -> tuple, see `supertype_chain`
        self._heads = {}      # (name, scope) -> tuple, see `subtype_heads`
        self.sups, self.bound_heads = {}, {}   # see `unify._Unifier`
        shared = shared or self
        self.generic = (any(e.arity for e in entries.values())
                        if shared is self else shared.generic)
        self._below = {} if shared is self else shared._below
        # (member name, arity) -> [(entry name, template)], see `members`
        self._members = {} if shared is self else shared._members

    # -- basic lookup -------------------------------------------------------

    def has(self, name):
        return name in self.entries

    def entry(self, name):
        return self.entries[name]

    def clause(self, scope):
        """The declared (variable, bound) pairs of member `scope`."""
        return tuple((v, b) for v, b in self.typevars.items()
                     if v.owner == scope)

    def declared(self, name, scope):
        """The declared variable `name` that member `scope` sees, its own
        before the class's; None when it sees none."""
        return next((v for v in reversed(self.typevars) if v.source == name
                     and v.owner in (scope, CLASS)), None)

    # -- declared subtyping -------------------------------------------------

    def direct_supertype(self, term):
        """Instantiated direct supertype of a ClassType (a function type's
        is Object), or None."""
        if not isinstance(term, ClassType):
            return None
        if term in self.typevars:
            return self.typevars[term] or ClassType("Object")
        entry = self.entries.get(term.name)
        if entry is None:
            return None
        if len(term.args) != entry.arity:
            raise ArityMismatch(
                f"{term.name} expects {entry.arity} type argument(s), "
                f"got {len(term.args)}")
        return instantiate(entry.super_template,
                           dict(zip(entry.params, term.args)))

    def supertype_chain(self, term):
        """Term followed by its instantiated supertypes up to Object, as a
        tuple cached per view."""
        chain = self._chains.get(term)
        if chain is None:
            chain = self._chains[term] = tuple(self._walk_supertypes(term))
        return chain

    def _walk_supertypes(self, term):
        chain = [term]
        cur = term
        seen = set()
        while True:
            nxt = self.direct_supertype(cur)
            if nxt is None:
                break
            if nxt in seen:
                break
            seen.add(nxt)
            chain.append(nxt)
            cur = nxt
        return chain

    def variance(self, name):
        entry = self.entries.get(name)
        if entry is not None:
            return entry.variance
        return []

    def is_subtype(self, a, b):
        """Declared subtyping on terms without free placeholders (TPH leaves
        compare by identity, which also serves rigid placeholder args)."""
        if a is b:
            return True
        if a is VOID or b is VOID:
            return False
        if isinstance(b, ClassType) and b.name == "Object" and not b.args:
            return not isinstance(a, TPH)
        if isinstance(a, TPH) or isinstance(b, TPH):
            return False
        for sup in self.supertype_chain(a):
            if isinstance(sup, ClassType) and sup.name == b.name:
                return self._same_head_subtype(sup, b)
        return False

    def _same_head_subtype(self, a, b):
        if len(a.args) != len(b.args):
            raise ArityMismatch(f"arity mismatch between {a} and {b}")
        variance = self.variance(a.name) or [0] * len(a.args)
        for v, x, y in zip(variance, a.args, b.args):
            if v == 0 and x is not y:
                return False
            if v < 0 and not self.is_subtype(y, x):
                return False
            if v > 0 and not self.is_subtype(x, y):
                return False
        return True

    def subtype_heads(self, name, scope):
        """Entry names whose supertype chain reaches `name` (incl. itself),
        in table order, from the index `_below`, made at the first call,
        plus the type variables below it that are in scope for member
        `scope`; a tuple cached per view."""
        heads = self._heads.get((name, scope))
        if heads is None:
            below = self._below
            if not below:   # made once for the table and its views
                for cand, e in self.entries.items():
                    head = ClassType(cand, tuple(TPH(f"?{i}")
                                                 for i in range(e.arity)))
                    for n in dict.fromkeys(t.name for t in
                                           self.supertype_chain(head)):
                        below.setdefault(n, []).append(cand)
            heads = self._heads[name, scope] = (*below.get(name, ()), *(
                v.name for v in self.typevars if v.owner in (scope, CLASS)
                and any(t.name == name for t in self.supertype_chain(v))))
        return heads

    # -- member lookup ------------------------------------------------------

    @functools.cached_property
    def order(self):
        """Entry name -> its place in table order."""
        return {name: i for i, name in enumerate(self.entries)}

    def members(self, name, arity):
        """The (entry name, signature template) pairs of member `name`, in
        table order: each entry's methods of `arity` parameters, in
        declaration order, or with `arity` None its field of a known type,
        a signature without parameters that takes the entry's `generics`
        as type parameters.  The index is made at the first call, each
        entry's part once, and `register` renews an entry's part."""
        index = self._members
        if not index:
            for cname in self.entries:
                for key, sigs in self._entry_members(cname).items():
                    index.setdefault(key, []).extend(
                        (cname, sig) for sig in sigs)
        return index.get((name, arity), ())

    def _entry_members(self, cname):
        """Entry `cname`'s signature templates by (member name, arity)."""
        entry = self.entries[cname]
        if entry.pending is not None:
            entry.methods, entry.fields, entry.generics = entry.pending()
            entry.pending = None
        members = {}
        for sig in entry.methods:
            members.setdefault((sig.name, len(sig.params)), []).append(sig)
        for fname, term in entry.fields.items():
            if term is not None:
                members[fname, None] = [MethodSig(fname, entry.generics, [],
                                                  term)]
        return members

    def register(self, name, members):
        """Give user entry `name` the members the pipeline inferred:
        `members()` makes (method templates, field types, generics clause)
        to replace the entry's when the member index reads it, at once if
        the index is made, and never if no later class reads members."""
        index = self._members
        old = self._entry_members(name) if index else {}
        self.entries[name].pending = members
        if not index:
            return
        new = self._entry_members(name)
        order, rank = self.order, self.order[name]
        for key in old.keys() | new.keys():
            # a key's pairs are in table order, so the entry's part is one
            # run; classes register in order, so it is found from the end
            pairs = index.get(key, [])
            end = len(pairs)
            while end and order[pairs[end - 1][0]] > rank:
                end -= 1
            start = end
            while start and pairs[start - 1][0] == name:
                start -= 1
            index[key] = [*pairs[:start], *((name, sig) for sig
                                            in new.get(key, ())),
                          *pairs[end:]]

    def instantiate_method(self, sig, term, names):
        """Signature template `sig` of `term`'s entry with, in one mapping,
        `term`'s type arguments for the entry's parameters and `names` for
        the signature's own: (parameters, return, (parameter, bound) pairs)."""
        mapping = dict(zip(self.entries[term.name].params, term.args))
        mapping.update(zip((tp for tp, _ in sig.typeparams), names))
        return ([instantiate(p, mapping) for p in sig.params],
                instantiate(sig.ret, mapping),
                [(mapping[tp], instantiate(b, mapping))
                 for tp, b in sig.typeparams if b is not None])

    def constructor(self, term):
        """The parameter types of class type `term`'s constructor."""
        sig = MethodSig("new", [], self.entries[term.name].constructor, VOID)
        return self.instantiate_method(sig, term, ())[0]


# --- surface type resolution ----------------------------------------------


def qualified_names(entries):
    """Qualified name -> entry name, for imports and dotted written names."""
    return {e.qualified: name for name, e in entries.items()}


def resolve_src_type(src, table, scope=CLASS, fresh=None):
    """SrcType -> TypeTerm against view `table` in member `scope`.  A dotted
    name is a qualified name of the table, never a variable.  With `fresh`,
    `src` is the class of a `new`: it names no variable, and a diamond or raw
    class takes a `fresh()` term per type argument."""
    if src.name == "void" and fresh is None:
        return VOID
    if src.args is None and fresh is None:
        raise UnsupportedFeature(
            "diamond type outside 'new'", src.pos.line, src.pos.col)
    name = (qualified_names(table.entries).get(src.name) if "." in src.name
            else src.name)
    var = table.declared(src.name, scope)
    if var is not None:
        if fresh is not None:
            raise UnknownIdentifier(
                f"unknown class '{src.name}'", src.pos.line, src.pos.col)
        if src.args:
            raise ArityMismatch(
                f"type variable {name} takes no arguments",
                src.pos.line, src.pos.col)
        return var
    entry = table.entries.get(name)
    if entry is None:
        raise UnknownImport(
            f"unknown type '{src.name}'", src.pos.line, src.pos.col)
    if fresh is not None and not src.args:
        return ClassType(name, tuple(fresh() for _ in range(entry.arity)))
    args = tuple(resolve_src_type(a, table, scope) for a in src.args)
    if len(args) != entry.arity:
        raise ArityMismatch(
            f"{name} expects {entry.arity} type argument(s), got {len(args)}",
            src.pos.line, src.pos.col)
    return ClassType(name, args)


# --- table construction ----------------------------------------------------


def build_class_table(program, builtin_path=None):
    """Universe = built-ins reachable from imports and forced by occurring
    literals/operators/lambdas, then the generated entries of the function
    heads they force, by `fun_head_arity`, then the user classes, none of
    which may take a name `fun_head_arity` recognizes."""
    builtins = load_builtin_entries(builtin_path)
    by_qualified = qualified_names(builtins)

    wanted = {"Object"}

    def want(name):
        cur = name
        while cur is not None and cur not in wanted:
            wanted.add(cur)
            sup = builtins[cur].super_template
            cur = sup.name if isinstance(sup, ClassType) else None

    for imp in program.imports:
        short = by_qualified.get(imp)
        if short is None:
            raise UnknownImport(f"unresolvable import '{imp}'")
        want(short)

    occ = _scan_occurrences(program, by_qualified)
    for name in occ:
        if name in builtins:
            want(name)

    entries = {}
    for name, entry in builtins.items():
        if name in wanted:
            entries[name] = entry
    funs = [name for name in occ if fun_head_arity(name) is not None]
    for name in sorted(funs, key=fun_head_arity):
        entries[name] = _fun_entry(name)

    seen = set()
    user = []
    for cls in program.classes:
        if fun_head_arity(cls.name) is not None:
            raise UnsupportedFeature(f"class name '{cls.name}' is reserved "
                                     "for function types",
                                     cls.pos.line, cls.pos.col)
        if cls.name in seen or cls.name in entries:
            raise DuplicateClass(f"duplicate class '{cls.name}'",
                                 cls.pos.line, cls.pos.col)
        seen.add(cls.name)
        user.append(cls)

    table = ClassTable(entries)

    # user classes extend Object directly; a method whose every slot is
    # annotated is callable before its class is inferred (typed output
    # re-enters this way)
    for cls in user:
        entries[cls.name] = Entry(name=cls.name, qualified=cls.name,
                                  super_template=ClassType("Object"))
    for cls in user:
        entry = entries[cls.name]
        view = class_view(cls, table)
        entry.generics = [(v.name, b) for v, b in view.clause(CLASS)]
        for f in cls.fields:
            entry.fields[f.name] = (f.annotation and
                                    resolve_src_type(f.annotation, view))
        for i, m in enumerate(cls.methods):
            if m.ret is None or any(p.annotation is None for p in m.params):
                continue
            scope = ("method", i)
            params = [resolve_src_type(p.annotation, view, scope)
                      for p in m.params]
            ret = resolve_src_type(m.ret, view, scope)
            entry.methods.append(MethodSig(
                m.name, [*entry.generics, *((v.name, b) for v, b
                                            in view.clause(scope))],
                params, ret))
    return table


def class_view(cls, table):
    """The view of `table` for class `cls`, holding the declared variables
    of the class and then of each method.  A bound is resolved among the
    variables its member sees, all made first; an `Object` bound is none."""
    if not cls.generics and not any(m.generics for m in cls.methods):
        return table
    members = [(CLASS, cls.generics), *((("method", i), m.generics)
                                        for i, m in enumerate(cls.methods))]
    view = ClassTable(table.entries, {TypeVar(g.name, scope): None
                                      for scope, gs in members for g in gs},
                      table)
    for scope, gs in members:
        for g in gs:
            b = g.bound and resolve_src_type(g.bound, view, scope)
            view.typevars[TypeVar(g.name, scope)] = (
                None if b is ClassType("Object") else b)
    return view


def _fun_entry(name):
    """The generated entry of function-type head `name`: type parameters
    T1…TN, then R unless void; contravariant in each parameter, covariant
    in the return; one `apply`."""
    is_void, n = fun_head_arity(name)
    if n > MAX_FUN_ARITY:
        raise UnsupportedFeature(
            f"{name} has more than {MAX_FUN_ARITY} parameters")
    params = [f"T{i}" for i in range(1, n + 1)]
    ret = VOID if is_void else ClassType("R")
    return Entry(name=name, qualified=name,
                 params=params + ([] if is_void else ["R"]),
                 variance=[-1] * n + ([] if is_void else [1]),
                 super_template=ClassType("Object"),
                 methods=[MethodSig("apply", [],
                                    [ClassType(p) for p in params], ret)])


def _scan_occurrences(program, qualified):
    """Type names forced in by the constructs of `RULES`, written types,
    lambdas and `apply` calls: built-in names and function-type heads.  A
    dotted written name forces the class `qualified` maps it to."""
    forced = set()

    def visit(node):
        kind = type(node)
        if kind in RULES:
            forced.add(RULES[kind])
        elif kind is S.Binary:
            forced.update(FIXED_OPERATORS.get(node.op, ()))
        elif kind is S.SrcType:
            forced.add(qualified.get(node.name, node.name)
                       if "." in node.name else node.name)
        elif kind is S.Lambda or kind is S.Call and node.name == "apply":
            n = len(node.params if kind is S.Lambda else node.args)
            forced.update((f"Fun{n}$$", f"FunVoid{n}$$"))

    S.walk(program, visit)
    return forced
