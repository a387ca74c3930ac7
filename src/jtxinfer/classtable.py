"""Finite type universe and the declared subtype relation.

The built-in universe ships as `builtins.json`; `build_class_table` selects
the slice reachable from a program's imports plus everything its literals
and operators force in, generates a function-type entry for each
``FunN$$``/``FunVoidN$$`` head the program uses, and adds the user classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import (ArityMismatch, DuplicateClass, UnknownImport,
                     UnsupportedFeature)
from .typeterms import VOID, ClassType, TPH, fun_head_arity, instantiate
from . import syntax as S

# a JVM method takes at most 255 parameter slots, `this` among them
MAX_FUN_ARITY = 254

CLASS = ("class",)    # the scope of the class's own clause and fields


@dataclass
class MethodSig:
    name: str
    typeparams: list  # list[(name, bound TypeTerm | None)]
    params: list      # list[TypeTerm]
    ret: object       # TypeTerm


@dataclass
class Entry:
    name: str
    qualified: str = ""
    params: list = field(default_factory=list)
    variance: list = field(default_factory=list)
    super_template: object = None  # TypeTerm over ClassType(param) refs
    # list[MethodSig] templates; a user class holds its fully annotated
    # methods until the pipeline replaces them with the inferred typings
    methods: list = field(default_factory=list)
    fields: dict = field(default_factory=dict)    # name -> TypeTerm | None
    constructor: list = field(default_factory=list)

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
    generated (`_fun_entry`), never imported."""
    if path is None:
        data = json.loads(
            resources.files("jtxinfer").joinpath("builtins.json").read_text())
    else:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
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

    `clauses` maps member scopes, ``("class",)`` and then ``("method",
    i)``, to their declared generics clauses, ((name, bound or None), ...),
    as `class_view` resolves them.  `typevars` maps each declared name (a
    rigid type variable) to its bound.

    Each view caches `supertype_chain` per term.  A chain depends only on
    the entries' super templates and the view's `typevars`, and neither
    changes once a view is queried: `build_class_table` adds every entry
    before the first chain is walked, later writes (the pipeline's inferred
    typings and field types) touch only `methods` and `fields`, and every
    view has a cache of its own.
    """

    def __init__(self, entries, clauses=None):
        self.entries = entries
        self.clauses = clauses or {}
        self.typevars = {n: b for clause in self.clauses.values()
                         for n, b in clause}
        # member scope -> the declared names it sees: the class's, its own
        shared = {n for n, _ in self.clause(CLASS)}
        self._seen = {scope: shared | {n for n, _ in clause}
                      for scope, clause in self.clauses.items()}
        self._chains = {}     # term -> tuple, see `supertype_chain`

    # -- basic lookup -------------------------------------------------------

    def has(self, name):
        return name in self.entries or name in self.typevars

    def entry(self, name):
        return self.entries[name]

    def clause(self, scope):
        """The declared clause of member `scope`."""
        return self.clauses.get(scope, ())

    def in_scope(self, typevar, scope):
        """Whether member `scope` sees declared variable `typevar`."""
        return typevar in self._seen.get(scope, ())

    def member(self, scope):
        """The view of member `scope` alone: the variables it sees."""
        return ClassTable(self.entries,
                          {s: self.clause(s) for s in (CLASS, scope)})

    def is_typevar(self, term):
        return (isinstance(term, ClassType) and not term.args
                and term.name in self.typevars)

    # -- declared subtyping -------------------------------------------------

    def _instantiate(self, template, entry, args):
        return instantiate(template, dict(zip(entry.params, args)))

    def direct_supertype(self, term):
        """Instantiated direct supertype of a ClassType (a function type's
        is Object), or None."""
        if not isinstance(term, ClassType):
            return None
        if self.is_typevar(term):
            bound = self.typevars[term.name]
            return bound if bound is not None else ClassType("Object")
        entry = self.entries.get(term.name)
        if entry is None:
            return None
        if len(term.args) != entry.arity:
            raise ArityMismatch(
                f"{term.name} expects {entry.arity} type argument(s), "
                f"got {len(term.args)}")
        if entry.super_template is None:
            return None
        return self._instantiate(entry.super_template, entry, term.args)

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
            key = str(nxt)
            if key in seen:
                break
            seen.add(key)
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
        if a == b:
            return True
        if a == VOID or b == VOID:
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
            if v == 0 and x != y:
                return False
            if v < 0 and not self.is_subtype(y, x):
                return False
            if v > 0 and not self.is_subtype(x, y):
                return False
        return True

    def subtype_heads(self, name, scope):
        """Entry names whose supertype chain reaches `name` (incl. itself),
        in table order, plus the type variables below it that are in
        scope for member `scope`."""
        out = []
        for cand in self.entries:
            chain = self.supertype_chain(ClassType(
                cand, tuple(TPH(f"?{i}") for i in
                            range(self.entries[cand].arity))))
            if any(isinstance(t, ClassType) and t.name == name
                   for t in chain):
                out.append(cand)
        for tv in self.typevars:
            if not self.in_scope(tv, scope):
                continue
            chain = self.supertype_chain(ClassType(tv))
            if any(isinstance(t, ClassType) and t.name == name
                   for t in chain):
                out.append(tv)
        return out

    # -- member lookup ------------------------------------------------------

    def instantiated_methods(self, term, name, arity):
        """Method signatures named `name` with `arity` parameters on the
        ground class type `term`, instantiated with its type arguments."""
        if not isinstance(term, ClassType) or term.name not in self.entries:
            return []
        return [self.instantiate_method(sig, term)
                for sig in self.declared_methods(term.name, name, arity)]

    def declared_methods(self, cname, name, arity):
        """The signature templates named `name` with `arity` parameters
        that entry `cname` declares, in declaration order."""
        return [sig for sig in self.entries[cname].methods
                if sig.name == name and len(sig.params) == arity]

    def instantiate_method(self, sig, term):
        """Signature template `sig` of `term`'s entry with `term`'s type
        arguments in place of the entry's parameters."""
        entry = self.entries[term.name]
        inst = lambda t: (None if t is None else
                          self._instantiate(t, entry, term.args))
        return MethodSig(sig.name, [(tp, inst(b)) for tp, b in sig.typeparams],
                         [inst(p) for p in sig.params], inst(sig.ret))

    def classes_with_method(self, name, arity):
        """Entry names of universe types declaring `name`/`arity`."""
        return [ename for ename, entry in self.entries.items()
                if any(m.name == name and len(m.params) == arity
                       for m in entry.methods)]


# --- surface type resolution ----------------------------------------------


def resolve_src_type(src, table, scope=CLASS):
    """SrcType -> TypeTerm against view `table` in member `scope`."""
    if src.name == "void":
        return VOID
    if src.args is None:
        raise UnsupportedFeature(
            "diamond type outside 'new'", src.pos.line, src.pos.col)
    name = src.name.rsplit(".", 1)[-1]
    if table.in_scope(name, scope):
        if src.args:
            raise ArityMismatch(
                f"type variable {name} takes no arguments",
                src.pos.line, src.pos.col)
        return ClassType(name)
    entry = table.entries.get(name)
    if entry is None:
        raise UnknownImport(
            f"unknown type '{src.name}'", src.pos.line, src.pos.col)
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
    heads they force, by `fun_head_arity`, then the user classes."""
    builtins = load_builtin_entries(builtin_path)
    by_qualified = {e.qualified: e.name for e in builtins.values()}

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

    occ = _scan_occurrences(program)
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
                m.name, [*view.clause(CLASS), *view.clause(scope)],
                params, ret))
    return table


def class_view(cls, table):
    """The view of `table` for class `cls`, holding the declared clause of
    each member: the class and then each method.  A bound is resolved among
    the variables its member sees, and an `Object` bound is no bound."""
    generics = {CLASS: cls.generics}
    for i, m in enumerate(cls.methods):
        generics[("method", i)] = m.generics
    if not any(generics.values()):
        return table
    names = ClassTable(table.entries, {
        scope: tuple((g.name, None) for g in gs)
        for scope, gs in generics.items()})

    def bound(g, scope):
        b = g.bound and resolve_src_type(g.bound, names, scope)
        return None if b == ClassType("Object") else b

    return ClassTable(table.entries, {
        scope: tuple((g.name, bound(g, scope)) for g in gs)
        for scope, gs in generics.items()})


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


def _scan_occurrences(program):
    """Type names forced in by literals, operators, lambdas, `apply` calls
    and annotations: built-in names and function-type heads."""
    forced = set()

    def expr(e):
        if isinstance(e, S.IntLit):
            forced.add("Integer")
        elif isinstance(e, S.BoolLit):
            forced.add("Boolean")
        elif isinstance(e, S.StrLit):
            forced.add("String")
        elif isinstance(e, S.Binary):
            if e.op == "<=":
                forced.update(("Boolean", "Number"))
            elif e.op == "||":
                forced.add("Boolean")
            expr(e.left)
            expr(e.right)
        elif isinstance(e, S.Lambda):
            forced.add(f"Fun{len(e.params)}$$")
            forced.add(f"FunVoid{len(e.params)}$$")
            for p in e.params:
                src_type(p.annotation)
            if isinstance(e.body, list):
                for s in e.body:
                    stmt(s)
            elif e.body is not None:
                expr(e.body)
        elif isinstance(e, S.Call):
            if e.name == "apply":
                forced.add(f"Fun{len(e.args)}$$")
                forced.add(f"FunVoid{len(e.args)}$$")
            if e.recv is not None:
                expr(e.recv)
            for a in e.args:
                expr(a)
        elif isinstance(e, S.FieldAccess):
            expr(e.recv)
        elif isinstance(e, S.New):
            src_type(e.cls)
            for a in e.args:
                expr(a)

    def src_type(t):
        if t is None:
            return
        forced.add(t.name.rsplit(".", 1)[-1])
        for a in t.args or []:
            src_type(a)

    def stmt(s):
        if isinstance(s, S.LocalDecl):
            src_type(s.annotation)
            if s.init is not None:
                expr(s.init)
        elif isinstance(s, S.Assign):
            expr(s.target)
            expr(s.value)
        elif isinstance(s, S.Increment):
            forced.add("Integer")
            expr(s.target)
        elif isinstance(s, S.While):
            expr(s.cond)
            for b in s.body:
                stmt(b)
        elif isinstance(s, S.Return):
            if s.value is not None:
                expr(s.value)
        elif isinstance(s, S.ExprStmt):
            expr(s.expr)

    for cls in program.classes:
        for g in cls.generics:
            src_type(g.bound)
        for f in cls.fields:
            src_type(f.annotation)
            if f.init is not None:
                expr(f.init)
        for m in cls.methods:
            for g in m.generics:
                src_type(g.bound)
            src_type(m.ret)
            for p in m.params:
                src_type(p.annotation)
            for s in m.body:
                stmt(s)
    return forced
