"""Finite type universe and the declared subtype relation.

The built-in universe ships as `builtins.json`; `build_class_table` selects
the slice reachable from a program's imports plus everything its literals
and operators force in, and adds the user classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import (ArityMismatch, DuplicateClass, UnknownImport,
                     UnsupportedFeature)
from .typeterms import (VOID, ClassType, FunType, TPH, fun_head_arity,
                        fun_type, instantiate)
from . import syntax as S


@dataclass
class MethodSig:
    name: str
    typeparams: list  # list[(name, bound TypeTerm | None)]
    params: list      # list[TypeTerm | None]; None = not yet inferred
    ret: object       # TypeTerm | None


@dataclass
class Entry:
    name: str
    qualified: str = ""
    params: list = field(default_factory=list)
    variance: list = field(default_factory=list)
    super_template: object = None  # TypeTerm over ClassType(param) refs
    methods: list = field(default_factory=list)   # list[MethodSig] templates
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
    """Ordered dict of built-in entries from the bundled (or given) table."""
    if path is None:
        data = json.loads(
            resources.files("jtxinfer").joinpath("builtins.json").read_text())
    else:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    entries = {}
    for raw in data["classes"]:
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

    `typevars` maps declared generic names (rigid type variables of the
    compilation scope) to their bound terms; `extend_typevars` returns a
    widened view for checking annotated inputs.
    """

    def __init__(self, entries, typevars=None, inferred=None):
        self.entries = entries
        self.typevars = dict(typevars or {})
        # class name -> method name -> list of inferred typings
        # (typeparams, param terms, ret term); filled by the pipeline
        self.inferred = inferred if inferred is not None else {}

    # -- basic lookup -------------------------------------------------------

    def has(self, name):
        return name in self.entries or name in self.typevars

    def entry(self, name):
        return self.entries[name]

    def extend_typevars(self, tvars):
        merged = dict(self.typevars)
        merged.update(tvars)
        return ClassTable(self.entries, merged, self.inferred)

    def is_typevar(self, term):
        return (isinstance(term, ClassType) and not term.args
                and term.name in self.typevars)

    def register_inferred(self, clsname, methodname, typing):
        self.inferred.setdefault(clsname, {}).setdefault(
            methodname, []).append(typing)

    # -- declared subtyping -------------------------------------------------

    def _instantiate(self, template, entry, args):
        return instantiate(template, dict(zip(entry.params, args)))

    def direct_supertype(self, term):
        """Instantiated direct supertype of a ClassType/FunType, or None."""
        if isinstance(term, FunType):
            return ClassType("Object")
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
        """Term followed by its instantiated supertypes up to Object."""
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
        if isinstance(a, FunType) and isinstance(b, FunType):
            if a.arity != b.arity or (a.ret == VOID) != (b.ret == VOID):
                return False
            if not all(self.is_subtype(bb, aa)
                       for aa, bb in zip(a.args, b.args)):
                return False
            return a.ret == VOID or self.is_subtype(a.ret, b.ret)
        if isinstance(a, FunType) or isinstance(b, FunType):
            return False
        if not (isinstance(a, ClassType) and isinstance(b, ClassType)):
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

    def subtype_heads(self, name):
        """Entry names whose supertype chain reaches `name` (incl. itself),
        in table order, plus in-scope type variables below it."""
        out = []
        for cand in self.entries:
            chain = self.supertype_chain(ClassType(
                cand, tuple(TPH(f"?{i}") for i in
                            range(self.entries[cand].arity))))
            if any(isinstance(t, ClassType) and t.name == name
                   for t in chain):
                out.append(cand)
        for tv in self.typevars:
            chain = self.supertype_chain(ClassType(tv))
            if any(isinstance(t, ClassType) and t.name == name
                   for t in chain):
                out.append(tv)
        return out

    # -- member lookup ------------------------------------------------------

    def instantiated_methods(self, term, name, arity):
        """Method signatures named `name` with `arity` parameters on the
        ground class type `term`, instantiated with its type arguments.

        For user classes, pipeline-registered inferred typings take
        precedence over (possibly incomplete) declared signatures.
        """
        if not isinstance(term, ClassType):
            return []
        entry = self.entries.get(term.name)
        if entry is None:
            return []
        out = []
        inferred = self.inferred.get(term.name, {}).get(name)
        if inferred:
            for (tps, params, ret) in inferred:
                if len(params) == arity:
                    out.append(MethodSig(name, list(tps), list(params), ret))
            return out
        for sig in entry.methods:
            if sig.name != name or len(sig.params) != arity:
                continue
            inst = lambda t: (None if t is None else
                              self._instantiate(t, entry, term.args))
            out.append(MethodSig(
                name,
                [(tp, inst(b)) for tp, b in sig.typeparams],
                [inst(p) for p in sig.params],
                inst(sig.ret),
            ))
        return out

    def classes_with_method(self, name, arity):
        """Entry names of universe types declaring `name`/`arity`."""
        out = []
        for ename, entry in self.entries.items():
            sigs = [m for m in entry.methods
                    if m.name == name and len(m.params) == arity]
            if not sigs and ename in self.inferred:
                sigs = [t for t in self.inferred[ename].get(name, [])
                        if len(t[1]) == arity]
            if sigs:
                out.append(ename)
        return out


# --- surface type resolution ----------------------------------------------


def resolve_src_type(src, table, generic_scope=()):
    """SrcType -> TypeTerm against a table and the enclosing generic names."""
    if src.name == "void":
        return VOID
    if src.args is None:
        raise UnsupportedFeature(
            "diamond type outside 'new'", src.pos.line, src.pos.col)
    name = src.name.rsplit(".", 1)[-1]
    fh = fun_head_arity(name)
    if fh is not None:
        is_void, n = fh
        args = [resolve_src_type(a, table, generic_scope) for a in src.args]
        want = n if is_void else n + 1
        if len(args) != want:
            raise ArityMismatch(
                f"{name} expects {want} type argument(s)",
                src.pos.line, src.pos.col)
        return fun_type(is_void, args)
    if name in generic_scope or table.is_typevar(ClassType(name)):
        if src.args:
            raise ArityMismatch(
                f"type variable {name} takes no arguments",
                src.pos.line, src.pos.col)
        return ClassType(name)
    entry = table.entries.get(name)
    if entry is None:
        raise UnknownImport(
            f"unknown type '{src.name}'", src.pos.line, src.pos.col)
    args = tuple(resolve_src_type(a, table, generic_scope) for a in src.args)
    if len(args) != entry.arity:
        raise ArityMismatch(
            f"{name} expects {entry.arity} type argument(s), got {len(args)}",
            src.pos.line, src.pos.col)
    return ClassType(name, args)


# --- table construction ----------------------------------------------------


def build_class_table(program, builtin_path=None):
    """Universe = built-ins reachable from imports and forced by occurring
    literals/operators/lambdas, plus the user classes."""
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

    seen = set()
    user = []
    for cls in program.classes:
        if cls.name in seen or cls.name in entries:
            raise DuplicateClass(f"duplicate class '{cls.name}'",
                                 cls.pos.line, cls.pos.col)
        seen.add(cls.name)
        user.append(cls)

    table = ClassTable(entries)

    # user classes extend Object directly; declared member signatures are
    # resolved where annotations permit (used when re-checking typed output)
    for cls in user:
        entries[cls.name] = Entry(name=cls.name, qualified=cls.name,
                                  super_template=ClassType("Object"))
    for cls in user:
        entry = entries[cls.name]
        cls_scope = {g.name for g in cls.generics}
        entry.params = []
        for f in cls.fields:
            if f.annotation is not None:
                entry.fields[f.name] = resolve_src_type(
                    f.annotation, table, cls_scope)
            else:
                entry.fields[f.name] = None
        for m in cls.methods:
            m_scope = cls_scope | {g.name for g in m.generics}
            tps = []
            for g in cls.generics + m.generics:
                bound = (resolve_src_type(g.bound, table, m_scope)
                         if g.bound is not None else None)
                tps.append((g.name, bound))
            params = [
                (resolve_src_type(p.annotation, table, m_scope)
                 if p.annotation is not None else None)
                for p in m.params
            ]
            ret = (resolve_src_type(m.ret, table, m_scope)
                   if m.ret is not None else None)
            entry.methods.append(MethodSig(m.name, tps, params, ret))
    return table


def _scan_occurrences(program):
    """Built-in type names forced in by literals, operators and lambdas."""
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
