"""Human-facing outputs: typed source, intersection-type reports and
method descriptors.

`name_solutions` is the only step that picks printed names: of a class's
declared variables, of its representative solution's placeholders and of
the other solutions' typings.  Every output reads the terms it returns."""

from __future__ import annotations

import copy
import itertools

from . import syntax as S
from .classtable import CLASS
from .errors import DescriptorCollision, Untypable
from .funtypes import descriptor_term
from .typeterms import (VOID, ClassType, TPH, TypeVar, instantiate,
                        substitute, tph_name)

_BUILTIN_ORDER = ["Integer", "Double", "String", "Boolean"]


class MethodTyping:
    """One member of a method's intersection type: `generics` is
    ((TPH/TypeVar, bound-term-or-None), ...), `params` a tuple of a
    TypeTerm per parameter and `ret` a TypeTerm.  A value, equal to and
    hashed as its three parts."""

    __slots__ = ("generics", "params", "ret", "_names")

    def __init__(self, generics, params, ret):
        self.generics, self.params, self.ret = generics, params, ret
        self._names = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.generics, self.params, self.ret)
                == (other.generics, other.params, other.ret))

    def __hash__(self):
        return hash((self.generics, self.params, self.ret))

    def names(self):
        """Placeholder names by first use: parameters, return, clause;
        made once, as naming and registration both read them."""
        if self._names is None:
            self._names = tuple(dict.fromkeys(
                n for x in (*self.params, self.ret,
                            *clause_terms(self.generics))
                for n in x.tphs))
        return self._names


def _map_typing(t, f):
    """Typing `t` with `f` applied to each of its terms."""
    return MethodTyping(tuple((f(v), b and f(b)) for v, b in t.generics),
                        tuple(map(f, t.params)), f(t.ret))


def type_rank(term):
    s = str(term)
    if s in _BUILTIN_ORDER:
        return (_BUILTIN_ORDER.index(s), s)
    return (len(_BUILTIN_ORDER), s)


def typing_sort_key(t):
    return tuple(type_rank(x) for x in t.params) + (type_rank(t.ret),)


def _canonical(t):
    """Typing `t` up to renaming (the dedup key): its parameters, its return
    and the clause pairs of the variables these reach through bounds, the
    placeholders numbered in order of reach; declared type variables keep
    their names.  A clause variable reached from neither, such as one of
    the method's locals, does not count."""
    bounds = dict(t.generics)
    reached = []

    def reach(term):
        for v in _heads(term):
            if v in bounds and v not in reached:
                reached.append(v)

    for x in (*t.params, t.ret):
        reach(x)
    for v in reached:  # grows while it is walked
        if bounds[v] is not None:
            reach(bounds[v])
    sigma = {v.name: TPH(f"#{i}") for i, v in enumerate(reached)
             if isinstance(v, TPH)}

    def canon(x):
        return str(substitute(x, sigma))

    return (tuple((canon(v), None if bounds[v] is None else canon(bounds[v]))
                  for v in reached),
            tuple(canon(x) for x in t.params), canon(t.ret))


def _heads(term):
    """The terms in `term`, left to right, each class type without its
    arguments."""
    if isinstance(term, ClassType) and term.args:
        yield ClassType(term.name)
        for a in term.args:
            yield from _heads(a)
    else:
        yield term


def clause_terms(clause):
    """The variables and bounds of a generics clause."""
    return [x for pair in clause for x in pair if x is not None]


def assemble_intersection_types(typings):
    """Deduplicate modulo renaming and order deterministically."""
    if not typings:
        raise Untypable("no typing survived")
    if len(typings) == 1:
        return typings
    seen = set()
    out = []
    for t in sorted(typings, key=typing_sort_key):
        key = _canonical(t)
        if key in seen:
            continue
        seen.add(key)
        out.append(t)
    return out


def format_typing(t):
    gens = ""
    if t.generics:
        parts = []
        for var, bound in t.generics:
            parts.append(str(var) if bound is None
                         else f"{var} extends {bound}")
        gens = "<" + ", ".join(parts) + "> "
    if len(t.params) == 1:
        head = str(t.params[0])
    else:
        head = "(" + ", ".join(str(p) for p in t.params) + ")"
    return f"{gens}{head} -> {t.ret}"


def signature_report(class_name, method_signatures):
    """`Class.method : t1 & t2` lines, one per method declaration."""
    lines = []
    for mname, typings in method_signatures:
        body = " & ".join(format_typing(t) for t in typings)
        lines.append(f"{class_name}.{mname} : {body}")
    return lines


# --- typed source ----------------------------------------------------------


def term_to_srctype(term):
    """The written form of `term`."""
    if term is VOID:
        return S.SrcType("void")
    if not isinstance(term, ClassType) or not term.args:
        return S.SrcType(str(term))
    return S.SrcType(term.name, [term_to_srctype(a) for a in term.args])


def canonical_renaming(names_in_order, reserved=(), classes=()):
    """First-use order renaming onto the alphabetic sequence A, B, …
    skipping any name in `reserved` (declared type variables) or in
    `classes` (class names, such as a class table's entries, which are
    only asked whether they hold a name)."""
    free = (name for name in map(tph_name, itertools.count())
            if name not in reserved and name not in classes)
    ren = {}
    for n in names_in_order:
        if n not in ren:
            ren[n] = next(free)
    return ren


def rename_apart(t, sigma, taken, classes):
    """Typing `t` renamed by `sigma` (name -> TPH) without capture.  A
    placeholder outside `sigma`'s domain keeps its name unless that name
    is `taken` (one `sigma` maps onto or a declared variable's) or a class
    of `classes`; then it takes the first name of the sequence A, B, …
    that is none of these and not in `t`."""
    names = t.names()
    clash = [n for n in names
             if n not in sigma and (n in taken or n in classes)]
    if clash:
        more = canonical_renaming(clash, taken.union(names), classes)
        sigma = {**sigma, **{n: TPH(m) for n, m in more.items()}}
    return _map_typing(t, lambda x: substitute(x, sigma))


def name_solutions(cls, rep, typings, classes, parts):
    """The printed names of class `cls`'s solutions: the representative
    `rep`, a `pipeline.SolvedClass`, named; per method the named typings
    of `typings`, which holds the method's typings in every solution, in
    output order, the representative's first; and `cls` with its declared
    variables' written names inside expressions renamed to match.
    `parts` holds the terms the solutions print besides: objects with
    `field_terms` and `local_terms`, which together with `rep` cover the
    fields and locals of every solution.  `classes` holds the table's
    class names; it is only asked whether it holds a name, so naming
    costs nothing per class of the table.  In order:

    (a) a declared variable whose member mentions, in some solution,
        another class or a class variable printing under its name takes
        the first of A, B, … that no declared variable and no class takes;
        a class variable's member is the whole class;
    (b) the representative's placeholders are named canonically, in order
        of first use, taking no declared variable's or class's name;
    (c) each typing of another solution is renamed apart from these."""
    declared = [v for clause in (rep.class_generics,
                                 *(t.generics for t in rep.methods))
                for v, _ in clause if isinstance(v, TypeVar)]
    hiders = _hiders(cls, rep, typings, parts, declared)
    ren = canonical_renaming([v.name for v in hiders],
                             set(map(str, declared)), classes)
    mapping = {v.name: TypeVar(ren[v.name], v.owner) for v in hiders}
    if mapping:
        def rename(x):
            return instantiate(x, mapping)

        rep = _map_solution(rep, rename)
        typings = [[_map_typing(t, rename) for t in ts] for ts in typings]
        cls = _rename_written(cls, {(v.source, v.owner): mapping[v.name].source
                                    for v in declared if v.name in mapping})
    reserved = {str(mapping.get(v.name, v)) for v in declared}

    order = [n for t in (*rep.field_terms.values(),
                         *clause_terms(rep.class_generics))
             for n in t.tphs]
    order += [n for t in rep.methods for n in t.names()]
    order += [n for t in rep.local_terms.values() for n in t.tphs]
    ren = canonical_renaming(order, reserved, classes)
    sigma = {old: TPH(new) for old, new in ren.items()}
    # fresh names are drawn in order of first use, so the renaming usually
    # keeps every name, and then the representative is named already
    if any(old != new for old, new in ren.items()):
        rep = _map_solution(rep, lambda x: substitute(x, sigma))
    taken = {*ren.values(), *reserved}
    typings = [[t, *(rename_apart(o, sigma, taken, classes) for o in ts[1:])]
               for t, ts in zip(rep.methods, typings)]
    return cls, rep, typings


def _map_solution(s, f):
    """Solution `s`, a `pipeline.SolvedClass`, with `f` applied to each of
    its terms."""
    return type(s)(tuple((f(v), b and f(b)) for v, b in s.class_generics),
                   {n: f(x) for n, x in s.field_terms.items()},
                   [_map_typing(t, f) for t in s.methods],
                   {u: f(x) for u, x in s.local_terms.items()})


def _hiders(cls, rep, typings, parts, declared):
    """The variables of `declared` whose member mentions, in some solution,
    another class or a class variable printing under its name; the whole
    class is a class variable's member.  The solutions' terms are those
    of `rep`, of the typings `typings` and of the fields and locals of
    `parts` (see `name_solutions`); the clauses' other terms are declared
    variables and bounds, which `rep` holds, and placeholders."""
    if not declared:
        return []
    uids = [[] for _ in cls.methods]   # the locals each method declares
    for i, m in enumerate(cls.methods):
        S.walk(m, lambda n: isinstance(n, S.LocalDecl)
               and uids[i].append(n.uid))
    sols = [rep, *parts]
    sigs = [[x for t in ts for x in (*t.params, t.ret,
                                     *clause_terms(t.generics))]
            for ts in typings]
    members = {("method", i): [*sig, *(s.local_terms[u] for s in sols
                                       for u in uids[i]
                                       if u in s.local_terms)]
               for i, sig in enumerate(sigs)}
    members[CLASS] = [*clause_terms(rep.class_generics),
                      *(x for s in sols for x in (*s.field_terms.values(),
                                                  *s.local_terms.values())),
                      *(x for sig in sigs for x in sig)]
    found = {v for v in declared for x in members[v.owner]
             for h in _heads(x)
             if h is not v and str(h) == str(v) and not isinstance(h, TPH)
             and (not isinstance(h, TypeVar) or h.owner == CLASS)}
    return [v for v in declared if v in found]


def _rename_written(cls, renamed):
    """A copy of ClassDecl `cls` whose written types name each declared
    variable as `renamed` ((source, owner) -> name) does; a member's own
    variable hides the class's, as `ClassTable.declared` has it."""
    cls = copy.deepcopy(cls)

    def rename(member, owner, own=()):
        def visit(node):
            if isinstance(node, S.SrcType):
                key = (node.name, owner if node.name in own else CLASS)
                node.name = renamed.get(key, node.name)

        S.walk(member, visit)

    for f in cls.fields:
        rename(f, CLASS)
    for i, m in enumerate(cls.methods):
        rename(m, ("method", i), {g.name for g in m.generics})
    return cls


def build_typed_class(cls, rep):
    """ClassDecl `cls` annotated (new AST) with the slot terms and generics
    clauses of `rep`, the class's representative `pipeline.SolvedClass` as
    `name_solutions` names it."""
    conv = term_to_srctype

    def gen_params(clause):
        return [S.GenericParam(str(v), bound and conv(bound))
                for v, bound in clause]

    fields = [S.FieldDecl(name=f.name, init=f.init, pos=f.pos,
                          annotation=conv(rep.field_terms[f.name]))
              for f in cls.fields]
    methods = [S.MethodDecl(
        name=m.name, generics=gen_params(t.generics), ret=conv(t.ret),
        params=[S.Param(p.name, conv(x)) for p, x in zip(m.params, t.params)],
        body=[_annotate_stmt(st, rep) for st in m.body], pos=m.pos)
        for m, t in zip(cls.methods, rep.methods)]
    return S.ClassDecl(name=cls.name, generics=gen_params(rep.class_generics),
                       fields=fields, methods=methods, pos=cls.pos)


def _annotate_stmt(st, rep):
    if isinstance(st, S.LocalDecl) and st.uid in rep.local_terms:
        return S.LocalDecl(name=st.name, init=st.init, pos=st.pos, uid=st.uid,
                           annotation=term_to_srctype(rep.local_terms[st.uid]))
    if isinstance(st, S.While):
        return S.While(cond=st.cond, pos=st.pos,
                       body=[_annotate_stmt(s, rep) for s in st.body])
    return st


# --- descriptors -----------------------------------------------------------


def method_descriptor(typing, table=None):
    args = "".join(descriptor_term(p, table) for p in typing.params)
    return f"({args}){descriptor_term(typing.ret, table)}"


def emit_descriptors(class_name, method_signatures, table=None):
    """`Class.method : (Largs;)Lret;` lines; the typings of one method name,
    deduplicated within each declaration, must map to pairwise distinct
    descriptors across the class's declarations of that name, as a JVM
    class cannot hold one method twice.  `table` gives qualified names;
    declared variables erase like placeholders."""
    lines = []
    seen = {}   # method name -> the descriptors of its typings so far
    for mname, typings in method_signatures:
        taken = seen.setdefault(mname, set())
        for t in typings:
            d = method_descriptor(t, table)
            if d in taken:
                raise DescriptorCollision(
                    f"{class_name}.{mname}: descriptor {d} is shared by "
                    f"distinct typings")
            taken.add(d)
            lines.append(f"{class_name}.{mname} : {d}")
    return lines
