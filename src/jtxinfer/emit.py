"""Human-facing outputs: typed source, intersection-type reports and
method descriptors."""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

from . import syntax as S
from .errors import DescriptorCollision, Untypable
from .funtypes import descriptor_term
from .typeterms import (VOID, ClassType, TPH, TypeVar, instantiate,
                        substitute, tph_name, tphs_of)

_BUILTIN_ORDER = ["Integer", "Double", "String", "Boolean"]


@dataclass(frozen=True)
class MethodTyping:
    """One member of a method's intersection type."""

    generics: tuple   # ((TPH/TypeVar, bound-term-or-None), ...)
    params: tuple     # TypeTerm per parameter
    ret: object       # TypeTerm

    def names(self):
        """Placeholder names by first use: parameters, return, clause."""
        return list(dict.fromkeys(
            n for x in (*self.params, self.ret, *clause_terms(self.generics))
            for n in tphs_of(x)))


def rename_typing(t, sigma):
    """`t` with its placeholders renamed by `sigma` (name -> TPH)."""
    return MethodTyping(
        tuple((substitute(v, sigma), b and substitute(b, sigma))
              for v, b in t.generics),
        tuple(substitute(p, sigma) for p in t.params), substitute(t.ret, sigma))


def _type_rank(term):
    s = str(term)
    if s in _BUILTIN_ORDER:
        return (_BUILTIN_ORDER.index(s), s)
    return (len(_BUILTIN_ORDER), s)


def typing_sort_key(t):
    return tuple(_type_rank(x) for x in t.params) + (_type_rank(t.ret),)


def _canonical(t):
    """Typing `t` up to renaming (the dedup key): its parameters, its return
    and the clause pairs of the variables these reach through bounds, the
    placeholders numbered in order of reach; declared type variables keep
    their names.  A clause variable reached from neither, such as one of
    the method's locals, does not count."""
    bounds = dict(t.generics)
    reached = []

    def reach(term):
        for v in _leaves(term):
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


def _leaves(term):
    """The terms without arguments in `term`, left to right."""
    if isinstance(term, ClassType) and term.args:
        for a in term.args:
            yield from _leaves(a)
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


def term_to_srctype(term, names=None):
    """The written form of `term`; `names` maps a class name to the name it
    is written with instead, the qualified one where a declared variable
    hides it."""
    if term is VOID:
        return S.SrcType("void")
    if (not isinstance(term, ClassType) or not (term.args or names)
            or isinstance(term, TypeVar)):
        return S.SrcType(str(term))
    return S.SrcType(names.get(term.name, term.name) if names else term.name,
                     [term_to_srctype(a, names) for a in term.args])


def canonical_renaming(names_in_order, reserved=()):
    """First-use order renaming onto the alphabetic sequence A, B, …
    skipping any name in `reserved` (declared type variables, classes)."""
    free = (name for name in map(tph_name, itertools.count())
            if name not in reserved)
    ren = {}
    for n in names_in_order:
        if n not in ren:
            ren[n] = next(free)
    return ren


def rename_apart(t, sigma, taken):
    """Typing `t` renamed by `sigma` (name -> TPH) without capture.  A
    placeholder outside `sigma`'s domain keeps its name unless that name
    is `taken` (one `sigma` maps onto, a declared variable's or a class's);
    then it takes the first name of the sequence A, B, … that is neither
    taken nor in `t`."""
    names = t.names()
    clash = [n for n in names if n not in sigma and n in taken]
    if clash:
        more = canonical_renaming(clash, taken.union(names))
        sigma = {**sigma, **{n: TPH(m) for n, m in more.items()}}
    return rename_typing(t, sigma)


def declared_names(rep):
    """The names of the declared variables of `rep`'s class and methods."""
    return {str(v) for clause in (rep.class_generics,
                                  *(t.generics for t in rep.methods))
            for v, _ in clause if isinstance(v, TypeVar)}


def _declared(clause):
    """The names of the declared variables of a generics clause."""
    return {str(v) for v, _ in clause if isinstance(v, TypeVar)}


def _mentions(term, var):
    return any(leaf is var for leaf in _leaves(term))


def _local_uids(method):
    """The uids of the locals a method declares."""
    uids = []

    def visit(node):
        if isinstance(node, S.LocalDecl):
            uids.append(node.uid)

    S.walk(method, visit)
    return uids


def unshadow(cls, solved, classes=()):
    """The solutions `solved` of class `cls` (each a `pipeline.SolvedClass`)
    with each method variable renamed that hides a class variable which
    the method's typing or one of its locals mentions in some solution; the
    new name is the first of A, B, … that no declared variable of the class
    and none of `classes` takes.  A declared variable is a term of its
    member, so the rename changes only names, and the typed output can name
    both variables."""
    hidden = {str(v): v for v, _ in solved[0].class_generics
              if isinstance(v, TypeVar)}
    if not hidden:
        return solved
    taken = {*declared_names(solved[0]), *classes}
    free = (n for n in map(tph_name, itertools.count()) if n not in taken)
    mapping = {}
    for i, m in enumerate(cls.methods):
        uids = _local_uids(m)
        for s in solved:
            t = s.methods[i]
            terms = [*t.params, t.ret, *clause_terms(t.generics),
                     *(s.local_terms[u] for u in uids if u in s.local_terms)]
            for v, _ in t.generics:
                var = hidden.get(str(v)) if isinstance(v, TypeVar) else None
                if (v.name not in mapping and var is not None
                        and any(_mentions(x, var) for x in terms)):
                    mapping[v.name] = TypeVar(next(free), v.owner)
    if not mapping:
        return solved

    def rename(term):
        return term and instantiate(term, mapping)

    return [dataclasses.replace(
        s, methods=[MethodTyping(tuple((rename(v), rename(b))
                                       for v, b in t.generics),
                                 tuple(map(rename, t.params)), rename(t.ret))
                    for t in s.methods],
        local_terms={u: rename(x) for u, x in s.local_terms.items()})
        for s in solved]


def build_typed_class(cls, rep, classes=()):
    """ClassDecl `cls` annotated (new AST) with the slot terms and generics
    clauses of `rep`, the class's representative `pipeline.SolvedClass`,
    under canonical placeholder names; a name takes neither a declared
    variable's name nor one of `classes`.  A class that a declared
    variable of the member hides is written with its qualified name, which
    `classes` (name -> `classtable.Entry`) gives."""

    order = [n for t in (*rep.field_terms.values(),
                         *clause_terms(rep.class_generics))
             for n in tphs_of(t)]
    order += [n for t in rep.methods for n in t.names()]
    order += [n for t in rep.local_terms.values() for n in tphs_of(t)]
    declared = declared_names(rep)
    ren = canonical_renaming(order, {*declared, *classes})
    sigma = {old: TPH(new) for old, new in ren.items()}
    hiding = any(n in classes for n in declared)

    def converter(*clauses):
        """`conv` of a member that sees the declared variables of
        `clauses`."""
        names = hiding and {n: classes[n].qualified for clause in clauses
                            for n in _declared(clause) if n in classes}

        def conv(term):
            return term_to_srctype(substitute(term, sigma), names)
        return conv

    def gen_params(clause, conv):
        return [S.GenericParam(conv(v).name,
                               None if bound is None else conv(bound))
                for v, bound in clause]

    conv = converter(rep.class_generics)
    fields = [
        S.FieldDecl(name=f.name, annotation=conv(rep.field_terms[f.name]),
                    init=f.init, pos=f.pos)
        for f in cls.fields
    ]
    methods = []
    for m, t in zip(cls.methods, rep.methods):
        mconv = converter(rep.class_generics, t.generics) if hiding else conv
        params = [S.Param(p.name, mconv(x))
                  for p, x in zip(m.params, t.params)]
        body = [_annotate_stmt(st, rep, mconv) for st in m.body]
        methods.append(S.MethodDecl(
            name=m.name,
            generics=gen_params(t.generics, mconv),
            ret=mconv(t.ret),
            params=params,
            body=body,
            pos=m.pos,
        ))
    typed = S.ClassDecl(
        name=cls.name,
        generics=gen_params(rep.class_generics, conv),
        fields=fields,
        methods=methods,
        pos=cls.pos,
    )
    return typed, ren


def _annotate_stmt(st, rep, conv):
    if isinstance(st, S.LocalDecl):
        term = rep.local_terms.get(st.uid)
        annotation = conv(term) if term is not None else st.annotation
        return S.LocalDecl(name=st.name, annotation=annotation,
                           init=st.init, pos=st.pos, uid=st.uid)
    if isinstance(st, S.While):
        return S.While(cond=st.cond,
                       body=[_annotate_stmt(s, rep, conv) for s in st.body],
                       pos=st.pos)
    return st


# --- descriptors -----------------------------------------------------------


def method_descriptor(typing, table=None):
    args = "".join(descriptor_term(p, table) for p in typing.params)
    return f"({args}){descriptor_term(typing.ret, table)}"


def emit_descriptors(class_name, method_signatures, table=None):
    """`Class.method : (Largs;)Lret;` lines; the typings of one declaration,
    deduplicated, must map to pairwise distinct descriptors.  `table` gives
    qualified names; declared variables erase like placeholders."""
    lines = []
    for mname, typings in method_signatures:
        seen = set()
        for t in typings:
            d = method_descriptor(t, table)
            if d in seen:
                raise DescriptorCollision(
                    f"{class_name}.{mname}: descriptor {d} is shared by "
                    f"distinct typings")
            seen.add(d)
            lines.append(f"{class_name}.{mname} : {d}")
    return lines
