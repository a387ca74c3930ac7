"""Human-facing outputs: typed source, intersection-type reports and
method descriptors."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import syntax as S
from .errors import DescriptorCollision, Untypable
from .funtypes import descriptor_term
from .typeterms import VOID, ClassType, TPH, substitute, tph_name, tphs_of

_BUILTIN_ORDER = ["Integer", "Double", "String", "Boolean"]


@dataclass(frozen=True)
class MethodTyping:
    """One member of a method's intersection type."""

    generics: tuple   # ((TPH/ClassType, bound-term-or-None), ...)
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
    """Typing with its placeholder generics renamed positionally (dedup
    modulo renaming); declared type variables stay as they are."""
    variables = {v for v, _ in t.generics}
    sigma = {n: TPH(f"#{i}") for i, n in enumerate(
        n for n in t.names() if TPH(n) in variables)}

    def canon(x):
        return str(substitute(x, sigma))

    return (tuple(sorted((canon(v), None if b is None else canon(b))
                         for v, b in t.generics)),
            tuple(canon(x) for x in t.params), canon(t.ret))


def clause_terms(clause):
    """The variables and bounds of a generics clause."""
    return [x for pair in clause for x in pair if x is not None]


def assemble_intersection_types(typings):
    """Deduplicate modulo renaming and order deterministically."""
    if not typings:
        raise Untypable("no typing survived")
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
    if term == VOID:
        return S.SrcType("void")
    if isinstance(term, TPH):
        return S.SrcType(term.name)
    return S.SrcType(term.name, [term_to_srctype(a) for a in term.args])


def canonical_renaming(names_in_order, reserved=()):
    """First-use order renaming onto the alphabetic sequence A, B, …
    skipping any name in `reserved` (declared type variables)."""
    free = (name for name in map(tph_name, itertools.count())
            if name not in reserved)
    ren = {}
    for n in names_in_order:
        if n not in ren:
            ren[n] = next(free)
    return ren


def build_typed_class(cls, rep):
    """ClassDecl `cls` annotated (new AST) with the slot terms and generics
    clauses of `rep`, the class's representative `pipeline.SolvedClass`,
    under canonical placeholder names."""

    order = [n for t in (*rep.field_terms.values(),
                         *clause_terms(rep.class_generics))
             for n in tphs_of(t)]
    order += [n for t in rep.methods for n in t.names()]
    order += [n for t in rep.local_terms.values() for n in tphs_of(t)]
    declared = {v.name for clause in (rep.class_generics,
                                      *(t.generics for t in rep.methods))
                for v, _ in clause if isinstance(v, ClassType)}
    ren = canonical_renaming(order, declared)
    sigma = {old: TPH(new) for old, new in ren.items()}

    def conv(term):
        return term_to_srctype(substitute(term, sigma))

    def gen_params(clause):
        return [S.GenericParam(conv(v).name,
                               None if bound is None else conv(bound))
                for v, bound in clause]

    fields = [
        S.FieldDecl(name=f.name, annotation=conv(rep.field_terms[f.name]),
                    init=f.init, pos=f.pos)
        for f in cls.fields
    ]
    methods = []
    for m, t in zip(cls.methods, rep.methods):
        params = [S.Param(p.name, conv(x)) for p, x in zip(m.params, t.params)]
        body = [_annotate_stmt(st, rep, conv) for st in m.body]
        methods.append(S.MethodDecl(
            name=m.name,
            generics=gen_params(t.generics),
            ret=conv(t.ret),
            params=params,
            body=body,
            pos=m.pos,
        ))
    typed = S.ClassDecl(
        name=cls.name,
        generics=gen_params(rep.class_generics),
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
    """`Class.method : (Largs;)Lret;` lines; typings of one declaration
    must map to pairwise distinct descriptors.  `table` is the class's
    view: the declared variables a method sees erase like placeholders."""
    lines = []
    for i, (mname, typings) in enumerate(method_signatures):
        scoped = table and table.member(("method", i))
        seen = {}
        for t in typings:
            d = method_descriptor(t, scoped)
            if d in seen and _canonical(seen[d]) != _canonical(t):
                raise DescriptorCollision(
                    f"{class_name}.{mname}: descriptor {d} is shared by "
                    f"distinct typings")
            seen[d] = t
            lines.append(f"{class_name}.{mname} : {d}")
    return lines
