"""Human-facing outputs: typed source, intersection-type reports and
method descriptors."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import syntax as S
from .errors import DescriptorCollision, Untypable
from .funtypes import descriptor_term
from .typeterms import (VOID, ClassType, FunType, TPH, instantiate,
                        substitute, tph_name, tphs_of)

_BUILTIN_ORDER = ["Integer", "Double", "String", "Boolean"]


@dataclass(frozen=True)
class MethodTyping:
    """One member of a method's intersection type."""

    generics: tuple   # ((name, bound-name-or-None), ...)
    params: tuple     # TypeTerm per parameter
    ret: object       # TypeTerm


def _type_rank(term):
    s = str(term)
    if s in _BUILTIN_ORDER:
        return (_BUILTIN_ORDER.index(s), s)
    return (len(_BUILTIN_ORDER), s)


def typing_sort_key(t):
    return tuple(_type_rank(x) for x in t.params) + (_type_rank(t.ret),)


def _canonical(t):
    """Typing with generics renamed positionally (dedup modulo renaming)."""
    order = []
    for p in t.params:
        for n in _term_names(p):
            if n not in order:
                order.append(n)
    for n in _term_names(t.ret):
        if n not in order:
            order.append(n)
    for name, bound in t.generics:
        for n in (name, bound):
            if n is not None and n not in order:
                order.append(n)
    names = {name for name, _ in t.generics}
    ren = {}
    for n in order:
        if n in names:
            ren[n] = f"#{len(ren)}"
    sigma = {k: TPH(v) for k, v in ren.items()}

    def sub(term):
        # type-variable references and placeholders both take the new names
        return substitute(instantiate(term, sigma), sigma)

    gens = tuple(sorted(
        (ren.get(name, name),
         None if bound is None else ren.get(bound, bound))
        for name, bound in t.generics))
    return (gens, tuple(str(sub(p)) for p in t.params), str(sub(t.ret)))


def _term_names(term):
    """Placeholder and type-variable names of a term, in order of use."""
    if isinstance(term, TPH) or (isinstance(term, ClassType)
                                 and not term.args):
        return [term.name]
    if isinstance(term, ClassType):
        return [n for a in term.args for n in _term_names(a)]
    if isinstance(term, FunType):
        return [n for a in (*term.args, term.ret) for n in _term_names(a)]
    return []


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
        for name, bound in t.generics:
            if bound is None or bound == "Object":
                parts.append(name)
            else:
                parts.append(f"{name} extends {bound}")
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
    if isinstance(term, FunType):
        args = [term_to_srctype(a) for a in term.args]
        if term.ret != VOID:
            args.append(term_to_srctype(term.ret))
        return S.SrcType(term.head, args)
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


@dataclass
class AnnotatedClass:
    """A class with every slot term resolved, ready for printing."""

    cls: object                      # original ClassDecl
    class_generics: list             # [(name, bound-or-None)]
    field_terms: dict                # field name -> TypeTerm
    method_generics: list            # per method: [(name, bound-or-None)]
    method_params: list              # per method: [TypeTerm]
    method_rets: list                # per method: TypeTerm
    local_terms: dict = field(default_factory=dict)  # LocalDecl uid -> term
    reserved: set = field(default_factory=set)       # declared type variables


def build_typed_class(ann):
    """Annotated ClassDecl (new AST) with canonical placeholder names."""
    order = []

    def note(term):
        if isinstance(term, str):
            if term not in ann.reserved and term not in order:
                order.append(term)
            return
        for n in tphs_of(term):
            if n not in order:
                order.append(n)

    for t in ann.field_terms.values():
        note(t)
    for name, bound in ann.class_generics:
        note(name)
        if bound is not None:
            note(bound)
    for i, m in enumerate(ann.cls.methods):
        for t in ann.method_params[i]:
            note(t)
        note(ann.method_rets[i])
        for name, bound in ann.method_generics[i]:
            note(name)
            if bound is not None:
                note(bound)
    for t in ann.local_terms.values():
        note(t)

    ren = canonical_renaming(order, ann.reserved)
    sigma = {old: TPH(new) for old, new in ren.items()}

    def conv(term):
        return term_to_srctype(substitute(term, sigma))

    def gen_params(pairs, terms_in_order):
        # declaration order follows first use within the member
        local_order = []
        for t in terms_in_order:
            for n in tphs_of(t):
                if n not in local_order:
                    local_order.append(n)
        for name, _ in pairs:
            if name not in local_order:
                local_order.append(name)
        for _, bound in pairs:
            if bound is not None and bound not in local_order:
                local_order.append(bound)
        by_name = dict(pairs)
        out = []
        for n in local_order:
            if n not in by_name:
                continue
            bound = by_name[n]
            bound_src = (None if bound is None or bound == "Object"
                         else S.SrcType(ren.get(bound, bound)))
            out.append(S.GenericParam(ren.get(n, n), bound_src))
        return out

    fields = [
        S.FieldDecl(name=f.name, annotation=conv(ann.field_terms[f.name]),
                    init=f.init, pos=f.pos)
        for f in ann.cls.fields
    ]
    methods = []
    for i, m in enumerate(ann.cls.methods):
        params = [S.Param(p.name, conv(t))
                  for p, t in zip(m.params, ann.method_params[i])]
        body = [_annotate_stmt(st, ann, conv) for st in m.body]
        sig_terms = list(ann.method_params[i]) + [ann.method_rets[i]]
        methods.append(S.MethodDecl(
            name=m.name,
            generics=gen_params(ann.method_generics[i], sig_terms),
            ret=conv(ann.method_rets[i]),
            params=params,
            body=body,
            pos=m.pos,
        ))
    class_order_terms = [ann.field_terms[f.name] for f in ann.cls.fields]
    typed = S.ClassDecl(
        name=ann.cls.name,
        generics=gen_params(ann.class_generics, class_order_terms),
        fields=fields,
        methods=methods,
        pos=ann.cls.pos,
    )
    return typed, ren


def _annotate_stmt(st, ann, conv):
    if isinstance(st, S.LocalDecl):
        term = ann.local_terms.get(st.uid)
        annotation = conv(term) if term is not None else st.annotation
        return S.LocalDecl(name=st.name, annotation=annotation,
                           init=st.init, pos=st.pos, uid=st.uid)
    if isinstance(st, S.While):
        return S.While(cond=st.cond,
                       body=[_annotate_stmt(s, ann, conv) for s in st.body],
                       pos=st.pos, uid=st.uid)
    return st


# --- descriptors -----------------------------------------------------------


def method_descriptor(typing, table=None):
    args = "".join(descriptor_term(p, table) for p in typing.params)
    return f"({args}){descriptor_term(typing.ret, table)}"


def emit_descriptors(class_name, method_signatures, table=None):
    """`Class.method : (Largs;)Lret;` lines; typings of one declaration
    must map to pairwise distinct descriptors."""
    lines = []
    for mname, typings in method_signatures:
        seen = {}
        for t in typings:
            d = method_descriptor(t, table)
            if d in seen and _canonical(seen[d]) != _canonical(t):
                raise DescriptorCollision(
                    f"{class_name}.{mname}: descriptor {d} is shared by "
                    f"distinct typings")
            seen[d] = t
            lines.append(f"{class_name}.{mname} : {d}")
    return lines
