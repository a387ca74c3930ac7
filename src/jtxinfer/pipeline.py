"""End-to-end driver: parse -> constraints -> unify -> generalize -> emit.

Classes are processed in declaration order; the typings inferred for a
class are registered in the table so later classes can call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import emit as E
from .classtable import build_class_table, resolve_src_type
from .constraints import CallSite, flatten, generate_constraints
from .errors import Untypable
from .generics import (CLASS, OBJECT, build_fgg, complete_fgg,
                       compute_owners, enforce_java_conformance,
                       format_generics, member_tph_sets)
from .funtypes import (collect_used_funtypes, fun_interface_hierarchy,
                       render_manifest)
from .parser import parse
from .syntax import Program, print_program
from .typeterms import VOID, ClassType, TPH, is_ground, substitute, tphs_of
from .unify import format_solution, unify

DUMP_STAGES = ("constraints", "solutions", "generics")


@dataclass
class SolvedClass:
    """One surviving solution for a class, after generalization."""

    sigma: dict                 # name -> term (placeholder substitution)
    remaining: tuple
    family: dict                # owner -> {(name, bound-name)}
    owners: dict
    field_terms: dict           # field name -> term
    method_params: list
    method_rets: list
    local_terms: dict


@dataclass
class ClassResult:
    cls: object
    typed_cls: object            # annotated ClassDecl (representative)
    signatures: list             # [(method name, [MethodTyping])]
    used_terms: list = field(default_factory=list)
    remainings: list = field(default_factory=list)  # per surviving solution


@dataclass
class PipelineResult:
    program: object
    table: object
    class_results: list
    dumps: dict = field(default_factory=dict)

    @property
    def typed_classes(self):
        return [r.typed_cls for r in self.class_results]


def run_source(src, table_path=None, max_solutions=None, dump_stages=()):
    program = parse(src)
    table = build_class_table(program, table_path)
    dumps = {s: [] for s in dump_stages}
    results = []
    for cls in program.classes:
        results.append(_infer_class(cls, table, max_solutions, dumps))
    return PipelineResult(program=program, table=table,
                          class_results=results,
                          dumps={k: "\n".join(v) for k, v in dumps.items()})


def _infer_class(cls, table, max_solutions, dumps):
    scoped = table
    declared = list(cls.generics) + [g for m in cls.methods
                                     for g in m.generics]
    if declared:
        names = {g.name for g in declared}
        tvars = {}
        for g in declared:
            bound = (resolve_src_type(g.bound, table, names)
                     if g.bound is not None else ClassType("Object"))
            tvars[g.name] = bound
        scoped = table.extend_typevars(tvars)
    gen = generate_constraints(cls, scoped)
    solved = []
    for cand in flatten(gen, scoped):
        if "constraints" in dumps:
            dumps["constraints"].append(
                f"# {cls.name} candidate {cand.choice}")
            dumps["constraints"].extend(str(c) for c in cand.constraints)
        fresh = gen.fresh.clone()
        for sol in unify(cand.constraints, scoped, fresh,
                         max_solutions=max_solutions):
            if "solutions" in dumps:
                dumps["solutions"].append(f"# {cls.name}")
                dumps["solutions"].append(format_solution(sol))
            solved.append(_Solved(sol.sigma_dict(), set(sol.remaining),
                                  cand, fresh.clone(), gen))
    for s in solved:
        s.normalize()
    solved = _dedup(solved)
    solved = _minimal(solved, scoped)
    if not solved:
        raise Untypable(f"class {cls.name} has no typing")
    finished = [s.generalize(scoped, dumps) for s in solved]
    return _assemble(cls, gen, finished, scoped)


class _Solved:
    """Working state for one unifier solution of one candidate."""

    def __init__(self, sigma, remaining, cand, fresh, gen):
        self.sigma = sigma
        self.remaining = remaining
        self.cand = cand
        self.fresh = fresh
        self.gen = gen

    def term(self, t):
        return substitute(t, self.sigma)

    def slot_groups(self):
        gen = self.gen
        groups = []
        class_terms = [self.term(t) for t in gen.field_terms.values()]
        method_terms = {i: [] for i in range(len(gen.methods))}
        for (uid, _i), t in gen.lambda_param_terms.items():
            scope = gen.fresh.scope_of(t.name) if isinstance(t, TPH) else None
            if scope is not None and scope[0] == "method":
                method_terms[scope[1]].append(self.term(t))
            else:
                class_terms.append(self.term(t))
        groups.append((CLASS, class_terms))
        for i, m in enumerate(gen.methods):
            terms = [self.term(t) for t in m.param_terms]
            terms.append(self.term(m.ret_term))
            terms.extend(self.term(t) for t in m.local_terms.values())
            terms.extend(method_terms[i])
            groups.append((("method", i), terms))
        return groups

    def normalize(self):
        """Bind method-owned placeholders that sit above a field placeholder
        in `remaining` to that field placeholder."""
        while True:
            owners = compute_owners(self.slot_groups())
            pick = None
            for (l, r) in sorted(self.remaining):
                ol, orr = owners.get(l), owners.get(r)
                if ol == CLASS and orr is not None and orr[0] == "method":
                    pick = (r, l)
                    break
            if pick is None:
                return
            old, new = pick
            one = {old: TPH(new)}
            self.sigma = {k: substitute(v, one) for k, v in self.sigma.items()}
            self.sigma[old] = TPH(new)
            self.remaining = {
                (new if a == old else a, new if b == old else b)
                for (a, b) in self.remaining
                if (new if a == old else a) != (new if b == old else b)}

    def key(self):
        return (tuple(sorted(self.remaining)),
                tuple(str(t) for _, ts in self.slot_groups() for t in ts))

    def generalize(self, table, dumps):
        gen = self.gen
        groups = self.slot_groups()
        owners = compute_owners(groups)
        members = member_tph_sets(groups, owners)
        fgg = build_fgg(sorted(self.remaining), owners, members)
        sites = [CallSite(caller=s.caller,
                          arg_terms=[self.term(t) for t in s.arg_terms],
                          param_terms=[self.term(t) for t in s.param_terms],
                          ret_term=self.term(s.ret_term),
                          callee=s.callee)
                 for s in self.cand.call_sites]
        cfgg = complete_fgg(fgg, sorted(self.remaining), owners,
                            members, sites)
        family, h = enforce_java_conformance(cfgg, self.fresh, owners)
        hmap = {old: TPH(new) for old, new in h.items()}

        def final(t):
            return substitute(self.term(t), hmap)

        # every placeholder still visible in a declaration slot needs an
        # entry in its member's generics clause, even if the collapse
        # removed all of its bound pairs
        fgroups = [(owner, [substitute(t, hmap) for t in terms])
                   for owner, terms in groups]
        fowners = compute_owners(fgroups)
        for owner, names in member_tph_sets(fgroups, fowners).items():
            fam = family.setdefault(owner, set())
            bounded = {l for l, _ in fam}
            for n in sorted(names):
                if n not in bounded:
                    fam.add((n, OBJECT))

        if "generics" in dumps:
            dumps["generics"].append(f"# {gen.cls.name}")
            dumps["generics"].append(format_generics(
                family, [CLASS] + [("method", i)
                                   for i in range(len(gen.methods))]))

        return SolvedClass(
            sigma=self.sigma,
            remaining=tuple(sorted(self.remaining)),
            family=family,
            owners=owners,
            field_terms={n: final(t) for n, t in gen.field_terms.items()},
            method_params=[[final(t) for t in m.param_terms]
                           for m in gen.methods],
            method_rets=[final(m.ret_term) for m in gen.methods],
            local_terms={uid: final(t)
                         for m in gen.methods
                         for uid, t in m.local_terms.items()},
        )


def _dedup(solved):
    seen = set()
    out = []
    for s in solved:
        k = s.key()
        if k in seen:
            continue
        seen.add(k)
        out.append(s)
    return out


def _atomic(t):
    return (isinstance(t, ClassType) and not t.args) or t == VOID


def _minimal(solved, table):
    """Among fully resolved solutions keep the ones whose placeholder
    assignments are pointwise minimal in the subtype order.  Comparison
    happens at atomic positions only (composite terms are determined by
    the atomic bindings); symbolic solutions are kept as-is."""
    ground = [s for s in solved if not s.remaining]
    symbolic = [s for s in solved if s.remaining]

    def below(b, a):
        """b strictly below a pointwise."""
        if set(b.sigma) != set(a.sigma):
            return False
        strict = False
        for k, va in a.sigma.items():
            vb = b.sigma[k]
            if vb == va:
                continue
            if not (_atomic(va) and _atomic(vb)):
                continue  # composite terms are determined by atomic entries
            if is_ground(va) and is_ground(vb) and table.is_subtype(vb, va):
                strict = True
            else:
                return False
        return strict

    keep = []
    for a in ground:
        if not any(below(b, a) for b in ground if b is not a):
            keep.append(a)
    return keep + symbolic


def _family_pairs(family, owner):
    out = {}
    for (l, r) in family.get(owner, ()):
        if l not in out or out[l] == OBJECT:
            out[l] = r
        elif r != OBJECT:
            out[l] = r
    return [(l, None if r == OBJECT else r) for l, r in sorted(out.items())]


def _declared_pairs(generics):
    return [(g.name, None if g.bound is None or str(g.bound) == "Object"
             else str(g.bound)) for g in generics]


def _assemble(cls, gen, finished, table):
    finished = sorted(finished, key=lambda s: [
        E.typing_sort_key(E.MethodTyping((), tuple(s.method_params[i]),
                                         s.method_rets[i]))
        for i in range(len(cls.methods))])
    rep = finished[0]
    decl_m = [_declared_pairs(m.generics) for m in cls.methods]
    ann = E.AnnotatedClass(
        cls=cls,
        class_generics=(_declared_pairs(cls.generics)
                        + _family_pairs(rep.family, CLASS)),
        field_terms=rep.field_terms,
        method_generics=[decl_m[i] + _family_pairs(rep.family, ("method", i))
                         for i in range(len(cls.methods))],
        method_params=rep.method_params,
        method_rets=rep.method_rets,
        local_terms=rep.local_terms,
        reserved={g.name for g in cls.generics}
                 | {g.name for m in cls.methods for g in m.generics},
    )
    typed_cls, ren = E.build_typed_class(ann)

    def rename(t):
        return substitute(t, {old: TPH(new) for old, new in ren.items()})

    signatures = []
    used = []
    for i, m in enumerate(cls.methods):
        typings = []
        for s in finished:
            params = tuple(rename(t) for t in s.method_params[i])
            ret = rename(s.method_rets[i])
            gens = tuple((ren.get(l, l), None if r is None else ren.get(r, r))
                         for l, r in (decl_m[i]
                                      + _family_pairs(s.family,
                                                      ("method", i))))
            typings.append(E.MethodTyping(generics=gens, params=params,
                                          ret=ret))
        typings = E.assemble_intersection_types(typings)
        signatures.append((m.name, typings))
        for t in typings:
            used.extend(t.params)
            used.append(t.ret)
    for t in rep.field_terms.values():
        used.append(rename(t))
    for t in rep.local_terms.values():
        used.append(rename(t))
    _register(cls, table, signatures, rep, rename)
    return ClassResult(cls=cls, typed_cls=typed_cls,
                       signatures=signatures, used_terms=used,
                       remainings=[s.remaining for s in finished])


def _register(cls, table, signatures, rep, rename):
    """Make the inferred typings callable from later classes."""
    for (mname, typings) in signatures:
        for t in typings:
            bound_by = dict(t.generics)
            names = []
            for p in t.params:
                names.extend(n for n in tphs_of(p) if n not in names)
            for n in tphs_of(t.ret):
                if n not in names:
                    names.append(n)
            for n, b in t.generics:
                for x in (n, b):
                    if x is not None and x not in names:
                        names.append(x)
            as_var = {n: ClassType(n) for n in names}
            conv = lambda term: substitute(term, as_var)
            tps = [(n, None if bound_by.get(n) is None
                    else ClassType(bound_by[n])) for n in names]
            table.register_inferred(
                cls.name, mname,
                (tps, [conv(p) for p in t.params], conv(t.ret)))
    entry = table.entries.get(cls.name)
    if entry is not None:
        for f in cls.fields:
            term = rename(rep.field_terms[f.name])
            if is_ground(term):
                entry.fields[f.name] = term


# --- top-level outputs -----------------------------------------------------


def typed_source(result):
    comments = {}
    for r in result.class_results:
        per = {}
        for i, (mname, typings) in enumerate(r.signatures):
            if len(typings) > 1:
                per[i] = [f"{r.cls.name}.{mname} : "
                          + " & ".join(E.format_typing(t) for t in typings)]
        if per:
            comments[r.cls.name] = per
    return print_program(Program(result.program.imports,
                                 result.typed_classes), comments)


def signature_lines(result):
    lines = []
    for r in result.class_results:
        lines.extend(E.signature_report(r.cls.name, r.signatures))
    return lines


def descriptor_lines(result):
    lines = []
    for r in result.class_results:
        lines.extend(E.emit_descriptors(r.cls.name, r.signatures,
                                        result.table))
    return lines


def funiface_manifest(result):
    terms = []
    for r in result.class_results:
        terms.extend(r.used_terms)
    used = collect_used_funtypes(terms)
    return render_manifest(fun_interface_hierarchy(used, result.table))
