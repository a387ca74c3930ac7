"""End-to-end driver: parse -> constraints -> unify -> generalize -> emit.

Classes are processed in declaration order; the typings inferred for a
class are registered in the table so later classes can call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import emit as E
from .classtable import MethodSig, build_class_table, class_view
from .constraints import (CallSite, call_sites, flatten,
                          generate_constraints)
from .errors import ResourceLimit, Untypable
from .generics import (CLASS, build_fgg, complete_fgg, compute_owners,
                       enforce_java_conformance, format_generics,
                       member_tph_sets)
from .funtypes import (collect_used_funtypes, fun_interface_hierarchy,
                       render_manifest)
from .parser import parse
from .syntax import Program, print_program
from .typeterms import (VOID, ClassType, TPH, instantiate, is_ground,
                        substitute, tphs_of)
from .unify import format_solution, unify

DUMP_STAGES = ("constraints", "solutions", "generics")
_TOO_DEEP = "recursion deeper than the interpreter's limit"


@dataclass
class SolvedClass:
    """One surviving solution for a class, after generalization, under the
    solution's placeholder names: the class's generics clause and slot
    terms, one typing per method, and the inferred clauses."""

    remaining: tuple
    # generics clause: ((variable, bound-or-None), ...) of terms; the
    # variable is a TPH when inferred and a ClassType when declared
    class_generics: tuple
    field_terms: dict           # field name -> term
    methods: list               # [emit.MethodTyping], one per method
    local_terms: dict           # LocalDecl uid -> term
    clauses: dict               # member -> {name: bound or None}, in order


@dataclass
class ClassResult:
    cls: object
    table: object                # the class's view, see `class_view`
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


def run_source(src, table_path=None, dump_stages=()):
    """Infer every class of `src`.  Recursion deeper than the interpreter
    allows, in the input's nesting or in a search, is a resource limit."""
    try:
        program = parse(src)
        table = build_class_table(program, table_path)
    except RecursionError:
        raise ResourceLimit(_TOO_DEEP) from None
    dumps = {s: [] for s in dump_stages}
    results = []
    for cls in program.classes:
        try:
            results.append(_infer_class(cls, table, dumps))
        except RecursionError:
            raise ResourceLimit(f"class {cls.name}: {_TOO_DEEP}") from None
        except ResourceLimit as exc:
            raise ResourceLimit(f"class {cls.name}: {exc.message}") from None
    return PipelineResult(program=program, table=table,
                          class_results=results,
                          dumps={k: "\n".join(v) for k, v in dumps.items()})


def _infer_class(cls, table, dumps):
    scoped = class_view(cls, table)
    gen = generate_constraints(cls, scoped)
    if "constraints" in dumps:
        for cand in flatten(gen, scoped):
            dumps["constraints"].append(
                f"# {cls.name} candidate {cand.choice}")
            dumps["constraints"].extend(str(c) for c in cand.constraints)
    sols = unify(gen.base, scoped, gen.fresh.clone(), groups=gen.groups)
    solved = []
    for sol in sols:
        if "solutions" in dumps:
            dumps["solutions"].append(f"# {cls.name}")
            dumps["solutions"].append(format_solution(sol))
        solved.append(_Solved(sol.sigma_dict(), set(sol.remaining),
                              call_sites(gen, sol.choice), sol.fresh.clone(),
                              gen))
    for s in solved:
        s.normalize()
    solved = _dedup(solved)
    solved = _minimal(solved, scoped)
    if not solved:
        raise Untypable(f"class {cls.name} has no typing")
    finished = [s.generalize(scoped) for s in solved]
    if "generics" in dumps:
        for s in finished:
            dumps["generics"] += [f"# {cls.name}", format_generics(s.clauses)]
    return _assemble(cls, finished, scoped)


class _Solved:
    """Working state for one unifier solution of one choice of or-group
    alternatives: its substitution, remaining placeholder pairs and call
    sites, and, once normalized, the member that owns each placeholder of
    its slot terms."""

    def __init__(self, sigma, remaining, sites, fresh, gen):
        self.sigma = sigma
        self.remaining = remaining
        self.sites = sites
        self.fresh = fresh
        self.gen = gen

    def term(self, t):
        return substitute(t, self.sigma)

    def slot_groups(self):
        return [(owner, [self.term(t) for t in terms])
                for owner, terms in self.gen.slots.items()]

    def normalize(self):
        """Bind method-owned placeholders that sit above a field placeholder
        in `remaining` to that field placeholder.  A bind removes the method
        placeholder and moves no other owner, so owners are computed once."""
        self.owners = compute_owners(self.slot_groups())
        while True:
            pick = next(((r, l) for (l, r) in sorted(self.remaining)
                         if self.owners.get(l) == CLASS
                         and self.owners.get(r, CLASS) != CLASS), None)
            if pick is None:
                return
            old, new = pick
            del self.owners[old]
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

    def generalize(self, view):
        """The solution's SolvedClass; `view` holds the declared clauses."""
        gen = self.gen
        owners = self.owners
        members = member_tph_sets(gen.slots.items(), owners)
        remaining = sorted(self.remaining)
        fgg = build_fgg(remaining, owners, members)
        sites = [CallSite(s.caller, [self.term(t) for t in s.arg_terms],
                          [self.term(t) for t in s.param_terms],
                          self.term(s.ret_term)) for s in self.sites]
        cfgg = complete_fgg(fgg, remaining, owners, members, sites)
        family, h = enforce_java_conformance(cfgg, self.fresh, owners)
        hmap = {old: TPH(new) for old, new in h.items()}

        def final(t):
            return substitute(self.term(t), hmap)

        # each member declares the images of its placeholders under h; an
        # image shared with a class placeholder is the class's
        in_class = {h.get(n, n) for n in members[CLASS]}
        bounds = {owner: dict(pairs) for owner, pairs in family.items()}
        clauses = {owner: {} for owner in members}
        for owner, names in members.items():
            for n in names:
                x = h.get(n, n)
                home = CLASS if x in in_class else owner
                clauses[home][x] = bounds[home].get(x)

        def clause(scope, terms):
            declared = [(ClassType(n), b) for n, b in view.clause(scope)]
            return _generics_clause(
                declared + _clause_pairs(clauses[scope]), terms)

        field_terms = {n: final(t) for n, t in gen.field_terms.items()}
        methods = []
        for i, m in enumerate(gen.methods):
            params = tuple(final(t) for t in m.param_terms)
            ret = final(m.ret_term)
            methods.append(E.MethodTyping(
                clause(("method", i), [*params, ret]), params, ret))
        return SolvedClass(
            remaining=tuple(remaining),
            class_generics=clause(CLASS, field_terms.values()),
            field_terms=field_terms,
            methods=methods,
            local_terms={uid: final(t)
                         for uid, t in gen.local_terms.items()},
            clauses=clauses,
        )


def _dedup(solved):
    first = {}
    for s in solved:
        first.setdefault(s.key(), s)
    return list(first.values())


def _atomic(t):
    return (isinstance(t, ClassType) and not t.args) or t == VOID


def _minimal(solved, table):
    """Keep the solutions whose placeholder assignments are pointwise
    minimal in the subtype order among the solutions with the same
    remaining constraints.  Comparison happens at atomic positions only
    (composite terms are determined by the atomic bindings).  The unifier
    already gives each sink its least type, so what is left to drop are
    solutions dominated across candidates, or at placeholders that are no
    sink, such as `M` in `Integer < M, M < A`."""

    def below(b, a):
        """b strictly below a pointwise."""
        if b.remaining != a.remaining or b.sigma.keys() != a.sigma.keys():
            return False
        strict = False
        for k, va in a.sigma.items():
            vb = b.sigma[k]
            if vb != va and _atomic(va) and _atomic(vb):
                if not table.is_subtype(vb, va):
                    return False
                strict = True
        return strict

    return [a for a in solved
            if not any(below(b, a) for b in solved if b is not a)]


def _clause_pairs(clause):
    """An inferred clause as (variable, bound) term pairs, by name."""
    return [(TPH(n), r and TPH(r)) for n, r in sorted(clause.items())]


def _generics_clause(pairs, terms):
    """A member's generics clause: its (variable, bound) pairs in order of
    the placeholders' first use in the signature `terms`; declared and
    unused variables last, as given."""
    rank = {TPH(n): i for i, n in enumerate(
        dict.fromkeys(n for t in terms for n in tphs_of(t)))}
    return tuple(sorted(dict(pairs).items(),
                        key=lambda pair: rank.get(pair[0], len(rank))))


def _assemble(cls, finished, table):
    finished = sorted(finished, key=lambda s: [
        E.typing_sort_key(t) for t in s.methods])
    rep = finished[0]
    typed_cls, ren = E.build_typed_class(cls, rep)
    sigma = {old: TPH(new) for old, new in ren.items()}

    signatures = []
    used = []
    for i, m in enumerate(cls.methods):
        typings = E.assemble_intersection_types(
            [E.rename_typing(s.methods[i], sigma) for s in finished])
        signatures.append((m.name, typings))
        for t in typings:
            used.extend(t.params)
            used.append(t.ret)
    used.extend(substitute(t, sigma) for t in (*rep.field_terms.values(),
                                               *rep.local_terms.values()))
    _register(cls, table, signatures, rep, sigma)
    return ClassResult(cls=cls, table=table, typed_cls=typed_cls,
                       signatures=signatures, used_terms=used,
                       remainings=[s.remaining for s in finished])


def _register(cls, table, signatures, rep, sigma):
    """Make the inferred typings callable from later classes: they replace
    the class entry's methods, and ground field types fill its fields;
    `sigma` renames `rep`'s placeholders canonically."""
    methods = []
    for (mname, typings) in signatures:
        for t in typings:
            bound_by = {v.name: b for v, b in t.generics}
            names = dict.fromkeys([*t.names(), *bound_by])
            as_var = {n: ClassType(n) for n in names}
            conv = lambda term: substitute(term, as_var)
            tps = [(n, None if bound_by.get(n) is None
                    else conv(bound_by[n])) for n in names]
            methods.append(MethodSig(mname, tps, [conv(p) for p in t.params],
                                     conv(t.ret)))
    entry = table.entries[cls.name]
    entry.methods = methods
    for f in cls.fields:
        term = substitute(rep.field_terms[f.name], sigma)
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
        lines.extend(E.emit_descriptors(r.cls.name, r.signatures, r.table))
    return lines


def funiface_manifest(result):
    """The interfaces of the function types the classes use; a declared
    variable counts as a placeholder, so a function type over one is its
    erased root, as in descriptors."""
    terms = []
    for r in result.class_results:
        as_tph = {v: TPH(v) for v in r.table.typevars}
        terms.extend(instantiate(t, as_tph) for t in r.used_terms)
    used = collect_used_funtypes(terms)
    return render_manifest(fun_interface_hierarchy(used, result.table))
