"""End-to-end driver: parse -> constraints -> unify -> generalize -> emit.

Classes are processed in declaration order; the typings inferred for a
class are registered in the table so later classes can call it.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import emit as E
from .classtable import CLASS, MethodSig, build_class_table, class_view
from .constraints import (CallSite, ReceiverGroup, call_sites, flatten,
                          generate_constraints)
from .errors import ResourceLimit, Untypable
from .generics import (build_fgg, complete_fgg, compute_owners,
                       enforce_java_conformance, format_generics)
from .funtypes import (collect_used_funtypes, fun_interface_hierarchy,
                       render_manifest)
from .parser import parse
from .syntax import Program, print_program
from .typeterms import VOID, ClassType, TPH, TypeVar, substitute
from .unify import Solution, format_solution, unify

DUMP_STAGES = ("constraints", "solutions", "generics")
_TOO_DEEP = "recursion deeper than the interpreter's limit"


class SolvedClass:
    """One surviving solution for a class, after generalization, under the
    solution's placeholder names: the class's generics clause
    `class_generics`, ((variable, bound-or-None), ...) of terms whose
    variable is a TPH when inferred and a TypeVar when declared; its slot
    terms, `field_terms` by field name and `local_terms` by LocalDecl uid;
    and `methods`, one emit.MethodTyping per method."""

    __slots__ = ("remaining", "class_generics", "field_terms", "methods",
                 "local_terms")

    def __init__(self, remaining, class_generics, field_terms, methods,
                 local_terms):
        self.remaining, self.class_generics = remaining, class_generics
        self.field_terms, self.local_terms = field_terms, local_terms
        self.methods = methods


class ClassResult:
    """What `run_source` keeps of one class: `typed_cls` is the annotated
    ClassDecl of the representative solution, `signatures` holds
    (method name, [MethodTyping]), `remainings` the remaining pairs of each
    surviving solution and `stats` the unifier's counters."""

    __slots__ = ("cls", "typed_cls", "signatures", "used_terms",
                 "remainings", "stats")

    def __init__(self, cls, typed_cls, signatures, used_terms=None,
                 remainings=None, stats=None):
        self.cls, self.typed_cls, self.signatures = cls, typed_cls, signatures
        self.used_terms = [] if used_terms is None else used_terms
        self.remainings = [] if remainings is None else remainings
        self.stats = stats


class PipelineResult:
    """`stats` sums the unifier's counters (see `unify`) over the
    classes."""

    __slots__ = ("program", "table", "class_results", "dumps", "stats")

    def __init__(self, program, table, class_results, dumps=None,
                 stats=None):
        self.program, self.table = program, table
        self.class_results = class_results
        self.dumps = {} if dumps is None else dumps
        self.stats = Counter() if stats is None else stats

    @property
    def typed_classes(self):
        return [r.typed_cls for r in self.class_results]


def run_source(src, table_path=None, dump_stages=()):
    """Infer every class of `src`; the result's `stats` sums the unifier's
    counters of every class.  Recursion deeper than the interpreter
    allows, in the input's nesting or in a search, is a resource limit."""
    try:
        program = parse(src)
        table = build_class_table(program, table_path)
    except RecursionError:
        raise ResourceLimit(_TOO_DEEP) from None
    dumps = {s: [] for s in dump_stages}
    results = []
    stats = Counter()
    for cls in program.classes:
        try:
            results.append(_infer_class(cls, table, dumps))
            stats.update(results[-1].stats)
        except RecursionError:
            raise ResourceLimit(f"class {cls.name}: {_TOO_DEEP}") from None
        except ResourceLimit as exc:
            raise ResourceLimit(f"class {cls.name}: {exc.message}") from None
    return PipelineResult(program=program, table=table,
                          class_results=results,
                          dumps={k: "\n".join(v) for k, v in dumps.items()},
                          stats=stats)


def _infer_class(cls, table, dumps):
    scoped = class_view(cls, table)
    gen = generate_constraints(cls, scoped)
    if "constraints" in dumps:
        for cand in flatten(gen, scoped):
            dumps["constraints"].append(
                f"# {cls.name} candidate {cand.choice}")
            dumps["constraints"].extend(str(c) for c in cand.constraints)
    stats = Counter()
    parts = _search(gen, scoped, stats)
    if "solutions" in dumps:
        for s in _join(parts, gen):
            dumps["solutions"].append(f"# {cls.name}")
            dumps["solutions"].append(format_solution(s.solution()))
    solved = _join([(groups, _minimal(_dedup(sols), scoped))
                    for groups, sols in parts], gen)
    if not solved:
        raise Untypable(f"class {cls.name} has no typing")
    finished = [s.generalize(scoped) for s in solved]
    if "generics" in dumps:
        for s in finished:
            dumps["generics"] += [f"# {cls.name}", format_generics(
                [s.class_generics, *(t.generics for t in s.methods)])]
    return _assemble(cls, finished, scoped, stats)


def _components(gen):
    """The class's constraints split into components that share no
    placeholder: [(base constraints, indices of the or-groups)], in the
    order of their first group.  A base constraint goes with the
    component of its placeholders; one without any, and a component
    without a group, go with the first.  Found only for two or more
    groups, from what each group's alternatives can mention, so that no
    receiver alternative is built; with fewer than two components holding
    a group, the class is one component."""
    groups = gen.groups
    whole = [(gen.base, range(len(groups)))]
    if len(groups) < 2:
        return whole
    names = [g.tphs() if isinstance(g, ReceiverGroup) else
             set().union(*[c.lhs.tphs + c.rhs.tphs
                           for alt in g for c in alt.constraints])
             for g in groups]
    # each group shares a placeholder with those before it: one component
    joined = set(names[0])
    for ns in names[1:]:
        if joined.isdisjoint(ns):
            break
        joined |= ns
    else:
        return whole
    parent = {}   # a name -> a name of its component, until its root

    def root(n):
        while n in parent:
            n = parent[n]
        return n

    def link(ns):
        first = None
        for n in ns:
            n = root(n)
            if first is None:
                first = n
            elif n != first:
                parent[n] = first
        return first

    for c in gen.base:
        link(c.lhs.tphs + c.rhs.tphs)
    roots = [link(ns) for ns in names]
    roots = [root(r) for r in roots]
    order = {r: i for i, r in enumerate(dict.fromkeys(roots))}
    if len(order) < 2:
        return whole
    parts = [([], []) for _ in order]
    for c in gen.base:
        ns = c.lhs.tphs or c.rhs.tphs
        parts[order.get(root(ns[0]), 0) if ns else 0][0].append(c)
    for i, r in enumerate(roots):
        parts[order[r]][1].append(i)
    return parts


def _search(gen, view, stats):
    """The class's search: one `unify` call per component of its
    constraints (see `_components`), each through this module's `unify`.
    Returns [(the component's group indices, its solutions as `_Solved`,
    each with its choice over those groups)].  Each component draws its
    names after every name drawn by the components before it.  A
    component without a solution leaves the class without one, so the
    search stops there; one that runs out of steps is reported only when
    every other component has a solution."""
    fresh = gen.fresh.clone()
    parts = []
    limit = None
    components = _components(gen)
    for k, (base, indices) in enumerate(components, 1):
        try:
            sols = unify(base, view, fresh, stats=stats,
                         groups=[gen.groups[i] for i in indices])
        except ResourceLimit as exc:
            limit = limit or exc   # the first
            continue
        parts.append((indices, [_Solved(s.sigma_dict(), set(s.remaining),
                                        s.choice, s.fresh, gen)
                                for s in sols]))
        if not sols:
            return parts
        if k < len(components):
            mark = max(s.fresh.mark() for s in sols)
            fresh = gen.fresh.clone()
            fresh.scopes += [None] * (mark - fresh.mark())
    if limit is not None:
        raise limit
    return parts


def _join(parts, gen):
    """The class's solutions from those of its components (`_search`):
    every combination of one solution per component, with the
    substitutions and remaining pairs merged and the choices put in the
    class's group order.  They come in the order `unify` gives: by
    choice, then remaining pairs and substitution.  A combination's names
    record each component's drawn names, which lie in ranges of their
    own, so no later draw meets one of them.

    `_dedup` and `_minimal` may run per component first.  The components
    share no placeholder and draw their names apart, so each remaining
    pair, each name of a substitution and each slot term's image belongs
    to one component.  So two combinations have one `_dedup` key exactly
    when their solutions in every component do.  And one combination is
    below another (`_minimal`: the same remaining pairs and substituted
    names, a subtype at every atomic position that differs, and one
    such position at least) exactly when in every component its solution
    is the other's or below it, and below it in some.  So a combination is
    dominated exactly when one of its solutions is dominated in its
    component, by the combination that swaps in the solution below: the
    minimal combinations are the combinations of minimal solutions."""
    if len(parts) == 1:
        return parts[0][1]
    width = len(gen.groups)
    start = gen.fresh.mark()
    out = []
    for combo in itertools.product(*(sols for _, sols in parts)):
        sigma, remaining, choice = {}, set(), [0] * width
        for (indices, _), s in zip(parts, combo):
            sigma.update(s.sigma)
            remaining |= s.remaining
            for i, c in zip(indices, s.choice):
                choice[i] = c
        drew = [s.fresh for s in combo if s.fresh.mark() > start]
        fresh = drew[-1] if drew else combo[0].fresh
        if len(drew) > 1:
            fresh = fresh.clone()
            for other in drew[:-1]:
                for i in range(start, other.mark()):
                    if other.scopes[i] is not None:
                        fresh.scopes[i] = other.scopes[i]
        out.append(_Solved(sigma, remaining, tuple(choice), fresh, gen))
    out.sort(key=lambda s: s.choice)
    if any(a.choice == b.choice for a, b in zip(out, out[1:])):
        out.sort(key=lambda s: (s.choice, sorted(s.remaining), [
            (n, str(t)) for n, t in sorted(s.sigma.items())]))
    return out


class _Solved:
    """Working state for one unifier solution of one choice of or-group
    alternatives: its substitution, remaining placeholder pairs and
    `choice`, whose call sites `sites` holds.  `fresh` holds the names
    drawn so far, which `generalize` draws after, in a copy.  `generalize`
    repairs the pairs as one graph for the whole class (see `generics`): a
    clause states a pair within one member or from a method placeholder to
    a class one, a method placeholder above a class one is merged into it,
    and a collapse that takes in a class placeholder is the class's."""

    def __init__(self, sigma, remaining, choice, fresh, gen):
        self.sigma = sigma
        self.remaining = remaining
        self.choice = choice
        self.fresh = fresh
        self.gen = gen
        self._slot_terms = None

    @property
    def sites(self):
        return call_sites(self.gen, self.choice)

    def solution(self):
        """The solution as `unify` gives one."""
        return Solution(tuple(sorted(self.remaining)),
                        tuple(sorted(self.sigma.items())), self.choice,
                        self.fresh)

    def term(self, t):
        return substitute(t, self.sigma)

    def slot_terms(self):
        """Each slot term -> its term under the substitution, made once:
        the terms are interned, so the map serves every slot of a term."""
        if self._slot_terms is None:
            sigma = self.sigma
            self._slot_terms = {t: substitute(t, sigma)
                                for ts in self.gen.slots.values() for t in ts}
        return self._slot_terms

    def slot_groups(self):
        done = self.slot_terms()
        return [(owner, [done[t] for t in terms])
                for owner, terms in self.gen.slots.items()]

    def key(self):
        return (tuple(sorted(self.remaining)),
                tuple(str(t) for _, ts in self.slot_groups() for t in ts))

    def generalize(self, view):
        """The solution's SolvedClass; `view` holds the declared clauses.
        Each member declares the names it owns once the pair graph is
        repaired, each bounded by its one stated upper bound."""
        gen = self.gen
        owners = compute_owners(self.slot_groups())
        remaining = sorted(self.remaining)
        sites = [CallSite(s.caller, [self.term(t) for t in s.arg_terms],
                          [self.term(t) for t in s.param_terms],
                          self.term(s.ret_term)) for s in self.sites]
        pairs = complete_fgg(build_fgg(remaining, owners), remaining, owners,
                             sites)
        bounds, h, owners = enforce_java_conformance(
            pairs, self.fresh.clone(), owners)
        final = self.slot_terms()
        if h:
            hmap = {old: TPH(new) for old, new in h.items()}
            final = {t: substitute(x, hmap) for t, x in final.items()}

        # each member's declared (variable, bound) pairs, then its inferred
        bound = dict(bounds)
        clauses = {owner: [] for owner in gen.slots}
        for v, b in view.typevars.items():
            clauses[v.owner].append((v, b))
        for n, owner in sorted(owners.items()):
            clauses[owner].append((TPH(n), bound.get(n) and TPH(bound[n])))

        def clause(scope, terms):
            return _generics_clause(clauses[scope], terms)

        field_terms = {n: final[t] for n, t in gen.field_terms.items()}
        methods = []
        for i, m in enumerate(gen.methods):
            params = tuple(final[t] for t in m.params)
            ret = final[m.ret]
            methods.append(E.MethodTyping(
                clause(("method", i), [*params, ret]), params, ret))
        return SolvedClass(
            remaining=tuple(remaining),
            class_generics=clause(CLASS, field_terms.values()),
            field_terms=field_terms,
            methods=methods,
            local_terms={uid: final[t]
                         for uid, t in gen.local_terms.items()},
        )


def _dedup(solved):
    if len(solved) < 2:
        return solved
    first = {}
    for s in solved:
        first.setdefault(s.key(), s)
    return list(first.values())


def _atomic(t):
    return (isinstance(t, ClassType) and not t.args) or t is VOID


def _minimal(solved, table):
    """Keep the solutions whose placeholder assignments are pointwise
    minimal in the subtype order among the solutions with the same
    remaining constraints.  Comparison happens at atomic positions only
    (composite terms are determined by the atomic bindings).  The unifier
    already gives each sink its least type, `M` in `Integer < M, M < A`
    among them, so what is left to drop are solutions dominated across
    choices of or-group alternatives, or at placeholders that are no sink,
    such as `T` in `S < T` or one inside a function type."""
    if len(solved) < 2:
        return solved

    def below(b, a):
        """b strictly below a pointwise."""
        if b.remaining != a.remaining or b.sigma.keys() != a.sigma.keys():
            return False
        strict = False
        for k, va in a.sigma.items():
            vb = b.sigma[k]
            if vb is not va and _atomic(va) and _atomic(vb):
                if not table.is_subtype(vb, va):
                    return False
                strict = True
        return strict

    return [a for a in solved
            if not any(below(b, a) for b in solved if b is not a)]


def _generics_clause(pairs, terms):
    """A member's generics clause: its (variable, bound) pairs in order of
    the placeholders' first use in the signature `terms`; declared and
    unused variables last, as given."""
    if len(pairs) < 2:
        return tuple(pairs)
    # a declared variable's name holds an `@`, which no placeholder's does
    rest = {v.name: (v, b) for v, b in pairs}
    used = [rest.pop(n) for t in terms for n in t.tphs if n in rest]
    return (*used, *rest.values())


def _assemble(cls, finished, table, stats):
    if len(finished) > 1:
        # the solutions' output order; a lone solution needs none
        finished.sort(key=lambda s: [E.typing_sort_key(t) for t in s.methods])
    written, rep, typings = E.name_solutions(cls, finished, table.entries)
    typed_cls = E.build_typed_class(written, rep)
    signatures = [(m.name, E.assemble_intersection_types(ts))
                  for m, ts in zip(cls.methods, typings)]
    used = [x for _, ts in signatures for t in ts for x in (*t.params, t.ret)]
    used += [*rep.field_terms.values(), *rep.local_terms.values()]
    _register(cls, table, signatures, rep)
    return ClassResult(cls=cls, typed_cls=typed_cls,
                       signatures=signatures, used_terms=used,
                       remainings=[s.remaining for s in finished],
                       stats=stats)


def _register(cls, table, signatures, rep):
    """Make the inferred class usable from later classes: its typings
    replace the class entry's methods, each with the class's declared
    clause among its type parameters, as an annotated method has it; its
    field types fill the entry's fields, and `rep`'s class clause is the
    entry's `generics`, which another class's field read instantiates.  A
    placeholder becomes a template variable of its name, by one map for
    the class; `rep` is named as `signatures` are."""
    typings = [(mname, t, t.names()) for mname, ts in signatures for t in ts]
    tvars = {n: ClassType(n) for x in (*rep.field_terms.values(),
                                       *E.clause_terms(rep.class_generics))
             for n in x.tphs}
    tvars.update((n, ClassType(n)) for *_, names in typings for n in names)

    def template(term):
        return term and substitute(term, tvars)

    declared = [(v.name, b) for v, b in rep.class_generics
                if isinstance(v, TypeVar)]
    methods = []
    for mname, t, names in typings:
        bound_by = {v.name: b for v, b in t.generics}
        methods.append(MethodSig(
            mname, declared + [(n, template(bound_by.get(n))) for n
                               in dict.fromkeys([*names, *bound_by])],
            [template(p) for p in t.params], template(t.ret)))
    table.register(cls.name, methods,
                   {f.name: template(rep.field_terms[f.name])
                    for f in cls.fields},
                   [(v.name, template(b)) for v, b in rep.class_generics])


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
    """The interfaces of the function types the classes use; one over a
    placeholder or a declared variable is its erased root, as in
    descriptors."""
    used = collect_used_funtypes(
        t for r in result.class_results for t in r.used_terms)
    return render_manifest(fun_interface_hierarchy(used, result.table))
