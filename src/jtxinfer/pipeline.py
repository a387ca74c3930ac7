"""End-to-end driver: parse -> constraints -> unify -> generalize -> emit.

Classes are processed in declaration order; the typings inferred for a
class are registered in the table so later classes can call it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from . import emit as E
from .classtable import CLASS, MethodSig, build_class_table, class_view
from .constraints import (CallSite, ReceiverGroup, flatten,
                          generate_constraints)
from .errors import ResourceLimit, Untypable
from .generics import (build_fgg, complete_fgg, compute_owners,
                       enforce_java_conformance, format_generics)
from .funtypes import (collect_used_funtypes, fun_interface_hierarchy,
                       render_manifest)
from .parser import parse
from .syntax import Program, print_program
from .typeterms import (ClassType, TPH, TypeVar, is_atomic, substitute,
                        tph_number)
from .unify import Solution, format_solution, unify

DUMP_STAGES = ("constraints", "solutions", "generics")
_TOO_DEEP = "recursion deeper than the interpreter's limit"


class SolvedClass(NamedTuple):
    """One class solution, after generalization, under the solution's
    placeholder names: the class's generics clause
    `class_generics`, ((variable, bound-or-None), ...) of terms whose
    variable is a TPH when inferred and a TypeVar when declared; its slot
    terms, `field_terms` by field name and `local_terms` by LocalDecl uid;
    and `methods`, one emit.MethodTyping per method."""

    class_generics: tuple
    field_terms: dict
    methods: list
    local_terms: dict


class ClassResult:
    """What `run_source` keeps of one class: `typed_cls` is the annotated
    ClassDecl of the representative solution, `signatures` holds
    (method name, [MethodTyping]), `remainings` the remaining pairs of each
    surviving solution and `stats` the unifier's counters."""

    __slots__ = ("cls", "typed_cls", "signatures", "used_terms",
                 "remainings", "stats")

    def __init__(self, cls, typed_cls, signatures, used_terms, remainings,
                 stats):
        self.cls, self.typed_cls, self.signatures = cls, typed_cls, signatures
        self.used_terms, self.remainings = used_terms, remainings
        self.stats = stats


class PipelineResult:
    __slots__ = ("program", "table", "class_results", "dumps")

    def __init__(self, program, table, class_results, dumps):
        self.program, self.table = program, table
        self.class_results, self.dumps = class_results, dumps

    @property
    def typed_classes(self):
        return [r.typed_cls for r in self.class_results]

    @property
    def stats(self):
        """The unifier's counters (see `unify`) summed over the classes."""
        return sum((r.stats for r in self.class_results), Counter())


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
    return PipelineResult(program, table, results,
                          {k: "\n".join(v) for k, v in dumps.items()})


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
        for head, s in _blocks(cls, parts):
            dumps["solutions"] += [head, format_solution(s.solution())]
    parts = [_minimal(_dedup(sols), scoped) for sols in parts]
    if not all(parts):
        raise Untypable(f"class {cls.name} has no typing")
    done = _generalize(parts)
    if "generics" in dumps:
        members = list(gen.slots)
        for head, g in _blocks(cls, done):
            dumps["generics"] += [head, format_generics(
                [g.clauses.get(owner, ()) for owner in members])]
    return _assemble(cls, gen, done, scoped, stats)


def _generalize(parts):
    """Generalize each component's kept solutions `parts` in place and
    return them.  The last component's collapses are named after its own
    solution's names, as a lone component's are; each earlier
    component's after every name that a later one holds or drew.  So no
    two parts of a class solution share a name."""
    drawn = None
    for sols in reversed(parts):
        drawn = max([s.generalize(s.drawn if drawn is None else drawn)
                     for s in sols])
    return parts


def _blocks(cls, parts):
    """(dump header, solution) of every solution of every component: the
    header names the class, and the component when there are several."""
    for k, sols in enumerate(parts, 1):
        head = (f"# {cls.name}" if len(parts) == 1 else
                f"# {cls.name} component {k} of {len(parts)}")
        for s in sols:
            yield head, s


class _Component:
    """A part of a class's constraints that shares no placeholder with the
    rest (see `_components`): its base constraints `base`, the indices of
    its or-groups `indices`, its slot terms by member `slots` (every
    member of the class a key, in the class's order) and the base call
    sites `sites`."""

    __slots__ = ("base", "indices", "slots", "sites")

    def __init__(self, base, indices, slots, sites):
        self.base, self.indices = base, indices
        self.slots, self.sites = slots, sites


def _whole(gen):
    """The class as one component."""
    return _Component(gen.base, range(len(gen.groups)), gen.slots,
                      gen.base_call_sites)


def _components(gen):
    """The class's constraints split into components that share no
    placeholder, in the order of their first group.  A base constraint,
    slot term or base call site goes with the component of its
    placeholders; one without any, and a component without a group, go
    with the first.  Found only
    for two or more groups, from what each group's alternatives can
    mention, so that no receiver alternative is built; with fewer than
    two components holding a group, the class is one component."""
    groups = gen.groups
    if len(groups) < 2:
        return [_whole(gen)]
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
        return [_whole(gen)]
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
        return [_whole(gen)]
    parts = [_Component([], [], {owner: [] for owner in gen.slots}, [])
             for _ in order]

    def part(terms):
        ns = [n for t in terms for n in t.tphs]
        return parts[order.get(root(ns[0]), 0) if ns else 0]

    for c in gen.base:
        part((c.lhs, c.rhs)).base.append(c)
    for i, r in enumerate(roots):
        parts[order[r]].indices.append(i)
    for owner, terms in gen.slots.items():
        for t in terms:
            part((t,)).slots[owner].append(t)
    for s in gen.base_call_sites:
        part((*s.arg_terms, *s.param_terms, s.ret_term)).sites.append(s)
    return parts


def _search(gen, view, stats):
    """The class's search: one `unify` call per component of its
    constraints (see `_components`), each through this module's `unify`.
    Two or-groups are in one component when their alternatives can
    mention one placeholder: a field's placeholder that both read, or the
    slot terms of a method of the class that both may call; a declared
    class variable is a rigid `TypeVar`, no placeholder, and joins
    nothing.  Returns each component's solutions as `_Solved`, each with
    its choice over the component's groups; a class solution takes one
    of each, and none is built.  Each component draws its names after
    every name drawn by the components before it.  A component without a
    solution leaves the class without one, so the search stops there; one
    that runs out of steps is reported only when every other component
    has a solution."""
    fresh = gen.fresh.clone()
    parts = []
    limit = None
    components = _components(gen)
    for k, comp in enumerate(components, 1):
        try:
            sols = unify(comp.base, view, fresh, stats=stats,
                         groups=[gen.groups[i] for i in comp.indices])
        except ResourceLimit as exc:
            limit = limit or exc   # the first
            continue
        parts.append([_Solved(s.sigma_dict(), s.remaining, s.choice, s.drawn,
                              gen, comp) for s in sols])
        if not sols:
            return parts
        if k < len(components):
            fresh = gen.fresh.clone()
            fresh.scopes += [None] * (max(s.drawn for s in sols)
                                      - fresh.mark())
    if limit is not None:
        raise limit
    return parts


class _Solved:
    """Working state for one unifier solution of one component `comp` of a
    class (see `_components`), for one choice of its or-groups'
    alternatives: its substitution, its remaining placeholder pairs as the
    sorted tuple `unify` gives, and `choice`, whose call sites `sites`
    holds.  `drawn` counts the names its search drew.

    A class solution takes one solution per component.  The components
    share no placeholder and draw their names apart, so each remaining
    pair, each name of a substitution and each slot term's image belongs
    to one component, and a class solution's pair graph is the disjoint
    union of its parts' graphs.  So each step runs per component:
    `_dedup`, since two class solutions have one key exactly when their
    parts do in every component; `_minimal`, since one class solution is
    below another (the same remaining pairs and substituted names, a
    subtype at every atomic position that differs, and one such position
    at least) exactly when in every component its part is the other's or
    below it, and below it in some, so a class solution is dominated
    exactly when one of its parts is, by the one that swaps in the part
    below; and `generalize`, whose owners, bridges, completion and
    repairs never cross from one part's graph to another's.  `generalize`
    sets `final`, each slot term of the component -> its term, and
    `clauses`, each member -> the (placeholder, bound-or-None) pairs of
    the inferred names it owns, by name."""

    __slots__ = ("sigma", "remaining", "choice", "drawn", "gen", "comp",
                 "_slot_terms", "final", "clauses")

    def __init__(self, sigma, remaining, choice, drawn, gen, comp):
        self.sigma, self.remaining, self.choice = sigma, remaining, choice
        self.drawn, self.gen, self.comp = drawn, gen, comp
        self._slot_terms = None

    @property
    def sites(self):
        sites = list(self.comp.sites)
        for i, c in zip(self.comp.indices, self.choice):
            sites.extend(self.gen.groups[i][c].call_sites)
        return sites

    def solution(self):
        """The solution as `unify` gives one."""
        return Solution(self.remaining, tuple(sorted(self.sigma.items())),
                        self.choice, self.drawn)

    def term(self, t):
        return substitute(t, self.sigma)

    def slot_terms(self):
        """Each slot term -> its term under the substitution, made once:
        the terms are interned, so the map serves every slot of a term."""
        if self._slot_terms is None:
            sigma = self.sigma
            self._slot_terms = {t: substitute(t, sigma)
                                for ts in self.comp.slots.values()
                                for t in ts}
        return self._slot_terms

    def slot_groups(self):
        done = self.slot_terms()
        return [(owner, [done[t] for t in terms])
                for owner, terms in self.comp.slots.items()]

    def key(self):
        return (self.remaining,
                tuple(str(t) for _, ts in self.slot_groups() for t in ts))

    def generalize(self, drawn):
        """Generalize the solution (see `generics`), naming its collapses
        from `tph_name(drawn)` on, and return the count of names drawn,
        the collapses' included.  The pairs are repaired as one graph:
        a clause states a pair within one member or from a method
        placeholder to a class one, a method placeholder above a class
        one is merged into it, and a collapse that takes in a class
        placeholder is the class's.  Each member declares the names it
        owns once the graph is repaired, each bounded by its one stated
        upper bound."""
        remaining = self.remaining
        final = self.slot_terms()
        owners = compute_owners((owner, map(final.__getitem__, terms))
                                for owner, terms in self.comp.slots.items())
        # a call site without a caller bounds nothing (see `complete_fgg`)
        sites = [CallSite(c.caller, [*map(self.term, c.arg_terms)],
                          [*map(self.term, c.param_terms)],
                          self.term(c.ret_term))
                 for c in self.sites if c.caller is not None]
        pairs = complete_fgg(build_fgg(remaining, owners), remaining, owners,
                             sites)
        bounds, h, owners = enforce_java_conformance(pairs, drawn, owners)
        if h:
            hmap = {old: TPH(new) for old, new in h.items()}
            final = {t: substitute(x, hmap) for t, x in final.items()}
            drawn += len({n for n in (*h, *h.values())
                          if tph_number(n) >= drawn})
        bound = dict(bounds)
        clauses = {}
        for n, owner in sorted(owners.items()):
            b = bound.get(n)
            clauses.setdefault(owner, []).append((TPH(n), b and TPH(b)))
        self.final, self.clauses = final, clauses
        return drawn

    @property
    def field_terms(self):
        final = self.final
        return {n: final[t] for n, t in self.gen.field_terms.items()
                if t in final}

    @property
    def local_terms(self):
        final = self.final
        return {u: final[t] for u, t in self.gen.local_terms.items()
                if t in final}


def _dedup(solved):
    if len(solved) < 2:
        return solved
    first = {}
    for s in solved:
        first.setdefault(s.key(), s)
    return list(first.values())


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
            if vb is not va and is_atomic(va) and is_atomic(vb):
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


def _joined(sols):
    """The images of the slot terms and each member's inferred pairs, by
    name, of one solution of each of some components `sols`, together."""
    if len(sols) == 1:
        return sols[0].final, sols[0].clauses
    final, inferred = {}, {}
    for s in sols:
        final.update(s.final)
        for owner, pairs in s.clauses.items():
            inferred.setdefault(owner, []).extend(pairs)
    for pairs in inferred.values():
        pairs.sort(key=lambda p: p[0].name)
    return final, inferred


def _clause(owner, view, inferred, terms):
    """Member `owner`'s generics clause: its declared pairs, then its
    `inferred` ones, ordered by first use in `terms`."""
    pairs = inferred.get(owner, ())
    if view.typevars:
        pairs = [*view.clause(owner), *pairs]
    return _generics_clause(pairs, terms)


def _typing(i, sig, view, final, inferred):
    """Method `i`'s typing, of signature `sig`, under the slot images
    `final`, in which a slot term without a placeholder may be missing."""
    params = tuple([final.get(t, t) for t in sig.params])
    ret = final.get(sig.ret, sig.ret)
    return E.MethodTyping(_clause(("method", i), view, inferred,
                                  (*params, ret)), params, ret)


def _typings(gen, view, parts):
    """The class's representative SolvedClass and, per method, the typings
    of its class solutions, in output order, the representative's first.
    `parts` holds each component's generalized solutions; a class
    solution takes one of each.  Every class takes this one path, whose
    ordering work is only for components of several solutions.

    Class solutions are ordered by the printed forms of the methods'
    parameters and returns, in order, then by their choices of
    alternatives, group by group, then by each component's own order.
    Each such position, each group and each slot term belongs to one
    component.  So the representative, the first class solution, takes
    the first solution of each component under the order restricted to
    it.  And a method's typings, which depend only on the components its
    slots touch, come in the order of the product of those components'
    solutions alone, the others at their first.  So a method inside one
    component takes that component's typings, one that spans several
    takes the product of theirs, which it prints, and no product over the
    class's components is built."""
    multi = [k for k, sols in enumerate(parts) if len(sols) > 1]
    positions = multi and [t for m in gen.methods for t in (*m.params, m.ret)]
    # the positions of each component of several solutions, and each of its
    # solutions' printed forms there and its choice
    owned = {k: [j for j, t in enumerate(positions) if t in parts[k][0].final]
             for k in multi}
    keys = {k: [([E.type_rank(s.final[positions[j]]) for j in owned[k]],
                 s.choice, i) for i, s in enumerate(parts[k])]
            for k in multi}
    final, inferred = _joined([sols[min(keys[k])[2]] if k in keys else sols[0]
                               for k, sols in enumerate(parts)])
    fields = {n: final[t] for n, t in gen.field_terms.items()}
    rep = SolvedClass(
        _clause(CLASS, view, inferred, fields.values()), fields,
        [_typing(i, m, view, final, inferred)
         for i, m in enumerate(gen.methods)],
        {u: final[t] for u, t in gen.local_terms.items()})
    ordered = {}   # components -> their combinations of solutions, in order
    typings = [[t] for t in rep.methods]
    for i, sig in enumerate(gen.methods if multi else ()):
        span = [k for k, sols in enumerate(parts)
                if any(t.tphs for t in sols[0].comp.slots[("method", i)])]
        several = tuple(k for k in span if len(parts[k]) > 1)
        if several not in ordered:
            ordered[several] = _ordered(several, keys, owned, parts)
        # the first combination is the representative's
        for c in ordered[several][1:]:
            chosen = dict(zip(several, c))
            typings[i].append(_typing(i, sig, view, *_joined(
                [parts[k][chosen.get(k, 0)] for k in span])))
    return rep, typings


def _ordered(span, keys, owned, parts):
    """The combinations of one solution of each component of `span`, as
    tuples of indices, in the order of `_typings`: the solutions' keys
    `keys` merged, the printed forms by position (`owned` holds each
    component's) and the choices by group."""
    at = sorted((j, s, n) for s, k in enumerate(span)
                for n, j in enumerate(owned[k]))
    groups = sorted((g, s, n) for s, k in enumerate(span)
                    for n, g in enumerate(parts[k][0].comp.indices))

    def order(c):
        ks = [keys[k][x] for k, x in zip(span, c)]
        return ([ks[s][0][n] for _, s, n in at],
                [ks[s][1][n] for _, s, n in groups], c)

    return sorted(itertools.product(*(range(len(parts[k])) for k in span)),
                  key=order)


def _assemble(cls, gen, parts, table, stats):
    """The class's result from each component's generalized solutions
    `parts`: its representative and typings (`_typings`), named
    (`emit.name_solutions`), each method's intersection, and the class
    registered in `table` for later classes."""
    rep, typings = _typings(gen, table, parts)
    written, rep, typings = E.name_solutions(
        cls, rep, typings, table.entries, [s for sols in parts for s in sols])
    typed_cls = E.build_typed_class(written, rep)
    signatures = [(m.name, E.assemble_intersection_types(ts))
                  for m, ts in zip(cls.methods, typings)]
    used = [x for _, ts in signatures for t in ts for x in (*t.params, t.ret)]
    used += [*rep.field_terms.values(), *rep.local_terms.values()]
    _register(cls, table, signatures, rep)
    return ClassResult(cls, typed_cls, signatures, used,
                       [s.remaining for sols in parts for s in sols], stats)


def _register(cls, table, signatures, rep):
    """Make the inferred class usable from later classes: its typings
    replace the class entry's methods, each with the class's declared
    clause among its type parameters, as an annotated method has it; its
    field types fill the entry's fields, and `rep`'s class clause is the
    entry's `generics`, which another class's field read instantiates.  A
    placeholder becomes the template variable of its name; `rep` is named
    as `signatures` are.  The table makes the templates when the member
    index first reads the entry (see `ClassTable.register`)."""
    def template(term):
        return term and substitute(term, {n: ClassType(n) for n in term.tphs})

    def members():
        declared = [(v.name, b) for v, b in rep.class_generics
                    if isinstance(v, TypeVar)]
        methods = []
        for mname, ts in signatures:
            for t in ts:
                bound_by = {v.name: b for v, b in t.generics}
                methods.append(MethodSig(mname, declared + [
                    (n, template(bound_by.get(n)))
                    for n in dict.fromkeys([*t.names(), *bound_by])],
                    [template(p) for p in t.params], template(t.ret)))
        return (methods, {f.name: template(rep.field_terms[f.name])
                          for f in cls.fields},
                [(v.name, template(b)) for v, b in rep.class_generics])

    table.register(cls.name, members)


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
