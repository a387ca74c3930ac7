"""The unifier's or-group frames against the flattened candidates they
replace: the same solutions, in the same order, with the same call sites
and fresh names."""

import importlib
import itertools
import random
import re
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from jtxinfer import ResourceLimit, parse
from jtxinfer import emit, generics, pipeline as P
from jtxinfer.classtable import CLASS, MethodSig, build_class_table
from jtxinfer.constraints import (Alternative, FreshNames, GenResult,
                                  call_sites, doteq, flatten,
                                  generate_constraints, lessdot)
from jtxinfer.typeterms import VOID, ClassType, TPH, fun_type, tph_number
from jtxinfer.unify import Solution, unify

from conftest import (ALL_GOLDEN_SRCS, flattened_solutions, independent_sums,
                      joined_solutions, typings_of_every_combination)

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def _wrapped(groups):
    """Groups of raw constraint lists as the unifier takes them."""
    return [[Alternative(constraints=alt) for alt in group]
            for group in groups]


def _compared(sols, gen):
    return [(s.choice, s.remaining, s.sigma, s.drawn,
             call_sites(gen, s.choice)) for s in sols]


def _reference(gen, table):
    return [(cand.choice, s.remaining, s.sigma, s.drawn, cand.call_sites)
            for cand, s in flattened_solutions(gen, table)]


def test_refuted_alternatives_are_counted():
    # `x + x` on Integer: the Double and String alternatives are refuted
    program = parse("import java.lang.Integer;\nimport java.lang.Double;\n"
                    "import java.lang.String;\n"
                    "class A { Integer m(Integer x) { return x + x; } }")
    table = build_class_table(program)
    gen = generate_constraints(program.classes[0], table)
    assert [len(g) for g in gen.groups] == [3]
    stats = Counter()
    sols = unify(gen.base, table, gen.fresh.clone(), stats=stats,
                 groups=gen.groups)
    assert stats["alternatives"] == 3
    assert len(sols) == 1


# two classes declaring f and a field h; class C calls f or reads h on a
# receiver
TWO_FS = ("class A { Integer h; f(x) { return x; } "
          "g() { return new A(); } }\n"
          "class B { String h; f(x) { return x; } "
          "g() { return new B(); } }\n")

RECEIVER_CASES = [
    # a lower bound `new A()`: only A
    ("m(x) { var d = new A(); return d.f(x); }", 1, 1, [[True, False]]),
    # a parameter has no lower bound: every class
    ("m(d, x) { return d.f(x); }", 2, 0, [[True, True]]),
    # a declared variable below A: only A
    ("<T extends A> m(T t, x) { var d = t; return d.f(x); }", 1, 1,
     [[True, False]]),
    # `.f`'s receiver is bound to A or B by the choice at `.g`
    ("m(p, x) { return p.g().f(x); }", 4, 2, [[True, True], [True, True]]),
    # a field read: one alternative per class whose field has a term, the
    # class being inferred among them
    ("m() { var d = new A(); return d.h; }", 1, 1, [[True, False]]),
    ("m(d) { return d.h; }", 2, 0, [[True, True]]),
    ("h; m(d) { return d.h; }", 3, 0, [[True, True, True]]),
]

# two receiver groups over A and B: apart, and joined through the class's
# own `f`, whose slot terms the alternatives of its candidate mention: its
# parameter is above Integer and String at once when both calls take it;
# apart, the second drawing names for the lambda's function type;
# apart, each with a bound cycle, which each collapses; and apart, the
# second with one solution, as its receiver is known to be an A
SPLIT_CASES = [
    "m(o, p, x, z) { var a = o.f(x); var b = p.f(z); return a; }",
    "m(o, p) { var a = o.f(1); var b = p.f(\"s\"); return a; } "
    "f(y) { return y; }",
    "m(o, p, x) { var a = o.f(x); var b = p.f(y -> y); return b; }",
    "m(o, p, x, y, z, w) { x = y; y = x; z = w; w = z; var a = o.f(x); "
    "var b = p.f(z); return a; }",
    "m(p, x, y) { var d = new A(); var a = p.f(x); var b = d.f(y); "
    "return b; }",
]

PROGRAMS = list(ALL_GOLDEN_SRCS.items()) + [
    (f"{w}:{p.name}", p.source)
    for w in ("paper-units", "ambiguity", "long-methods")
    for p in corpus.workload(w, 1)] + [
    (f"receiver:{body}", TWO_FS + f"class C {{ {body} }}")
    for body, *_ in RECEIVER_CASES] + [
    (f"split:{body}", TWO_FS + f"class C {{ {body} }}")
    for body in SPLIT_CASES]


def test_search_matches_flattened_candidates(monkeypatch):
    """Every class of the paper programs, of each workload's seed-1
    programs and of the receiver cases, in the pipeline's own table
    state: the class's search, its components joined, against one
    search per candidate.  The search prunes receiver groups, the
    reference does not."""
    seen = Counter()
    search = P._search

    def checked_search(gen, view, stats):
        parts = search(gen, view, stats)
        sols = [s.solution() for s in joined_solutions(parts, gen)]
        assert _compared(sols, gen) == _reference(gen, view)
        seen["classes"] += 1
        seen["split"] += len(parts) > 1
        seen["choices"] += len({s.choice for s in sols})
        return parts

    monkeypatch.setattr(P, "_search", checked_search)
    classes = sum(len(P.run_source(src).class_results)
                  for _, src in PROGRAMS)
    assert seen["classes"] == classes
    assert seen["choices"] > seen["classes"]
    # surviving/n2's two calls on `OL` and the first split case are
    # searched apart
    assert seen["split"] >= 2


# --- random base and or-group constraint sets -------------------------------

_TABLE = build_class_table(parse(
    "import java.lang.Integer;\nimport java.lang.Double;\n"
    "import java.lang.String;\nimport java.util.Pair;\n"
    "class Scratch { f = x -> x; }"))

# generated-style names, so the fresh names drawn come after them
_TPHS = [TPH(n) for n in "ABC"]
_INT = ClassType("Integer")
_ATOMS = [ClassType(n) for n in ("Integer", "Double", "Number", "String",
                                 "Object")]

_leaf = st.sampled_from(_TPHS + _ATOMS)
_term = st.one_of(
    _leaf,
    st.builds(lambda a, b: ClassType("Pair", (a, b)), _leaf, _leaf),
    st.builds(lambda a, b: fun_type([a], b), _leaf, _leaf))
# a placeholder on at least one side, so that most sets are satisfiable
_constraint = st.one_of(
    st.builds(lessdot, st.sampled_from(_TPHS), _term),
    st.builds(lessdot, _term, st.sampled_from(_TPHS)),
    st.builds(doteq, st.sampled_from(_TPHS), _term))
_group = st.lists(st.lists(_constraint, min_size=1, max_size=2),
                  min_size=1, max_size=3)


def _names():
    """The names of the program: fresh ones are drawn after them."""
    fresh = FreshNames()
    for t in _TPHS:
        fresh.adopt(t.name)
    return fresh


def _outcome(search):
    try:
        return [(s.choice, s.remaining, s.sigma, s.drawn)
                for s in search()]
    except ResourceLimit:
        return "ResourceLimit"


def _flattened(base, groups):
    out = []
    for choice in itertools.product(*(range(len(g)) for g in groups)):
        cons = base + [c for g, i in zip(groups, choice) for c in g[i]]
        out.extend(Solution(s.remaining, s.sigma, choice, s.drawn)
                   for s in unify(cons, _TABLE, _names()))
    return out


def test_undo_restores_the_parking_order():
    # the first choice binds B, which unparks A < B; the second binds A,
    # which re-queues A < B and A < C, in their parking order, and the
    # upper expansions of B and C draw fresh names in that order
    a, b, c = _TPHS
    base = [lessdot(a, b), lessdot(a, c)]
    groups = [[[doteq(b, _INT)],
               [doteq(a, fun_type([_INT], _INT))]]]
    got = _outcome(lambda: unify(base, _TABLE, _names(),
                                 groups=_wrapped(groups)))
    assert got == _outcome(lambda: _flattened(base, groups))
    assert {choice for choice, *_ in got} == {(0,), (1,)}


def test_step_budget_is_per_choice(monkeypatch):
    # nine choices; the budget holds the steps of the longest candidate,
    # a fraction of those of the whole search
    program = parse("import java.lang.Integer;\nimport java.lang.Double;\n"
                    "import java.lang.String;\n"
                    "class A { m(x, y) { var a = x + x; var b = y * y; "
                    "return a; } }")
    table = build_class_table(program)
    gen = generate_constraints(program.classes[0], table)
    longest = 0
    for cand in flatten(gen, table):
        stats = Counter()
        unify(cand.constraints, table, gen.fresh.clone(), stats=stats)
        longest = max(longest, stats["steps"])
    monkeypatch.setattr(UNIFY, "MAX_STEPS", longest)
    stats = Counter()
    sols = unify(gen.base, table, gen.fresh.clone(), stats=stats,
                 groups=gen.groups)
    assert stats["steps"] > longest
    assert _compared(sols, gen) == _reference(gen, table)
    monkeypatch.setattr(UNIFY, "MAX_STEPS", longest - 1)
    with pytest.raises(ResourceLimit):
        unify(gen.base, table, gen.fresh.clone(), groups=gen.groups)


@settings(max_examples=100, deadline=None)
@given(st.lists(_constraint, max_size=3),
       st.lists(_group, min_size=1, max_size=3))
def test_search_matches_flattened_random_sets(base, groups):
    # a small budget, since a set can expand without end
    with mock.patch.object(UNIFY, "MAX_STEPS", 2_000):
        got = _outcome(lambda: unify(base, _TABLE, _names(),
                                     groups=_wrapped(groups)))
        want = _outcome(lambda: _flattened(base, groups))
    assert got == want


# --- independent or-groups searched apart ----------------------------------

# three pools of placeholders that no constraint mixes; the names drawn
# come after all of them
_POOLS = [[TPH(n) for n in pool] for pool in ("AB", "CD", "EF")]


def _pool_names():
    fresh = FreshNames()
    for pool in _POOLS:
        for t in pool:
            fresh.adopt(t.name)
    return fresh


def _pool_constraint(pool):
    leaf = st.sampled_from(pool + _ATOMS)
    term = st.one_of(
        leaf,
        st.builds(lambda a, b: ClassType("Pair", (a, b)), leaf, leaf),
        st.builds(lambda a, b: fun_type([a], b), leaf, leaf))
    tph = st.sampled_from(pool)
    return st.one_of(st.builds(lessdot, tph, term),
                     st.builds(lessdot, term, tph),
                     st.builds(doteq, tph, term))


@st.composite
def _independent(draw):
    """Base constraints and two or more or-groups over two or three pools,
    each pool with a group, interleaved in a drawn order."""
    pools = _POOLS[:draw(st.integers(2, 3))]
    base, groups = [], []
    for pool in pools:
        c = _pool_constraint(pool)
        base += draw(st.lists(c, max_size=2))
        groups += draw(st.lists(st.lists(st.lists(c, min_size=1, max_size=2),
                                         min_size=1, max_size=3),
                                min_size=1, max_size=2))
    return (draw(st.permutations(base)), draw(st.permutations(groups)))


def _canonical(sol):
    """A solution with the names drawn by its search renamed in order of
    first use, by the substitution of the names it was given, then its
    remaining pairs.  The drawn names that are bound come last, as the
    sorted list of their renamed terms: the order of their names is the
    order of the draws."""
    given = _pool_names().mark()
    drawn = {}

    def renamed(term, new=True):
        def name(m):
            n = m.group()
            if tph_number(n) < given:
                return n
            return (drawn.setdefault(n, f"#{len(drawn)}") if new
                    else drawn.get(n, "#?"))
        return re.sub(r"\b[A-Z]+\b", name, str(term))

    sigma = [(n, renamed(t)) for n, t in sol.sigma if tph_number(n) < given]
    remaining = sorted(renamed(f"{l} < {r}") for l, r in sol.remaining)
    bound = sorted(renamed(t, new=False) for n, t in sol.sigma
                   if tph_number(n) >= given)
    return sol.choice, sigma, remaining, bound


_A, _B = _POOLS[0]
_C, _D = _POOLS[1]
_STRING, _OBJECT = ClassType("String"), ClassType("Object")


@settings(max_examples=150, deadline=None)
@given(_independent())
# the groups of one component on both sides of the other's: the joined
# choices are sorted, not taken in the order of the components' product
@example(([lessdot(_A, _B)], [[[doteq(_A, _INT)], [doteq(_A, _STRING)]],
                             [[doteq(_C, _INT)], [doteq(_C, _STRING)]],
                             [[doteq(_B, _OBJECT)], [doteq(_B, _A)]]]))
# the first component runs out of steps and the second has no solution:
# the class has none, as one search finds
@example(([], [[[lessdot(_A, fun_type([_A], _A))]],
               [[lessdot(_C, ClassType("Pair", (_C, _C)))]]]))
# both components draw the arguments of a Pair below a Pair: apart
@example(([], [[[lessdot(_B, ClassType("Pair", (_A, _A)))]],
               [[lessdot(_D, ClassType("Pair", (_C, _C)))]]]))
def test_split_search_matches_one_search(sets):
    """The pipeline's search of independent or-groups, one component at a
    time and joined, gives the solutions of one search over them all: the
    same choices in the same order, and the same solutions of each, up to
    the names drawn.  Within a choice `unify` sorts the solutions by their
    names, which the two searches draw apart, so a choice's solutions are
    compared in a canonical order; where no name is drawn, the lists are
    equal as they are."""
    base, groups = sets
    gen = GenResult(base=base, groups=_wrapped(groups), fresh=_pool_names())
    assert len(P._components(gen)) > 1
    with mock.patch.object(UNIFY, "MAX_STEPS", 2_000):
        try:
            whole = unify(base, _TABLE, _pool_names(), groups=gen.groups)
        except ResourceLimit:
            # a component's choice pops no more than the whole search's
            return
        split = [s.solution() for s in joined_solutions(
            P._search(gen, _TABLE, Counter()), gen)]
    given = _pool_names().mark()
    if all(s.drawn == given for s in (*whole, *split)):
        assert split == whole
    assert [s.choice for s in split] == [s.choice for s in whole]
    assert sorted(map(_canonical, split)) == sorted(map(_canonical, whole))


def _held(s):
    """The placeholder names `_Solved` `s` holds: its substitution's keys
    and terms and its remaining pairs."""
    return {*s.sigma, *(n for t in s.sigma.values() for n in t.tphs),
            *(n for pair in s.remaining for n in pair)}


def test_joined_solutions_hold_only_names_they_counted(monkeypatch):
    """A class solution joins one solution per component, so no two of
    them may share a name.  Every generated name a component's solution
    holds comes before its count `drawn`, and generalization draws no
    name that a solution of the class holds, nor one that another
    component's generalization draws: the paper programs, the split cases
    and surviving/n1..n3."""
    seen = Counter()
    held = set()   # the names the solutions of the class hold
    drawn = {}     # a name generalization drew -> its component
    comp = []      # the component being generalized
    search, generalize, name = P._search, P._Solved.generalize, \
        generics.tph_name

    def checked_search(gen, view, stats):
        parts = search(gen, view, stats)
        held.clear()
        drawn.clear()
        for k, sols in enumerate(parts):
            for s in sols:
                assert all(tph_number(n) < s.drawn for n in _held(s))
                held.update(_held(s))
                seen["late"] += k > 0 and s.drawn > max(
                    t.drawn for t in parts[k - 1])
        seen["split"] += len(parts) > 1
        return parts

    def checked_generalize(self, start):
        comp[:] = [self.comp]
        return generalize(self, start)

    def checked_name(n):
        assert name(n) not in held
        assert drawn.setdefault(name(n), comp[0]) is comp[0]
        seen["collapses"] += 1
        seen["split collapses"] += len(set(map(id, drawn.values()))) > 1
        return name(n)

    monkeypatch.setattr(P, "_search", checked_search)
    monkeypatch.setattr(P._Solved, "generalize", checked_generalize)
    monkeypatch.setattr(generics, "tph_name", checked_name)
    for src in [*ALL_GOLDEN_SRCS.values(),
                *(TWO_FS + f"class C {{ {body} }}" for body in SPLIT_CASES),
                *(corpus.surviving_unit(n, random.Random(n)).source
                  for n in (1, 2, 3))]:
        P.run_source(src, dump_stages=("solutions",))
    # the third split case's second component draws names for its lambda,
    # and both components of the fourth collapse a cycle
    assert seen["split"] and seen["late"] and seen["split collapses"]


# --- components generalized apart ------------------------------------------

_MEMBERS = [CLASS, ("method", 0), ("method", 1)]


def _members_gen(base, groups, members):
    """A class over the pools' constraints whose slot terms are the pools'
    placeholders, each declared by the member `members` gives it: a field
    of the class or a parameter of one of two void methods."""
    slots = {m: [] for m in _MEMBERS}
    for t, m in zip((t for pool in _POOLS for t in pool), members):
        slots[m].append(t)
    methods = [MethodSig(f"m{i}", [], list(slots[("method", i)]), VOID)
               for i in range(2)]
    for i in range(2):
        slots[("method", i)].append(VOID)
    return GenResult(base=base, groups=_wrapped(groups), fresh=_pool_names(),
                     methods=methods, slots=slots,
                     field_terms={f"f{i}": t
                                  for i, t in enumerate(slots[CLASS])})


def _printed(gen, rep, typings, parts):
    """The class's printed typings per method, its field terms and its
    class clause."""
    _, rep, typings = emit.name_solutions(None, rep, typings, {}, parts)
    return ([[emit.format_typing(t)
              for t in emit.assemble_intersection_types(ts)]
             for ts in typings],
            [str(t) for t in rep.field_terms.values()],
            str(rep.class_generics))


def _check_typings(gen, view, done):
    """`_typings` of the generalized components `done` against generalizing
    every joined combination: for every method the same members up to
    renaming, and the same printed typings, fields and class clause where
    no component but the last collapses a name, as the joined
    combinations name those after the last component's count too.
    Returns whether the printed forms were compared."""
    got = P._typings(gen, view, done)
    want = typings_of_every_combination(gen, view, done)
    for mine, every in zip(got[1], want[1]):
        assert ({emit._canonical(t) for t in mine}
                == {emit._canonical(t) for t in every})
    if any(tph_number(v.name) >= s.drawn for sols in done[:-1] for s in sols
           for pairs in s.clauses.values() for v, _ in pairs):
        return False
    assert (_printed(gen, *got, [s for sols in done for s in sols])
            == _printed(gen, *want, []))
    return True


@settings(max_examples=150, deadline=None)
@given(_independent(),
       st.lists(st.sampled_from(_MEMBERS), min_size=6, max_size=6))
def test_components_generalized_apart_print_every_combination(sets,
                                                              members):
    """Each component's solutions generalized on their own print what
    generalizing every joined combination prints (`_check_typings`)."""
    gen = _members_gen(*sets, members)
    with mock.patch.object(UNIFY, "MAX_STEPS", 2_000):
        try:
            parts = P._search(gen, _TABLE, Counter())
        except ResourceLimit:
            return
    parts = [P._minimal(P._dedup(sols), _TABLE) for sols in parts]
    if all(parts):
        _check_typings(gen, _TABLE, P._generalize(parts))


def test_split_programs_print_every_combination(monkeypatch):
    """`_check_typings` on every class of the split cases, of surviving/n1..n3
    and of the independent sums at k = 1..4, in the pipeline's own table
    state: methods inside one component and across several, components of
    one solution among them, and collapses in an earlier component."""
    seen = Counter()
    assemble = P._assemble

    def checked(cls, gen, done, view, stats):
        seen["classes"] += 1
        seen["split"] += len(done) > 1
        seen["single"] += len(done) > 1 and min(map(len, done)) == 1
        seen["printed"] += _check_typings(gen, view, done)
        return assemble(cls, gen, done, view, stats)

    monkeypatch.setattr(P, "_assemble", checked)
    for src in [*(TWO_FS + f"class C {{ {body} }}" for body in SPLIT_CASES),
                *(corpus.surviving_unit(n, random.Random(n)).source
                  for n in (1, 2, 3)),
                *map(independent_sums, range(1, 5))]:
        P.run_source(src)
    assert seen["split"] >= 8 and seen["single"]
    assert seen["classes"] > seen["printed"] > seen["split"]


@pytest.mark.parametrize("k", range(1, 8))
def test_independent_sums_generalize_each_component_solution_once(
        k, monkeypatch):
    # k methods of three typings each: k components of three solutions,
    # each generalized once, where every combination took 3^k
    calls = Counter()
    generalize = P._Solved.generalize

    def counted(self, start):
        calls["generalize"] += 1
        return generalize(self, start)

    monkeypatch.setattr(P._Solved, "generalize", counted)
    lines = P.signature_lines(P.run_source(independent_sums(k)))
    assert calls["generalize"] == 3 * k
    assert lines == [f"C.m{i} : (Integer, Integer) -> Integer & "
                     "(Double, Double) -> Double & (String, String) -> String"
                     for i in range(k)]


@pytest.mark.parametrize("n", range(1, 5))
def test_surviving_main_generalizes_each_component_solution_once(
        n, monkeypatch):
    # Main's n calls are n components of four solutions: 4n
    # generalizations, where every combination took 4^n; Main still
    # prints its 4^n members
    calls = Counter()
    generalize = P._Solved.generalize

    def counted(self, start):
        calls[self.gen.methods[0].name] += 1
        return generalize(self, start)

    monkeypatch.setattr(P._Solved, "generalize", counted)
    unit = corpus.surviving_unit(n, random.Random(n))
    lines = P.signature_lines(P.run_source(unit.source))
    assert calls["main"] == 4 * n
    assert lines == list(unit.sigs)


# --- receiver groups filtered at their frame -------------------------------

def _searched(src):
    """[(generation result, unify stats)] of each class of `src`, as the
    pipeline searches it (no dump, so nothing else builds alternatives)."""
    out = []

    def generate(cls, table):
        out.append((generate_constraints(cls, table), Counter()))
        return out[-1][0]

    def counted(constraints, table, fresh=None, stats=None, groups=()):
        return unify(constraints, table, fresh, out[-1][1], groups)

    with mock.patch.object(P, "generate_constraints", generate), \
            mock.patch.object(P, "unify", counted):
        P.run_source(src)
    return out


def _built(gen):
    return [[i in group.built for i in range(len(group))]
            for group in gen.groups]


@pytest.mark.parametrize("n", corpus.DEPTH_SIZES)
def test_depth_receivers_try_and_build_one_class(n):
    # D_i's receiver is `new D_{i-1}()`, so of the i + 1 classes declaring
    # f, D_i itself among them, only D_{i-1} is tried and built
    (prog,) = [p for p in corpus.workload("paper-units", 1)
               if p.name == f"depth/n{n}"]
    classes = _searched(prog.source)
    assert len(classes) == n
    total = Counter()
    for gen, stats in classes:
        assert stats["alternatives"] <= 1
        assert sum(map(sum, _built(gen))) == stats["alternatives"]
        # one frame per group: what it skips plus what it tries is the group
        assert (stats["alternatives"] + stats["pruned"]
                == sum(len(g) for g in gen.groups))
        total += stats
    # D_0 calls nothing and D_1's call is a group of two alternatives
    assert total["alternatives"] == n - 1
    assert total["pruned"] == n * (n - 1) // 2


@pytest.mark.parametrize("n", corpus.DEPTH_SIZES)
def test_depth_receiver_groups_scale_with_one_candidate(n):
    # D_i's group has i + 1 candidates, yet D_i builds and tries one of
    # them and draws the names of one: its slots, its local, the call's
    # result and one block for f's two type parameters
    (prog,) = [p for p in corpus.workload("paper-units", 1)
               if p.name == f"depth/n{n}"]
    classes = _searched(prog.source)
    built = sum(sum(map(sum, _built(gen))) for gen, _ in classes)
    tried = sum(stats["alternatives"] for _, stats in classes)
    assert built == tried == n - 1
    assert [gen.fresh.mark() for gen, _ in classes] == [2] + [6] * (n - 1)


@pytest.mark.parametrize("body, tried, pruned, built", RECEIVER_CASES)
def test_receiver_group_tries_the_classes_its_receiver_allows(
        body, tried, pruned, built):
    gen, stats = _searched(TWO_FS + f"class C {{ {body} }}")[-1]
    assert (stats["alternatives"], stats["pruned"]) == (tried, pruned)
    assert _built(gen) == built


# --- class bounds refute the alternatives a shared operand rules out --------

def _shared_operands(n):
    """n locals `var vi = a + b;` over the same two parameters, with the
    Integer, Double and String `+` visible."""
    body = " ".join(f"var v{i} = a + b;" for i in range(n))
    return ("import java.lang.Integer;\nimport java.lang.Double;\n"
            "import java.lang.String;\n"
            f"class C {{ m(a, b) {{ {body} return a; }} }}")


@pytest.mark.parametrize("n", range(3, 13))
def test_shared_operands_try_linearly_many_alternatives(n):
    # the first `+` tries its three alternatives; under each, every later
    # `+` tries three, and the two whose class differs from the one `a`
    # and `b` are already below fail on their class bounds at once: 9n - 6
    # alternatives, no search frame, one typing per class
    ((_, stats),) = _searched(_shared_operands(n))
    assert (stats["alternatives"], stats["frames"]) == (9 * n - 6, 0)
    assert P.signature_lines(P.run_source(_shared_operands(n))) == [
        "C.m : (Integer, Integer) -> Integer & (Double, Double) -> Double"
        " & (String, String) -> String"]
