"""The unifier's or-group frames against the flattened candidates they
replace: the same solutions, in the same order, with the same call sites
and fresh names."""

import importlib
import itertools
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jtxinfer import ResourceLimit, parse
from jtxinfer import pipeline as P
from jtxinfer.classtable import build_class_table
from jtxinfer.constraints import (Alternative, FreshNames, call_sites, doteq,
                                  flatten, generate_constraints, lessdot)
from jtxinfer.typeterms import ClassType, TPH, fun_type
from jtxinfer.unify import Solution, unify

from conftest import ALL_GOLDEN_SRCS, flattened_solutions

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def _wrapped(groups):
    """Groups of raw constraint lists as the unifier takes them."""
    return [[Alternative(constraints=alt) for alt in group]
            for group in groups]


def _compared(sols, gen):
    return [(s.choice, s.remaining, s.sigma, s.fresh.mark(), s.fresh.scopes,
             call_sites(gen, s.choice)) for s in sols]


def _reference(gen, table):
    return [(cand.choice, s.remaining, s.sigma, fresh.mark(), fresh.scopes,
             cand.call_sites)
            for cand, s, fresh in flattened_solutions(gen, table)]


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


# two classes declaring f; class C calls it on a receiver
TWO_FS = ("class A { f(x) { return x; } g() { return new A(); } }\n"
          "class B { f(x) { return x; } g() { return new B(); } }\n")

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
]

PROGRAMS = list(ALL_GOLDEN_SRCS.items()) + [
    (f"{w}:{p.name}", p.source)
    for w in ("paper-units", "ambiguity", "long-methods")
    for p in corpus.workload(w, 1)] + [
    (f"receiver:{body}", TWO_FS + f"class C {{ {body} }}")
    for body, *_ in RECEIVER_CASES]


def test_search_matches_flattened_candidates(monkeypatch):
    """Every class of the paper programs, of each workload's seed-1
    programs and of the receiver cases, in the pipeline's own table
    state; the search prunes receiver groups, the reference does not."""
    gens = []
    seen = Counter()

    def generate(cls, table):
        gens.append(generate_constraints(cls, table))
        return gens[-1]

    def checked_unify(constraints, table, fresh=None, stats=None,
                      groups=()):
        gen = gens[-1]
        sols = unify(constraints, table, fresh, stats, groups)
        assert _compared(sols, gen) == _reference(gen, table)
        seen["classes"] += 1
        seen["choices"] += len({s.choice for s in sols})
        return sols

    monkeypatch.setattr(P, "generate_constraints", generate)
    monkeypatch.setattr(P, "unify", checked_unify)
    for _, src in PROGRAMS:
        P.run_source(src)
    assert seen["classes"] == len(gens)
    assert seen["choices"] > seen["classes"]


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
        return [(s.choice, s.remaining, s.sigma, s.fresh.mark(),
                 s.fresh.scopes) for s in search()]
    except ResourceLimit:
        return "ResourceLimit"


def _flattened(base, groups):
    out = []
    for choice in itertools.product(*(range(len(g)) for g in groups)):
        cons = base + [c for g, i in zip(groups, choice) for c in g[i]]
        out.extend(Solution(s.remaining, s.sigma, choice, s.fresh)
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
    return [[alt.built for alt in group] for group in gen.groups]


@pytest.mark.parametrize("n", corpus.DEPTH_SIZES)
def test_depth_receivers_try_and_build_one_class(n):
    # D_i's receiver is `new D_{i-1}()`, so of the i classes declaring f
    # only D_{i-1} is tried and built
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
    # D_0 calls nothing and D_1's call has one alternative, in the base
    assert total["alternatives"] == n - 2
    assert total["pruned"] == sum(range(2, n)) - (n - 2)


@pytest.mark.parametrize("body, tried, pruned, built", RECEIVER_CASES)
def test_receiver_group_tries_the_classes_its_receiver_allows(
        body, tried, pruned, built):
    gen, stats = _searched(TWO_FS + f"class C {{ {body} }}")[-1]
    assert (stats["alternatives"], stats["pruned"]) == (tried, pruned)
    assert _built(gen) == built
