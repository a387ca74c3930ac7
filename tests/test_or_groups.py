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
from jtxinfer.constraints import (FreshNames, call_sites, doteq, flatten,
                                  generate_constraints, lessdot)
from jtxinfer.typeterms import ClassType, TPH, fun_type
from jtxinfer.unify import Solution, unify

from conftest import ALL_GOLDEN_SRCS, flattened_solutions

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def _alternatives(gen):
    return [[alt.constraints for alt in group] for group in gen.groups]


def _compared(sols, gen):
    return [(s.choice, s.remaining, s.sigma, s.fresh.mark(), s.fresh.scope,
             call_sites(gen, s.choice)) for s in sols]


def _reference(gen, table):
    return [(cand.choice, s.remaining, s.sigma, fresh.mark(), fresh.scope,
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
                 groups=_alternatives(gen))
    assert stats["alternatives"] == 3
    assert len(sols) == 1


PROGRAMS = list(ALL_GOLDEN_SRCS.items()) + [
    (f"{w}:{p.name}", p.source)
    for w in ("paper-units", "ambiguity", "long-methods")
    for p in corpus.workload(w, 1)]


def test_search_matches_flattened_candidates(monkeypatch):
    """Every class of the paper programs and of each workload's seed-1
    programs, in the pipeline's own table state."""
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
                 s.fresh.scope) for s in search()]
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
    got = _outcome(lambda: unify(base, _TABLE, _names(), groups=groups))
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
                 groups=_alternatives(gen))
    assert stats["steps"] > longest
    assert _compared(sols, gen) == _reference(gen, table)
    monkeypatch.setattr(UNIFY, "MAX_STEPS", longest - 1)
    with pytest.raises(ResourceLimit):
        unify(gen.base, table, gen.fresh.clone(), groups=_alternatives(gen))


@settings(max_examples=100, deadline=None)
@given(st.lists(_constraint, max_size=3),
       st.lists(_group, min_size=1, max_size=3))
def test_search_matches_flattened_random_sets(base, groups):
    # a small budget, since a set can expand without end
    with mock.patch.object(UNIFY, "MAX_STEPS", 2_000):
        got = _outcome(lambda: unify(base, _TABLE, _names(), groups=groups))
        want = _outcome(lambda: _flattened(base, groups))
    assert got == want
