"""Subtype unification: simplification, branching, maximality."""

import importlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jtxinfer import (ResourceLimit, Untypable, parse, run_source,
                      signature_lines, unify)
from jtxinfer.classtable import CLASS, ClassTable, build_class_table
from jtxinfer.constraints import doteq, flatten, generate_constraints, lessdot
from jtxinfer.typeterms import VOID, ClassType, TPH, fun_type
from jtxinfer.unify import format_solution, transitive_closure

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

INT = ClassType("Integer")
NUM = ClassType("Number")
OBJ = ClassType("Object")
BOOL = ClassType("Boolean")
DBL = ClassType("Double")


@pytest.fixture(scope="module")
def table():
    return build_class_table(parse(
        "import java.lang.Double;\nimport java.util.Pair;\n"
        "class Scratch { f = x -> x; m(x, y) { return x <= y; } "
        "n() { var s = \"\"; return 1; } }"))


def solve(table, *cons):
    return unify(list(cons), table)


def sigma_of(sol):
    return sol.sigma_dict()


def test_ground_equal_succeeds(table):
    (sol,) = solve(table, doteq(INT, INT))
    assert sol.remaining == () and sol.sigma == ()


def test_ground_unequal_fails(table):
    assert solve(table, doteq(INT, BOOL)) == []


def test_ground_subtype_checks(table):
    assert len(solve(table, lessdot(INT, NUM))) == 1
    assert solve(table, lessdot(NUM, INT)) == []


def test_doteq_binds_placeholder(table):
    (sol,) = solve(table, doteq(TPH("T"), INT))
    assert sigma_of(sol)["T"] == INT


def test_doteq_two_placeholders_binds_newer_to_older(table):
    (sol,) = solve(table, doteq(TPH("ZZ"), TPH("A")))
    assert sigma_of(sol)["ZZ"] == TPH("A")
    (sol,) = solve(table, doteq(TPH("A"), TPH("ZZ")))
    assert sigma_of(sol)["ZZ"] == TPH("A")


def test_tph_pair_lessdot_remains(table):
    (sol,) = solve(table, lessdot(TPH("T"), TPH("U")))
    assert sol.remaining == (("T", "U"),)


def test_lower_expansion_branches_over_subtypes(table):
    sols = solve(table, lessdot(TPH("T"), NUM))
    values = {str(sigma_of(s)["T"]) for s in sols}
    assert values == {"Integer", "Double", "Number"}


def test_upper_expansion_branches_over_chain(table):
    # T also sits below U, so it is no sink: every chain member is tried
    sols = solve(table, lessdot(INT, TPH("T")), lessdot(TPH("T"), TPH("U")))
    values = {str(sigma_of(s)["T"]) for s in sols}
    assert values == {"Integer", "Number", "Object"}


def test_sink_takes_least_common_supertype(table):
    stats = Counter()
    (sol,) = unify([lessdot(INT, TPH("T")), lessdot(DBL, TPH("T"))], table,
                   stats=stats)
    assert sigma_of(sol)["T"] == NUM
    assert stats["sinks"] == 1


def test_placeholder_nested_in_parked_constraint_still_branches(table):
    # T is nested in the lambda type below F; S is a sink
    cons = [lessdot(INT, TPH("S")), lessdot(INT, TPH("T")),
            lessdot(fun_type((TPH("X"),), TPH("T")), TPH("F"))]
    sols = solve(table, *cons)
    assert {str(sigma_of(s)["T"]) for s in sols} == {
        "Integer", "Number", "Object"}
    assert {str(sigma_of(s)["S"]) for s in sols} == {"Integer"}


def test_typevar_with_variant_bound_keeps_branching(table):
    # X's chain holds a shaped Fun1$$ choice, so T is no sink; S is one
    scoped = ClassTable(table.entries,
                        {CLASS: (("X", fun_type((INT,), INT)),)})
    sols = unify([lessdot(INT, TPH("S")), lessdot(ClassType("X"), TPH("T"))],
                 scoped)
    assert {str(sigma_of(s)["T"]) for s in sols} == {
        "X", "Object", "Fun1$$<Integer, Integer>", "Fun1$$<Integer, Number>",
        "Fun1$$<Integer, Object>"}
    assert {str(sigma_of(s)["S"]) for s in sols} == {"Integer"}


def test_object_upper_bound_dropped(table):
    (sol,) = solve(table, lessdot(TPH("T"), OBJ))
    assert sol.remaining == () and sol.sigma == ()


def test_void_has_no_subtypes(table):
    assert solve(table, lessdot(VOID, OBJ)) == []
    assert solve(table, lessdot(INT, VOID)) == []
    (sol,) = solve(table, doteq(VOID, VOID))
    assert sol.remaining == ()


def test_pair_decomposition_invariant(table):
    p = lambda a, b: ClassType("Pair", (a, b))
    (sol,) = solve(table, lessdot(p(TPH("T"), INT), p(NUM, INT)))
    assert sigma_of(sol)["T"] == NUM
    assert solve(table, lessdot(p(INT, INT), p(NUM, INT))) == []


def test_fun_decomposition_contravariant(table):
    f = lambda a, r: fun_type((a,), r)
    # Integer <. R makes R a sink, which takes its least type
    sols = solve(table, lessdot(f(NUM, INT), f(INT, TPH("R"))))
    values = {str(sigma_of(s)["R"]) for s in sols}
    assert values == {"Integer"}
    assert solve(table, lessdot(f(INT, INT), f(NUM, INT))) == []


def test_occurs_check(table):
    p = lambda a, b: ClassType("Pair", (a, b))
    assert solve(table, doteq(TPH("T"), p(TPH("T"), INT))) == []


def test_solutions_are_maximal_and_distinct(table):
    sols = solve(table, lessdot(TPH("T"), NUM), lessdot(TPH("T"), INT))
    values = {str(sigma_of(s)["T"]) for s in sols}
    assert values == {"Integer"}


def test_format_solution(table):
    (sol,) = solve(table, lessdot(TPH("T"), TPH("U")), doteq(TPH("V"), INT))
    text = format_solution(sol)
    assert text.splitlines()[0] == "remaining:"
    assert "  T < U" in text
    assert "  V -> Integer" in text
    assert "sigma:" in text


def test_transitive_closure():
    rel = transitive_closure([("A", "B"), ("B", "C")])
    assert ("A", "C") in rel
    assert ("A", "A") in rel and ("C", "C") in rel
    assert ("C", "A") not in rel


def test_transitive_closure_of_a_cycle_and_a_self_loop():
    cycle = transitive_closure([("A", "B"), ("B", "C"), ("C", "A")])
    assert cycle == {(a, b) for a in "ABC" for b in "ABC"}
    assert transitive_closure([("A", "A")]) == {("A", "A")}
    assert transitive_closure([("A", "A"), ("A", "B")]) == {
        ("A", "A"), ("A", "B"), ("B", "B")}


def _fixed_point_closure(pairs):
    """The closure by a fixed point over all pairs of pairs: cubic, kept
    as the oracle."""
    names = set()
    rel = set()
    for l, r in pairs:
        names.update((l, r))
        rel.add((l, r))
    for n in names:
        rel.add((n, n))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ABCDEF"),
                          st.sampled_from("ABCDEF")), max_size=12))
def test_transitive_closure_vs_fixed_point(pairs):
    assert transitive_closure(pairs) == _fixed_point_closure(pairs)


def test_untypable_constraint_set(table):
    assert solve(table, lessdot(BOOL, NUM)) == []


def test_step_budget_raises_resource_limit(table, monkeypatch):
    # three choices of T, each with the sink U = Integer: five pops
    cons = [lessdot(TPH("T"), NUM), lessdot(INT, TPH("U"))]
    monkeypatch.setattr(UNIFY, "MAX_STEPS", 5)
    assert len(solve(table, *cons)) == 3
    monkeypatch.setattr(UNIFY, "MAX_STEPS", 4)
    with pytest.raises(ResourceLimit):
        solve(table, *cons)


def long_method(n):
    """One method of n statements, `var vi = v(i-1) * 2;`, that returns
    the last variable."""
    body = ["var v0 = 1;"] + [f"var v{i} = v{i - 1} * 2;" for i in range(1, n)]
    return f"class L {{ m() {{ {' '.join(body)} return v{n - 1}; }} }}"


def long_method_steps(n):
    program = parse(long_method(n))
    table = build_class_table(program)
    gen = generate_constraints(program.classes[0], table)
    (cand,) = flatten(gen, table)
    stats = Counter()
    unify(cand.constraints, table, gen.fresh.clone(), stats=stats)
    return stats["steps"]


def test_refutable_candidate_has_one_solution():
    # five locals `var vi = a + i;` and the return: each is a sink
    program = parse(corpus.refutable_unit(5, random.Random(0)).source)
    table = build_class_table(program)
    gen = generate_constraints(program.classes[0], table)
    (cand,) = flatten(gen, table)
    assert len(unify(cand.constraints, table, gen.fresh.clone())) == 1


def test_work_grows_linearly_with_method_length():
    assert long_method_steps(400) <= 2.5 * long_method_steps(200)


def test_thousand_statement_method_types():
    result = run_source(long_method(1000))
    assert signature_lines(result) == ["L.m : () -> Integer"]
