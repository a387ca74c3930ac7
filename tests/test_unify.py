"""Subtype unification: simplification, branching, maximality."""

import importlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jtxinfer import (JtxError, ResourceLimit, Untypable, parse,
                      run_source, signature_lines, unify)
from jtxinfer.classtable import (CLASS, ClassTable, build_class_table,
                                  class_view)
from jtxinfer.constraints import (FreshNames, doteq, flatten,
                                  generate_constraints, lessdot)
from jtxinfer.emit import MethodTyping
from jtxinfer.typeterms import VOID, ClassType, TPH, TypeVar, fun_type
from jtxinfer.generics import transitive_closure
from jtxinfer.unify import format_solution

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")
PIPELINE = importlib.import_module("jtxinfer.pipeline")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402
from conftest import ALL_GOLDEN_SRCS, PINNED_SRCS  # noqa: E402

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


def test_sink_below_a_placeholder_takes_its_least_type(table):
    # an upper bound does not keep T from being a sink; then U is one too
    stats = Counter()
    (sol,) = unify([lessdot(INT, TPH("T")), lessdot(TPH("T"), TPH("U"))],
                   table, stats=stats)
    assert sigma_of(sol) == {"T": INT, "U": INT}
    assert stats["sinks"] == 2


def test_sink_below_a_class_type_takes_its_least_type(table):
    (sol,) = solve(table, lessdot(INT, TPH("T")), lessdot(TPH("T"), NUM))
    assert sigma_of(sol) == {"T": INT}
    assert solve(table, lessdot(INT, TPH("T")), lessdot(TPH("T"), DBL)) == []


def test_placeholder_lower_bound_keeps_branching(table):
    # S < T: T's least type depends on what S takes, so T branches
    stats = Counter()
    sols = unify([lessdot(INT, TPH("T")), lessdot(TPH("S"), TPH("T"))],
                 table, stats=stats)
    assert {str(sigma_of(s)["T"]) for s in sols} == {
        "Integer", "Number", "Object"}
    assert stats["sinks"] == 0


def test_placeholder_nested_in_a_headed_side_keeps_branching(table):
    # T sits inside the pair above P, so T is no sink even with no lower
    # bound but Integer
    p = lambda a, b: ClassType("Pair", (a, b))
    sols = solve(table, lessdot(INT, TPH("T")),
                 lessdot(TPH("P"), p(TPH("T"), INT)))
    assert {str(sigma_of(s)["T"]) for s in sols} == {
        "Integer", "Number", "Object"}


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
    x = TypeVar("X", CLASS)
    scoped = ClassTable(table.entries, {x: fun_type((INT,), INT)})
    sols = unify([lessdot(INT, TPH("S")), lessdot(x, TPH("T"))], scoped)
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



def test_value_records_are_equal_and_hash_as_their_parts(table):
    """Constraints, method typings and solutions are values; a solution's
    `drawn` takes no part, so the solution emitted at a leaf equals the one
    its choice closes with.  Each emit adds one: no choice's search reaches
    one solution twice (see below)."""
    pairs = [(lessdot(TPH("T"), INT), lessdot(TPH("T"), INT)),
             (doteq(TPH("T"), INT), doteq(TPH("T"), INT)),
             (MethodTyping(((TPH("A"), None),), (TPH("A"),), INT),
              MethodTyping(((TPH("A"), None),), (TPH("A"),), INT)),
             (UNIFY.Solution((("T", "U"),), (("V", INT),), (0,), 22),
              UNIFY.Solution((("T", "U"),), (("V", INT),), (0,), 23))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert lessdot(TPH("T"), INT) != doteq(TPH("T"), INT)
    assert UNIFY.Solution((), ()) != UNIFY.Solution((), (), (1,))
    assert [str(c) for c, _ in pairs[:2]] == ["T < Integer", "T = Integer"]
    u = UNIFY._Unifier(table, FreshNames(), ())
    u.solve([lessdot(TPH("T"), TPH("U"))])
    assert len(u.solutions) == 1
    u._emit()
    u._emit()
    assert u.found == [u.solutions[0]] * 2


def test_no_choice_reaches_one_solution_twice(monkeypatch):
    """Over the goldens, `PINNED_SRCS` and the seed-1 programs of the two
    workloads whose searches open frames, every solution `unify` returns
    differs from the others of its choice, so `_Unifier._emit` keeps them
    all without a dedup."""
    returned = []

    def spy(*args, **kwargs):
        returned.append(unify(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(PIPELINE, "unify", spy)
    for src in [*ALL_GOLDEN_SRCS.values(), *PINNED_SRCS.values(),
                *(p.source for w in ("paper-units", "ambiguity")
                  for p in corpus.workload(w, 1))]:
        try:
            run_source(src)
        except JtxError:
            pass
    # choices with two or more solutions, where a dedup could drop one
    assert sum(n > 1 for sols in returned
               for n in Counter(s.choice for s in sols).values()) >= 10
    for sols in returned:
        assert len(set(sols)) == len(sols)

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


def class_search(src):
    """(unifier solutions, stats) of the first class of `src`, with its
    or-groups."""
    program = parse(src)
    table = build_class_table(program)
    gen = generate_constraints(program.classes[0], table)
    stats = Counter()
    sols = unify(gen.base, table, gen.fresh.clone(), stats=stats,
                 groups=gen.groups)
    return sols, stats


def chained_locals(k):
    """k locals, each assigned the one before, the last returned."""
    body = ["var a0 = x + 1;"] + [f"var a{i} = a{i - 1};" for i in range(1, k)]
    return f"class C {{ m(x) {{ {' '.join(body)} return a{k - 1}; }} }}"


def test_chained_locals_have_one_solution_in_linear_steps():
    steps = {}
    for k in (10, 20, 40):
        sols, stats = class_search(chained_locals(k))
        assert len(sols) == 1
        steps[k] = stats["steps"]
    assert steps[40] - steps[20] == 2 * (steps[20] - steps[10])


def independent_methods(m):
    return "class C { " + " ".join(
        f"m{i}(x) {{ var a = x + 1; var b = a; return b; }}"
        for i in range(m)) + " }"


@pytest.mark.parametrize("m", range(1, 7))
def test_independent_chain_methods_have_one_class_solution(m):
    sols, _ = class_search(independent_methods(m))
    assert len(sols) == 1
    result = run_source(independent_methods(m))
    assert signature_lines(result) == [
        f"C.m{i} : Integer -> Integer" for i in range(m)]


@pytest.mark.parametrize("n, kept", [(1, 7), (2, 19), (3, 67)])
def test_surviving_family_solutions_are_all_kept(n, kept):
    # the unifier gives no solution that minimality drops: `kept` class
    # solutions, each one solution per component, OL's 3 and Main's 4^n
    r = run_source(corpus.surviving_unit(n, random.Random(0)).source,
                   dump_stages=("solutions",))
    heads = Counter(line for line in r.dumps["solutions"].splitlines()
                    if line.startswith("# "))
    combinations = {}
    for head, count in heads.items():
        cls = head.split()[1]
        combinations[cls] = combinations.get(cls, 1) * count
    assert sum(combinations.values()) == kept
    assert sum(len(c.remainings) for c in r.class_results) \
        == sum(heads.values()) == 3 + 4 * n


@pytest.mark.parametrize("n", (1, 40, 400))
def test_long_method_opens_no_search_frame(n):
    # `v(i-1) * 2` puts `v(i-1) < Integer` on a local below `Integer`, which
    # binds it to `Integer` without a branch point; the last local and the
    # return are two sinks, each with one alternative, taken as a step
    _, stats = class_search(long_method(n))
    assert [stats[k] for k in ("steps", "branch_points", "sinks", "frames",
                               "forced")] == [4 * n - 1, 2, 2, 0, n - 1]


# Class bounds bind `v0` to Integer only when no class of the table is
# generic; here `Fun1$$` is one.  Binding `v0` early would take
# `Integer < R` (R the lambda's result) before the branch point of `v2`,
# so each alternative of R would draw other names for the arguments of
# `v2`'s function type, and the pipeline's minimality, which compares
# solutions by their names, would keep two more typings.
LAMBDA_AFTER_BOUNDS = ("class C { m() { var v0 = 1; v0 = v0 * 2; "
                       "var v2 = (p -> v0); return v2; } }")


def _outputs(src):
    try:
        r = run_source(src, dump_stages=("solutions", "generics"))
    except JtxError as exc:
        return f"{type(exc).__name__} {exc}"
    return (PIPELINE.typed_source(r), signature_lines(r),
            PIPELINE.descriptor_lines(r), PIPELINE.funiface_manifest(r),
            r.dumps)


@pytest.mark.parametrize("src", [*ALL_GOLDEN_SRCS.values(),
                                 *PINNED_SRCS.values(), LAMBDA_AFTER_BOUNDS])
def test_class_bounds_change_no_output(src, monkeypatch):
    # the outputs and dumps are those of parking every class bound
    with_rule = _outputs(src)
    monkeypatch.setattr(UNIFY._Unifier, "_decide",
                        lambda self, t, bound, upper: None)
    assert with_rule == _outputs(src)


def test_class_bounds_leave_room_for_another_members_variable():
    # Integer is the one class below Integer and Number, but a `doteq` may
    # still bind the class-scoped P to `m`'s variable T, which is below both
    program = parse("import java.lang.Integer;\n"
                    "class A { <T extends Integer> m(T x) { return x; } }")
    view = class_view(program.classes[0], build_class_table(program))
    (var,) = view.typevars
    stats = Counter()
    (sol,) = unify([lessdot(TPH("P"), INT), lessdot(TPH("P"), NUM),
                    doteq(TPH("P"), var)], view, stats=stats)
    assert sigma_of(sol) == {"P": var}
    assert stats["forced"] == 0


def test_only_a_branch_point_with_alternatives_to_try_opens_a_frame(table):
    # Integer is the one head below Integer, and Number has three
    stats = Counter()
    (sol,) = unify([lessdot(TPH("T"), INT)], table, stats=stats)
    assert sigma_of(sol) == {"T": INT}
    assert (stats["branch_points"], stats["frames"]) == (1, 0)
    stats = Counter()
    assert len(unify([lessdot(TPH("T"), NUM)], table, stats=stats)) == 3
    assert (stats["branch_points"], stats["frames"]) == (1, 1)


def test_work_grows_linearly_with_method_length():
    assert long_method_steps(400) <= 2.5 * long_method_steps(200)


def classes_counts(n):
    """(unifier steps, base constraints), summed over the classes of the
    `classes` benchmark family's unit of n classes."""
    program = parse(corpus.classes_unit(n, random.Random(0)).source)
    table = build_class_table(program)
    stats = Counter()
    base = 0
    for cls in program.classes:
        view = class_view(cls, table)
        gen = generate_constraints(cls, view)
        base += len(gen.base)
        unify(gen.base, view, gen.fresh.clone(), stats=stats,
              groups=gen.groups)
    return stats["steps"], base


def test_classes_family_work_grows_exactly_linearly():
    counts = {n: classes_counts(n) for n in (10, 20, 40)}
    for i in range(2):
        small, mid, big = (counts[n][i] for n in (10, 20, 40))
        assert small > 0 and big - mid == 2 * (mid - small)


def test_thousand_statement_method_types():
    result = run_source(long_method(1000))
    assert signature_lines(result) == ["L.m : () -> Integer"]
