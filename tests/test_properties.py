"""Property-based checks: unification against a brute-force ground oracle,
and monotonicity/conformance of the bound-relation repair map."""

import itertools
from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from jtxinfer import parse
from jtxinfer.classtable import build_class_table
from jtxinfer.constraints import Alternative, doteq, lessdot
from jtxinfer.generics import enforce_java_conformance, transitive_closure
from jtxinfer.typeterms import ClassType, TPH
from jtxinfer.unify import unify

# --- unification vs. brute force -------------------------------------------

GROUND = ["Integer", "Double", "Number", "String", "Boolean", "Object"]
TPHS = ["T0", "T1", "T2"]
TPHS4 = TPHS + ["T3"]

_TABLE = build_class_table(parse(
    "import java.lang.Integer;\nimport java.lang.Double;\n"
    "import java.lang.String;\nimport java.lang.Boolean;\nclass Scratch { }"))

_SUBTYPE = {(a, b): _TABLE.is_subtype(ClassType(a), ClassType(b))
            for a in GROUND for b in GROUND}


def constraints_over(names):
    term = st.one_of(st.sampled_from(GROUND).map(ClassType),
                     st.sampled_from(names).map(TPH))
    return st.builds(lambda kind, l, r: kind(l, r),
                     st.sampled_from([doteq, lessdot]), term, term)


constraint_st = constraints_over(TPHS)


def _ground_name(t, assign):
    return assign[t.name] if isinstance(t, TPH) else t.name


def _satisfies(cons, assign):
    for c in cons:
        l, r = _ground_name(c.lhs, assign), _ground_name(c.rhs, assign)
        if c.kind == "doteq":
            if l != r:
                return False
        elif not _SUBTYPE[(l, r)]:
            return False
    return True


def _solution_admits(sol, assign):
    sigma = sol.sigma_dict()
    for name, val in assign.items():
        if name in sigma:
            bound = sigma[name]
            while isinstance(bound, TPH) and bound.name in sigma:
                bound = sigma[bound.name]
            expected = (assign[bound.name] if isinstance(bound, TPH)
                        else bound.name)
            if expected != val:
                return False
    for (l, r) in sol.remaining:
        if not _SUBTYPE[(assign[l], assign[r])]:
            return False
    return True


def _oracle(cons, names):
    return {values for values in itertools.product(GROUND, repeat=len(names))
            if _satisfies(cons, dict(zip(names, values)))}


def _admitted(solutions, names):
    return {values for values in itertools.product(GROUND, repeat=len(names))
            if any(_solution_admits(sol, dict(zip(names, values)))
                   for sol in solutions)}


def _check_against_oracle(cons, names=TPHS, groups=()):
    """Sound, complete up to dominance, and exact when no sink was given
    its least type: a pruned choice lies above a kept one.  `names` are
    the placeholders `cons` may mention.  With or-`groups` (lists of
    alternatives, each a constraint list) the oracle is the union over
    their choices."""
    stats = Counter()
    admitted = _admitted(unify(list(cons), _TABLE, stats=stats, groups=[
        [Alternative(constraints=alt) for alt in group]
        for group in groups]), names)
    oracle = set().union(*(
        _oracle([*cons, *(c for alt in choice for c in alt)], names)
        for choice in itertools.product(*groups)))
    assert admitted <= oracle
    for values in oracle - admitted:
        assert any(all(_SUBTYPE[(a, v)] for a, v in zip(low, values))
                   for low in admitted), values
    if stats["sinks"] == 0:
        assert admitted == oracle
    return stats


@settings(max_examples=1000, deadline=None)
@given(st.lists(constraint_st, min_size=1, max_size=6))
def test_unify_sound_and_complete_vs_brute_force(cons):
    _check_against_oracle(cons)


# a placeholder against a class type on either side: a branch point
one_sided_st = st.one_of(
    st.builds(lessdot, st.sampled_from(TPHS).map(TPH),
              st.sampled_from(GROUND).map(ClassType)),
    st.builds(lessdot, st.sampled_from(GROUND).map(ClassType),
              st.sampled_from(TPHS).map(TPH)))


@settings(max_examples=200, deadline=None)
@given(st.lists(one_sided_st, min_size=2, max_size=4),
       st.lists(constraint_st, max_size=4), st.randoms())
def test_branching_search_vs_brute_force(branch_points, others, rnd):
    cons = branch_points + others
    rnd.shuffle(cons)
    stats = _check_against_oracle(cons)
    # class bounds on two or more placeholders, and the search decided one
    # by a branch point or bound it as its bounds leave one class
    assume(len({c.lhs if isinstance(c.lhs, TPH) else c.rhs
                for c in branch_points}) > 1
           and stats["branch_points"] + stats["forced"] > 0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GROUND), st.lists(constraints_over(TPHS4), max_size=4),
       st.randoms())
def test_placeholder_chains_vs_brute_force(ground, others, rnd):
    # G < T0 < T1 < T2: each link is a sink unless another constraint
    # gives it a placeholder lower bound or nests it
    chain = [lessdot(ClassType(ground), TPH("T0")),
             lessdot(TPH("T0"), TPH("T1")), lessdot(TPH("T1"), TPH("T2"))]
    cons = chain + others
    rnd.shuffle(cons)
    _check_against_oracle(cons, TPHS4)


alternative_st = st.lists(constraint_st, min_size=1, max_size=2)
group_st = st.lists(alternative_st, min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(constraint_st, max_size=3), group_st, group_st,
       st.lists(group_st, max_size=1), st.sampled_from(TPHS),
       st.lists(st.sampled_from(GROUND[:-1]), min_size=2, max_size=2,
                unique=True))
def test_or_groups_vs_brute_force(base, first, second, rest, shared,
                                  uppers):
    # two groups each put a distinct class above one placeholder in their
    # first alternative, so the class bounds of the choices can refute or
    # decide it
    bounded = [[[lessdot(TPH(shared), ClassType(upper)), *group[0]],
                *group[1:]] for group, upper in zip((first, second), uppers)]
    _check_against_oracle(base, groups=[*bounded, *rest])


# --- conformance repair map -------------------------------------------------

NODES = [f"T{i}" for i in range(8)]
M0 = ("method", 0)

pair_st = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
    lambda p: p[0] != p[1])
graph_st = st.lists(pair_st, min_size=0, max_size=12, unique=True)


def _refl_closure(pairs, names):
    closure = set(transitive_closure(pairs))
    closure |= {(n, n) for n in names}
    return closure


@settings(max_examples=500, deadline=None)
@given(graph_st)
def test_conformance_repair_is_monotone_and_java_conform(pairs):
    owners = {n: M0 for n in NODES}
    out, h, _ = enforce_java_conformance(set(pairs), 0, owners)

    def H(n):
        return h.get(n, n)

    names = {n for p in pairs for n in p}
    new_names = {H(n) for n in names} | {x for p in out for x in p}
    before = _refl_closure(pairs, names)
    after = _refl_closure(out, new_names)

    # monotone: every original bound survives the collapse
    for (a, b) in before:
        assert (H(a), H(b)) in after

    # antisymmetric: no non-trivial cycles remain
    for (a, b) in after:
        if a != b:
            assert (b, a) not in after

    # no infimum: at most one direct upper bound per placeholder
    uppers = {}
    for (l, r) in out:
        uppers.setdefault(l, set()).add(r)
    for l, rs in uppers.items():
        assert len(rs) == 1

    # the collapse map is idempotent on the result
    for old, new in h.items():
        assert h.get(new, new) == new
