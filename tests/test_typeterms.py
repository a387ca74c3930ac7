"""Terms: hash-consing, type-variable instantiation and placeholder naming.

Terms are interned: a term built twice from the same structure is one
object, also after `copy`, `deepcopy` and `pickle`.  The placeholder tuple
and printed form each term stores, and `substitute`, are checked on random
nested terms against `reference_terms.py`, the recursive walks they
replaced.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from jtxinfer.typeterms import (VOID, ClassType, TPH, TypeVar, VoidType,
                                fun_type, instantiate, is_ground, substitute,
                                tph_name, tph_number, tphs_of)
from jtxinfer.unify import _age

import reference_terms as ref

INT = ClassType("Integer")


def test_instantiate_replaces_type_variables_at_any_depth():
    pair = ClassType("Pair", (ClassType("T"),
                              fun_type((ClassType("U"),), ClassType("T"))))
    out = instantiate(fun_type((pair, ClassType("V")), VOID),
                      {"T": INT, "U": TPH("A")})
    assert out == fun_type((ClassType("Pair", (INT, fun_type((TPH("A"),),
                                                           INT))),
                           ClassType("V")), VOID)


def test_instantiate_leaves_applied_heads_and_placeholders():
    # a generic head named like a type variable is not a reference to it
    term = ClassType("T", (TPH("T"),))
    assert instantiate(term, {"T": INT}) == ClassType("T", (TPH("T"),))
    assert instantiate(VOID, {"T": INT}) == VOID


def test_placeholder_names_round_trip_in_creation_order():
    assert [tph_name(n) for n in (0, 25, 26, 27, 701, 702)] == \
        ["A", "Z", "AA", "AB", "ZZ", "AAA"]
    names = [tph_name(n) for n in range(2000)]
    assert [tph_number(s) for s in names] == list(range(2000))
    assert sorted(names, key=_age) == names


def test_placeholder_number_rejects_other_names():
    assert tph_number("?0") is None
    assert tph_number("Ab") is None
    assert tph_number("") is None


def test_tphs_of_lists_names_in_first_occurrence_order():
    pair = ClassType("Pair", (TPH("Q"), fun_type((TPH("C"),), TPH("Q"))))
    term = fun_type((pair, TPH("AB"), TPH("C")), TPH("B"))
    assert list(tphs_of(term)) == ["Q", "C", "AB", "B"]
    assert "AB" in tphs_of(term) and "A" not in tphs_of(term)


# a term's structure as plain tuples, so that two structures compare
# without the terms: ("tph", name), ("void",) or ("class", name, args)
SHAPES = st.recursive(
    st.one_of(st.sampled_from(["A", "B", "Q", "AB"]).map(
                  lambda n: ("tph", n)),
              st.just(("void",)),
              st.sampled_from(["Integer", "T", "Pair"]).map(
                  lambda n: ("class", n, ()))),
    lambda inner: st.tuples(st.just("class"),
                            st.sampled_from(["Pair", "Fun1$$", "T"]),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=12)


def build(shape):
    if shape[0] == "tph":
        return TPH(shape[1])
    if shape[0] == "void":
        return VoidType()
    return ClassType(shape[1], tuple(build(a) for a in shape[2]))


@settings(max_examples=300, deadline=None)
@given(SHAPES, SHAPES,
       st.dictionaries(st.sampled_from(["A", "B", "Q", "C"]), SHAPES,
                       max_size=3))
def test_interned_terms_agree_with_the_recursive_references(a, b, sigma):
    t, u = build(a), build(b)
    assert (t is u) == (a == b) and (t == u) == (a == b)
    assert build(a) is t and hash(build(a)) == hash(t)
    assert tphs_of(t) == tuple(ref.tphs_of(t))
    assert is_ground(t) == ref.is_ground(t)
    assert str(t) == ref.term_str(t)
    sigma = {n: build(s) for n, s in sigma.items()}
    assert substitute(t, sigma) is ref.substitute(t, sigma)
    for same in (copy.copy(t), copy.deepcopy(t),
                 pickle.loads(pickle.dumps(t))):
        assert same is t


def test_declared_variable_is_a_term_of_its_member():
    """Two members' `T` are two terms, and neither is the class `T`; each
    prints as `T`, and is found again by its internal name."""
    m0, m1 = TypeVar("T", ("method", 0)), TypeVar("T", ("method", 1))
    assert m0 is TypeVar("T", ("method", 0)) and m0 is not m1
    assert m0 is not ClassType("T") and ClassType(m0.name) is m0
    assert str(m0) == str(m1) == "T" and is_ground(m0) and not m0.args
    pair = ClassType("Pair", (m0, TPH("A")))
    assert substitute(pair, {"A": m1}) is ClassType("Pair", (m0, m1))
    assert instantiate(pair, {m0.name: INT}) is ClassType("Pair",
                                                          (INT, TPH("A")))
    for same in (copy.copy(m0), copy.deepcopy(m0),
                 pickle.loads(pickle.dumps(m0))):
        assert same is m0
    assert m0.__reduce__() == (TypeVar, ("T", ("method", 0)))


def test_terms_are_immutable_and_void_is_one():
    assert VoidType() is VOID
    term = ClassType("Pair", (TPH("A"), TPH("B")))
    with pytest.raises(AttributeError):
        term.name = "Other"
    with pytest.raises(AttributeError):
        del TPH("A").name
    assert term is ClassType("Pair", (TPH("A"), TPH("B")))
