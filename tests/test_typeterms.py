"""Term helpers: type-variable instantiation and placeholder naming."""

from jtxinfer.typeterms import (VOID, ClassType, TPH, fun_type,
                                instantiate, tph_name, tph_number, tphs_of)
from jtxinfer.unify import _age

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
