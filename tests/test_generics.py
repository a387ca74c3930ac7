"""Generalization: ownership, bound families, completion, conformance."""

import random
import sys
from pathlib import Path

import pytest

from jtxinfer import generics, run_source
from jtxinfer.constraints import CallSite, FreshNames
from jtxinfer.generics import (CLASS, build_fgg, complete_fgg, compute_owners,
                               enforce_java_conformance, format_generics,
                               member_tph_sets)
from jtxinfer.typeterms import ClassType, TPH, fun_type

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

M0 = ("method", 0)
M1 = ("method", 1)


def groups(**kw):
    out = []
    if "cls" in kw:
        out.append((CLASS, kw.pop("cls")))
    for key, terms in sorted(kw.items()):
        out.append((("method", int(key[1:])), terms))
    return out


def test_compute_owners_first_claim_wins():
    g = groups(cls=[TPH("A"), fun_type((TPH("B"),), TPH("A"))],
               m0=[TPH("B"), TPH("C")])
    owners = compute_owners(g)
    assert owners == {"A": CLASS, "B": CLASS, "C": M0}


def test_member_tph_sets_excludes_borrowed_placeholders():
    g = groups(cls=[TPH("A")], m0=[TPH("A"), TPH("C")])
    owners = compute_owners(g)
    members = member_tph_sets(g, owners)
    assert members[CLASS] == {"A"}
    assert members[M0] == {"C"}


def test_build_fgg_partitions_and_leaves_unbounded_out():
    g = groups(cls=[TPH("A")], m0=[TPH("C"), TPH("D")], m1=[TPH("E")])
    owners = compute_owners(g)
    members = member_tph_sets(g, owners)
    remaining = {("C", "D"),   # within m0: kept
                 ("C", "A"),   # method below class placeholder: kept
                 ("E", "C")}   # crosses two methods: dropped
    fgg = build_fgg(remaining, owners, members)
    # D, E and A are unbounded: they have no pair
    assert fgg == {CLASS: set(), M0: {("C", "D"), ("C", "A")}, M1: set()}


def test_complete_fgg_bounds_unbounded_along_call():
    # method 1 calls method 0: T flows into callee param P, whose bound
    # chain reaches the callee return Q, which flows back into caller R.
    g = groups(m0=[TPH("P"), TPH("Q")], m1=[TPH("T"), TPH("R")])
    owners = compute_owners(g)
    members = member_tph_sets(g, owners)
    remaining = {("T", "P"), ("P", "Q"), ("Q", "R")}
    fgg = build_fgg(remaining, owners, members)
    assert fgg[M1] == set()
    site = CallSite(caller=1, arg_terms=[TPH("T")], param_terms=[TPH("P")],
                    ret_term=TPH("Q"))
    cfgg = complete_fgg(fgg, remaining, owners, members, [site])
    assert cfgg[M1] == {("T", "R")}
    # callee bounds unchanged
    assert cfgg[M0] == fgg[M0] == {("P", "Q")}


def test_complete_fgg_without_return_flow_keeps_unbounded():
    g = groups(m0=[TPH("P"), TPH("Q")], m1=[TPH("T"), TPH("R")])
    owners = compute_owners(g)
    members = member_tph_sets(g, owners)
    remaining = {("T", "P"), ("P", "Q")}   # Q never reaches R
    fgg = build_fgg(remaining, owners, members)
    site = CallSite(caller=1, arg_terms=[TPH("T")], param_terms=[TPH("P")],
                    ret_term=TPH("Q"))
    cfgg = complete_fgg(fgg, remaining, owners, members, [site])
    assert cfgg == fgg
    assert cfgg[M1] == set()


def test_conformance_collapses_cycle():
    owners = {"L": M0, "M": M0}
    fresh = FreshNames()
    family, h = enforce_java_conformance({M0: {("L", "M"), ("M", "L")}},
                                         fresh, owners)
    assert h["L"] == h["M"]
    x = h["L"]
    assert fresh.scope_of(x) == M0
    # the collapsed pair disappears and leaves x unbounded
    assert family == {M0: set()}


def test_conformance_collapses_infimum():
    owners = {"A": M0, "B": M0, "C": M0}
    fresh = FreshNames()
    family, h = enforce_java_conformance({M0: {("A", "B"), ("A", "C")}},
                                         fresh, owners)
    assert h["A"] == h["B"] == h["C"]
    assert all(l != r for l, r in family[M0])


def test_conformance_keeps_surrounding_bounds():
    owners = {"L": M0, "M": M0, "N": M0}
    fresh = FreshNames()
    family, h = enforce_java_conformance(
        {M0: {("L", "M"), ("M", "L"), ("N", "L")}}, fresh, owners)
    x = h["L"]
    assert family == {M0: {("N", x)}}


def test_conformance_identity_on_clean_family():
    owners = {"A": M0, "B": M0}
    fresh = FreshNames()
    family, h = enforce_java_conformance({M0: {("A", "B")}}, fresh, owners)
    assert h == {}
    assert family == {M0: {("A", "B")}}


def test_conformance_leaves_owners_unchanged():
    # method placeholder L has two upper bounds, one of them the class's
    # K: the merged name is a class generic, recorded by `fresh` only
    owners = {"K": CLASS, "L": M0, "M": M0}
    given = dict(owners)
    fresh = FreshNames()
    family, h = enforce_java_conformance(
        {CLASS: set(), M0: {("L", "K"), ("L", "M")}}, fresh, owners)
    assert owners == given
    x = h["K"]
    assert x not in given
    assert h == {"K": x, "L": x, "M": x}
    assert fresh.scope_of(x) == CLASS
    assert family == {CLASS: set(), M0: set()}


def test_format_generics_lines():
    clauses = {CLASS: {"C": None}, M0: {"B": None, "A": "B"}}
    text = format_generics(clauses)
    assert text.splitlines() == ["C extends Object", "A extends B",
                                 "B extends Object"]


def _closures(src, monkeypatch):
    """The number of transitive closures generalization takes for `src`."""
    calls = []
    closure = generics.transitive_closure
    monkeypatch.setattr(generics, "transitive_closure",
                        lambda pairs: calls.append(1) or closure(pairs))
    run_source(src)
    return len(calls)


@pytest.mark.parametrize("n", corpus.CLASSES_SIZES)
def test_classes_without_calls_take_no_closure(n, monkeypatch):
    """Completion needs a call site with a caller, and a cycle two pairs;
    the independent classes of `classes_unit` have neither."""
    unit = corpus.classes_unit(n, random.Random(n))
    assert _closures(unit.source, monkeypatch) == 0


@pytest.mark.parametrize("n", corpus.DEPTH_SIZES)
def test_depth_takes_three_closures_per_calling_class(n, monkeypatch):
    """Each class but the first calls its predecessor's `f` once:
    completion closes the remaining pairs, then the class's and `f`'s
    bound sets, once each; no bound set has two pairs."""
    unit = corpus.depth_unit(n, random.Random(n))
    assert _closures(unit.source, monkeypatch) == 3 * (n - 1)
