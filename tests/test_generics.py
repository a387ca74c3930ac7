"""Generalization: ownership, the pair graph, completion, conformance."""

import random
import sys
from pathlib import Path

import pytest

from jtxinfer import generics, run_source
from jtxinfer.constraints import CallSite
from jtxinfer.generics import (CLASS, build_fgg, complete_fgg, compute_owners,
                               enforce_java_conformance, format_generics,
                               stated)
from jtxinfer.typeterms import TPH, TypeVar, fun_type

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


def test_stated_pairs_stay_in_a_member_or_reach_the_class():
    owners = compute_owners(groups(cls=[TPH("A"), TPH("K")],
                                   m0=[TPH("A"), TPH("C"), TPH("D")],
                                   m1=[TPH("E")]))
    pairs = {("C", "D"),   # within m0
             ("C", "A"),   # method below class placeholder
             ("A", "K"),   # within the class
             ("E", "C"),   # crosses two methods
             ("A", "D")}   # class below method placeholder
    assert stated(pairs, owners) == {("C", "D"), ("C", "A"), ("A", "K")}


def test_build_fgg_partitions_and_leaves_unbounded_out():
    # Z is in no slot: its lower bound C is joined to its upper bound D
    owners = compute_owners(groups(cls=[TPH("A")], m0=[TPH("C"), TPH("D")],
                                   m1=[TPH("E")]))
    remaining = {("C", "Z"), ("Z", "D"), ("C", "A"), ("E", "C")}
    pairs = build_fgg(remaining, owners)
    assert pairs == {("C", "D"), ("C", "A"), ("E", "C")}
    # D, E and A are unbounded: no stated pair has them on its left
    assert stated(pairs, owners) == {("C", "D"), ("C", "A")}


def test_complete_fgg_bounds_unbounded_along_call():
    # method 1 calls method 0: T flows into callee param P, whose bound
    # chain reaches the callee return Q, which flows back into caller R.
    owners = compute_owners(groups(m0=[TPH("P"), TPH("Q")],
                                   m1=[TPH("T"), TPH("R")]))
    remaining = {("T", "P"), ("P", "Q"), ("Q", "R")}
    pairs = build_fgg(remaining, owners)
    assert stated(pairs, owners) == {("P", "Q")}
    site = CallSite(caller=1, arg_terms=[TPH("T")], param_terms=[TPH("P")],
                    ret_term=TPH("Q"))
    completed = complete_fgg(pairs, remaining, owners, [site])
    # T gains R; the callee's bound is unchanged
    assert completed - pairs == {("T", "R")}
    assert stated(completed, owners) == {("P", "Q"), ("T", "R")}


def test_complete_fgg_without_return_flow_keeps_unbounded():
    owners = compute_owners(groups(m0=[TPH("P"), TPH("Q")],
                                   m1=[TPH("T"), TPH("R")]))
    remaining = {("T", "P"), ("P", "Q")}   # Q never reaches R
    pairs = build_fgg(remaining, owners)
    site = CallSite(caller=1, arg_terms=[TPH("T")], param_terms=[TPH("P")],
                    ret_term=TPH("Q"))
    assert complete_fgg(pairs, remaining, owners, [site]) == pairs


def test_complete_fgg_reads_the_callee_chain_in_its_own_bounds():
    # P < Q holds only through m1's T: that is no bound of m0, so T
    # gains no bound from the call
    owners = compute_owners(groups(m0=[TPH("P"), TPH("Q")],
                                   m1=[TPH("T"), TPH("R"), TPH("S")]))
    remaining = {("S", "P"), ("P", "T"), ("T", "Q"), ("Q", "R")}
    pairs = build_fgg(remaining, owners)
    site = CallSite(caller=1, arg_terms=[TPH("S")], param_terms=[TPH("P")],
                    ret_term=TPH("Q"))
    assert complete_fgg(pairs, remaining, owners, [site]) == pairs


def test_conformance_collapses_cycle():
    # the search drew 15 names, A to O: the collapse is named P
    owners = {"L": M0, "M": M0}
    bounds, h, owners = enforce_java_conformance({("L", "M"), ("M", "L")},
                                                 15, owners)
    assert h == {"L": "P", "M": "P"}
    assert owners == {"P": M0}
    # the collapsed pair disappears and leaves P unbounded
    assert bounds == set()


def test_conformance_collapses_infimum():
    # the search drew A to C: the collapse is named D
    owners = {"A": M0, "B": M0, "C": M0}
    bounds, h, _ = enforce_java_conformance({("A", "B"), ("A", "C")},
                                            3, owners)
    assert h == {"A": "D", "B": "D", "C": "D"}
    assert all(l != r for l, r in bounds)


def test_conformance_keeps_surrounding_bounds():
    owners = {"L": M0, "M": M0, "N": M0}
    bounds, h, _ = enforce_java_conformance(
        {("L", "M"), ("M", "L"), ("N", "L")}, 15, owners)
    x = h["L"]
    assert bounds == {("N", x)}


def test_conformance_identity_on_clean_family():
    owners = {"A": M0, "B": M0}
    bounds, h, out = enforce_java_conformance({("A", "B")}, 2, owners)
    assert h == {}
    assert bounds == {("A", "B")}
    assert out == owners


def test_conformance_leaves_owners_unchanged():
    # method placeholder L has two upper bounds, one of them the class's
    # K: the merged name is a class generic, in the owners returned
    owners = {"K": CLASS, "L": M0, "M": M0}
    given = dict(owners)
    bounds, h, out = enforce_java_conformance(
        {("L", "K"), ("L", "M")}, 13, owners)
    assert owners == given
    assert h == {"K": "N", "L": "N", "M": "N"}
    assert out == {"N": CLASS}
    assert bounds == set()


def test_conformance_merges_a_method_placeholder_above_a_class_one():
    # L sits above the class's K: it becomes K, draws no fresh name, and
    # M's bound becomes a method -> class bound
    owners = {"K": CLASS, "L": M0, "M": M0}
    bounds, h, out = enforce_java_conformance({("K", "L"), ("M", "L")},
                                              13, owners)
    assert h == {"L": "K"}
    assert out == {"K": CLASS, "M": M0}
    assert bounds == {("M", "K")}


def test_conformance_merges_after_a_collapse():
    # the infimum of L takes in the class's K; the fresh class name then
    # sits below m1's N, which is merged into it, and m1's O < N becomes
    # a stated bound on the class name
    owners = {"K": CLASS, "L": M0, "M": M0, "N": M1, "O": M1}
    bounds, h, out = enforce_java_conformance(
        {("L", "K"), ("L", "M"), ("M", "N"), ("O", "N")}, 15, owners)
    x = h["K"]
    assert h == {"K": x, "L": x, "M": x, "N": x}
    assert out == {x: CLASS, "O": M1}
    assert bounds == {("O", x)}


def test_format_generics_lines():
    """Only the inferred variables, clause by clause and by name within
    one; a declared variable is left out."""
    clauses = [((TPH("C"), None),),
               ((TPH("B"), None), (TPH("A"), TPH("B")),
                (TypeVar("T", M0), None))]
    assert format_generics(clauses).splitlines() == [
        "C extends Object", "A extends B", "B extends Object"]


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
def test_depth_takes_no_closure(n, monkeypatch):
    """Each class but the first calls its predecessor's `f` once, with
    `f`'s parameter as the argument; that parameter is bounded by `f`'s
    return in its own member's stated pairs already, so completion has no
    placeholder to bound and closes no relation.  No name is both below
    and above another, so there is no cycle to look for."""
    unit = corpus.depth_unit(n, random.Random(n))
    assert _closures(unit.source, monkeypatch) == 0
