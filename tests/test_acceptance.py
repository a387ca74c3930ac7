"""Acceptance gate: the ten headline behaviors, one pass/fail line each.

Each criterion prints its verdict to the real stdout (bypassing capture)
so a plain ``pytest tests/test_acceptance.py`` run shows ten lines.
Reference values are pinned from the published worked examples for the
engine's source language; comparisons are modulo placeholder renaming,
using declaration slots (field/param/return/local types) as anchors.
"""

import time

import pytest

import jtxinfer as J
from jtxinfer.constraints import CallSite
from jtxinfer.funtypes import decode_funtype_name, mangle_funtype_name
from jtxinfer.generics import (CLASS, build_fgg, complete_fgg, compute_owners,
                               stated, transitive_closure)
from jtxinfer.syntax import alpha_equivalent
from jtxinfer.typeterms import VOID, ClassType, TPH, fun_type, tphs_of

from conftest import (ALL_GOLDEN_SRCS, CYCLE_SRC, FAC_SRC, INFIMUM_SRC,
                      MUTUAL_SRC, OL_SRC, OLFUN_SRC, TPHS_SRC,
                      stage_solutions)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_console(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def check(num, label, ok):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {verdict}: {label}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num}: {label}"


def _generalization(src, idx=0):
    """Re-run the per-class stages and expose the bound families before
    and after completion: the stated pairs, by the owner of their left
    side."""
    gen, table, sols = stage_solutions(src, idx)
    (s,) = sols
    owners = compute_owners(s.slot_groups())
    rem = sorted(s.remaining)
    pairs = build_fgg(rem, owners)
    sites = [CallSite(caller=c.caller,
                      arg_terms=[s.term(t) for t in c.arg_terms],
                      param_terms=[s.term(t) for t in c.param_terms],
                      ret_term=s.term(c.ret_term))
             for c in s.sites]
    completed = complete_fgg(pairs, rem, owners, sites)
    return (gen, s, owners, _family(gen, pairs, owners),
            _family(gen, completed, owners), sites)


def _family(gen, pairs, owners):
    family = {owner: set() for owner in gen.slots}
    for l, r in stated(pairs, owners):
        family[owners[l]].add((l, r))
    return family


def _rename_pairs(pairs, ren):
    return {(ren.get(l, l), ren.get(r, r)) for (l, r) in pairs}


def _families_match(engine, expected, ren):
    """Each member's renamed pairs are exactly the expected ones; an
    unbounded placeholder has no pair."""
    return {owner: _rename_pairs(pairs, ren)
            for owner, pairs in engine.items()} == expected


# --- 1: factorial ------------------------------------------------------------

FAC_TYPED = """\
class Fac {
    Integer getFac(Integer n) {
        Integer res = 1;
        Integer i = 1;
        while (i <= n) {
            res = res * i;
            i++;
        }
        return res;
    }
}
"""


def test_criterion_01_fac_single_unifier():
    start = time.perf_counter()
    result = J.run_source(FAC_SRC)
    elapsed = time.perf_counter() - start
    gen, table, sols = stage_solutions(FAC_SRC)
    ok = len(sols) == 1
    if ok:
        (s,) = sols
        m = gen.methods[0]
        slots = [s.term(m.ret), s.term(m.params[0])] + \
            [s.term(t) for t in gen.local_terms.values()]
        # N (return), O (parameter), P (res), R (i) all map to Integer
        ok &= all(t == ClassType("Integer") for t in slots)
        # remaining is empty and T (the loop condition) maps to Boolean
        ok &= s.remaining == ()
        values = sorted(str(v) for v in s.sigma.values())
        ok &= values.count("Boolean") == 1
        ok &= set(values) == {"Boolean", "Integer"}
    ok &= alpha_equivalent(J.parse(J.typed_source(result)),
                           J.parse(FAC_TYPED))
    ok &= elapsed < 1.0
    check(1, "Fac: unique all-Integer unifier, Boolean condition, "
             "typed source, < 1 s", ok)


# --- 2: placeholder generalization ------------------------------------------

TPHS_TYPED = """\
class TPHsToGenerics<UD extends DZP, DZP extends ETX, ETX> {
    Fun1$$<UD, ETX> id = x -> x;
    <V extends UD> ETX id2(V x) {
        return id.apply(x);
    }
    <AM, AN extends AI, AI> AI m(AM a, AN b) {
        return b;
    }
    <AB extends AA, AD extends AE, AA, AE> AA m2(AB a, AD b) {
        AE c = m(a, b);
        return a;
    }
}
"""

# IR, id2's return, sits above the class's ETX; generalization merges it
# into ETX, so the emitted id2 returns ETX
TPHS_CS = {("UD", "DZP"), ("DZP", "ETX"), ("V", "UD"), ("AN", "AI"),
           ("AB", "AA"), ("AB", "AM"), ("AD", "AN"), ("AI", "AE"),
           ("ETX", "IR")}


def _tphs_anchor_map(gen, s):
    field = s.term(gen.field_terms["id"])
    id2, m, m2 = gen.methods
    ren = {field.args[0].name: "UD", field.args[-1].name: "ETX"}
    ren[s.term(id2.params[0]).name] = "V"
    ren[s.term(id2.ret).name] = "IR"
    ren[s.term(m.params[0]).name] = "AM"
    ren[s.term(m.params[1]).name] = "AN"
    ren[s.term(m.ret).name] = "AI"
    ren[s.term(m2.params[0]).name] = "AB"
    ren[s.term(m2.params[1]).name] = "AD"
    ren[s.term(m2.ret).name] = "AA"
    (local_c,) = [s.term(t) for t in gen.local_terms.values()]
    ren[local_c.name] = "AE"
    # the one placeholder not visible in any slot sits between UD and ETX
    unmapped = {n for p in s.remaining for n in p} - set(ren)
    for n in unmapped:
        ren[n] = "DZP"
    return ren


def test_criterion_02_tphs_to_generics():
    gen, s, owners, fgg, cfgg, _ = _generalization(TPHS_SRC)
    ren = _tphs_anchor_map(gen, s)
    ok = _rename_pairs(s.remaining, ren) == TPHS_CS
    # ETX, AM, AI, AD and AE are unbounded
    expected_fgg = {
        CLASS: {("UD", "DZP"), ("DZP", "ETX")},
        ("method", 0): {("V", "UD")},
        ("method", 1): {("AN", "AI")},
        ("method", 2): {("AB", "AA")},
    }
    ok &= _families_match(fgg, expected_fgg, ren)
    # completion changes exactly one bound: unbounded AD gains AE
    diffs = {}
    for owner in set(fgg) | set(cfgg):
        gone = _rename_pairs(fgg.get(owner, set()) - cfgg.get(owner, set()),
                             ren)
        added = _rename_pairs(cfgg.get(owner, set()) - fgg.get(owner, set()),
                              ren)
        if gone or added:
            diffs[owner] = (gone, added)
    ok &= diffs == {("method", 2): (set(), {("AD", "AE")})}
    result = J.run_source(TPHS_SRC)
    ok &= alpha_equivalent(J.parse(J.typed_source(result)),
                           J.parse(TPHS_TYPED))
    check(2, "TPHsToGenerics: remaining constraints, bound families, "
             "completion delta, emitted program", ok)


# --- 3: mutual recursion -----------------------------------------------------

MUTUAL_CS = {("B", "J"), ("BB", "H"), ("B", "F"), ("C", "G"), ("GG", "D"),
             ("F", "B"), ("G", "C"), ("G", "J"), ("I", "BB"), ("I", "GG"),
             ("J", "I"), ("D", "DD"), ("H", "HH")}


def _mutual_anchor_map(gen, s):
    m1, m2, idm = gen.methods
    ren = {}
    ren[s.term(m1.params[0]).name] = "B"
    ren[s.term(m1.params[1]).name] = "C"
    r1 = s.term(m1.ret)
    ren[r1.args[0].name], ren[r1.args[1].name] = "BB", "DD"
    l1, l2 = [s.term(t) for t in gen.local_terms.values()]
    ren[l1.name] = "D"
    ren[s.term(m2.params[0]).name] = "F"
    ren[s.term(m2.params[1]).name] = "G"
    r2 = s.term(m2.ret)
    ren[r2.args[0].name], ren[r2.args[1].name] = "HH", "GG"
    ren[l2.name] = "H"
    ren[s.term(idm.params[0]).name] = "J"
    ren[s.term(idm.ret).name] = "I"
    return ren


def _completion_oracle(fgg, remaining, owners, sites):
    """Independent reading of the completion rule: an unbounded
    placeholder (one with no pair) gains every minimal caller placeholder R
    such that the argument flows into a callee parameter whose bound chain
    reaches the callee return, which flows back into R."""
    cs = set(transitive_closure(remaining))
    out = {o: set(p) for o, p in fgg.items()}
    changed = True
    while changed:
        changed = False
        member_closures = {o: set(transitive_closure(ps))
                           for o, ps in out.items()}
        for site in sites:
            caller = ("method", site.caller)
            if caller not in out:
                continue
            for arg, param in zip(site.arg_terms, site.param_terms):
                for t in tphs_of(arg):
                    if owners.get(t) != caller:
                        continue
                    if any(l == t for (l, _) in out[caller]):
                        continue
                    found = set()
                    for tp in tphs_of(param):
                        if (t, tp) not in cs:
                            continue
                        callee_cl = member_closures.get(owners.get(tp), set())
                        for rp in tphs_of(site.ret_term):
                            if (tp, rp) not in callee_cl:
                                continue
                            for r, o in owners.items():
                                if o == caller and r != t and (rp, r) in cs:
                                    found.add(r)
                    found = {r for r in found
                             if not any(q != r and (q, r) in cs
                                        for q in found)}
                    if found:
                        out[caller] |= {(t, r) for r in found}
                        changed = True
    return out


def test_criterion_03_mutual_recursion():
    gen, s, owners, fgg, cfgg, sites = _generalization(MUTUAL_SRC)
    ren = _mutual_anchor_map(gen, s)
    ok = _rename_pairs(s.remaining, ren) == MUTUAL_CS
    # B, C, DD, BB, F, G, HH, GG and I are unbounded
    expected_fgg = {
        CLASS: set(),
        ("method", 0): {("D", "DD")},
        ("method", 1): {("H", "HH")},
        ("method", 2): {("J", "I")},
    }
    ok &= _families_match(fgg, expected_fgg, ren)
    oracle = _completion_oracle(fgg, sorted(s.remaining), owners, sites)
    ok &= {o: set(p) for o, p in cfgg.items()} == oracle
    # the completed program must type-check when fed back in
    typed = J.typed_source(J.run_source(MUTUAL_SRC))
    second = J.run_source(typed)
    ok &= all(rem == () for r in second.class_results for rem in r.remainings)
    check(3, "Mutual: remaining constraints, bound families, completion "
             "oracle, re-entry", ok)


# --- 4: non-conform bound relations -----------------------------------------

def test_criterion_04_cycle_and_infimum():
    cyc = J.run_source(CYCLE_SRC)
    inf = J.run_source(INFIMUM_SRC)
    ok = alpha_equivalent(
        J.parse(J.typed_source(cyc)),
        J.parse("class Cycle { <X> void m(X x, X y) { y = x; x = y; } }"))
    ok &= alpha_equivalent(
        J.parse(J.typed_source(inf)),
        J.parse("class Infimum { <X> void m(X a, X b, X c) "
                "{ b = a; c = a; } }"))
    check(4, "Cycle/Infimum: bound repair yields a single fresh "
             "parameter", ok)


# --- 5: overloading ----------------------------------------------------------

def test_criterion_05_intersection_overloading():
    r = J.run_source(OL_SRC)
    ok = J.signature_lines(r) == [
        "OL.m : Integer -> Integer & Double -> Double & String -> String",
        "OL.m : Boolean -> Boolean",
        "OLMain.main : Integer -> Integer & Double -> Double"
        " & String -> String & Boolean -> Boolean",
    ]
    check(5, "OL/OLMain: three-way and four-way intersection types", ok)


# --- 6: heterogeneous descriptors -------------------------------------------

def _display(desc):
    # the published listings drop the java$lang$ prefix and the object-tag
    # on the return type for readability
    return desc.replace("java$lang$", "").replace(")L", ")")


def test_criterion_06_descriptors():
    r = J.run_source(OLFUN_SRC)
    descs = [line.split(" : ", 1)[1] for line in J.descriptor_lines(r)]
    ok = len(set(descs)) == 3
    ok &= [_display(d) for d in descs] == [
        "(LFun1$$$_$Double$_$Double$_$;)Double;",
        "(LFun1$$$_$Integer$_$Integer$_$;)Integer;",
        "(LFun1$$$_$String$_$String$_$;)String;",
    ]
    # the erased form that made overloads collide never appears
    ok &= all("(LFun1$$;)" not in d for d in descs)
    check(6, "OLFun: three pairwise distinct mangled descriptors, no "
             "erased collision", ok)


# --- 7/8: property suites ----------------------------------------------------

def test_criterion_07_unification_properties():
    from test_properties import test_unify_sound_and_complete_vs_brute_force
    start = time.perf_counter()
    ok = True
    try:
        test_unify_sound_and_complete_vs_brute_force()
    except Exception:
        ok = False
    ok &= (time.perf_counter() - start) < 60.0
    check(7, "unification sound and complete on 1000 random constraint "
             "sets vs brute force, < 60 s", ok)


def test_criterion_08_collapse_map_properties():
    from test_properties import \
        test_conformance_repair_is_monotone_and_java_conform
    ok = True
    try:
        test_conformance_repair_is_monotone_and_java_conform()
    except Exception:
        ok = False
    check(8, "collapse map monotone, antisymmetric, infimum-free on 500 "
             "random bound graphs", ok)


# --- 9: mangling -------------------------------------------------------------

def test_criterion_09_mangling_injective():
    ground = [ClassType(n) for n in
              ("Integer", "Double", "Number", "String", "Boolean", "Object")]
    terms = [fun_type((a,), r)
             for a in ground for r in ground + [VOID]]
    terms += [fun_type((a, b), r)
              for a in ground for b in ground for r in ground + [VOID]]
    seen = {}
    ok = True
    for t in terms:
        name = mangle_funtype_name(t)
        ok &= name not in seen
        seen[name] = t
        ok &= decode_funtype_name(name) == t
    check(9, "mangling injective over all unary/binary instantiations and "
             "decode inverts it", ok)


# --- 10: re-check closure ----------------------------------------------------

def test_criterion_10_reentry_closure():
    ok = True
    for name, src in sorted(ALL_GOLDEN_SRCS.items()):
        typed = J.typed_source(J.run_source(src))
        second = J.run_source(typed)
        ok &= all(rem == () for r in second.class_results
                  for rem in r.remainings)
    check(10, "every emitted program re-enters with no remaining "
              "constraints", ok)
