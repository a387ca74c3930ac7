"""The built-in rule table (`classtable.RULES` and the operator tables) as
the one source of the built-in classes a construct needs.

`reference_scan.py` is the scan of forced type names as a hand-written
traversal; the scan over `syntax.walk` gives the same set on every program
here.  Constraint generation names no class outside the table it builds
against, so a rule that generation uses and the scan does not force
fails here.
"""

import sys
from pathlib import Path

import pytest

import jtxinfer as J
from jtxinfer import pipeline as P
from jtxinfer.classtable import (FIXED_OPERATORS, OVERLOADED_OPERATORS,
                                 _scan_occurrences, load_builtin_entries,
                                 qualified_names)
from jtxinfer.parser import parse
from jtxinfer.syntax import BINARY_PREC
from jtxinfer.typeterms import ClassType, TypeVar

import reference_scan
from conftest import ALL_GOLDEN_SRCS, PINNED_SRCS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

WORKLOADS = ("paper-units", "ambiguity", "long-methods")

# one program per construct whose typing rule names a built-in class or a
# function type, each typed without an import
CONSTRUCTS = {
    "IntLit": "class C { m() { return 1; } }",
    "BoolLit": "class C { m() { return true; } }",
    "StrLit": 'class C { m() { return "s"; } }',
    "LessEq": "class C { m(a, b) { return a <= b; } }",
    "Or": "class C { m(a, b) { return a || b; } }",
    "While": "class C { m(x) { while (x) { } return x; } }",
    "Increment": "class C { m(x) { x++; return x; } }",
    "Lambda0": "class C { m() { return () -> 1; } }",
    "Lambda1": "class C { m() { return x -> x; } }",
    "Lambda2": "class C { m() { return (x, y) -> y; } }",
    "Block0": "class C { m() { return () -> { return true; }; } }",
    "Block1": "class C { m() { return x -> { return x; }; } }",
    "Block2": "class C { m() { return (x, y) -> { x = y; }; } }",
    "Apply0": "class C { m(f) { return f.apply(); } }",
    "Apply1": "class C { m(f) { return f.apply(1); } }",
    "Apply2": "class C { m(f, x) { return f.apply(x, true); } }",
    "NewPair": "class C { m() { return new Pair<>(1, 2); } }",
    "NewQualified": "class C { m() { return new java.util.Pair<>(1, 2); } }",
    "Qualified": "class C { m(java.lang.Double d) { "
                 "java.lang.Integer x = 1; return d; } }",
}


def corpus_programs(seeds):
    return {f"{w}/{s}/{p.name}": p.source
            for w in WORKLOADS for s in seeds for p in corpus.workload(w, s)}


# the programs whose generated constraints are checked against the table
GENERATED = {**CONSTRUCTS, **ALL_GOLDEN_SRCS, **corpus_programs((1,))}


def test_scan_forces_what_the_reference_scan_forces():
    progs = {**ALL_GOLDEN_SRCS, **PINNED_SRCS, **CONSTRUCTS,
             **corpus_programs((1, 2, 3))}
    qualified = qualified_names(load_builtin_entries())
    for name, src in progs.items():
        prog = parse(src)
        assert (_scan_occurrences(prog, qualified)
                == reference_scan._scan_occurrences(prog)), name


def test_binary_operators_are_exactly_the_rule_table_operators():
    assert not OVERLOADED_OPERATORS.keys() & FIXED_OPERATORS.keys()
    assert set(BINARY_PREC) == OVERLOADED_OPERATORS.keys() \
        | FIXED_OPERATORS.keys()


def class_heads(term):
    """The class heads named anywhere in `term`, declared variables
    aside."""
    if not isinstance(term, ClassType):
        return
    if not isinstance(term, TypeVar):
        yield term.name
    for a in term.args:
        yield from class_heads(a)


def generated(src, monkeypatch):
    """(class name, generation result, table) for each class of `src`, as
    the pipeline generates them."""
    out = []
    generate = P.generate_constraints

    def recording(cls, table):
        gen = generate(cls, table)
        out.append((cls.name, gen, table))
        return gen

    monkeypatch.setattr(P, "generate_constraints", recording)
    J.run_source(src)
    return out


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_constraints_name_only_classes_of_the_table(name, monkeypatch):
    """Every class head in the base constraints and in each alternative of
    each or-group is in the table the class is generated against."""
    results = generated(GENERATED[name], monkeypatch)
    assert results
    for cname, gen, table in results:
        # by index, which builds each alternative of a receiver group
        alts = [g[i] for g in gen.groups for i in range(len(g))]
        constraints = [*gen.base, *(c for a in alts for c in a.constraints)]
        for c in constraints:
            for head in (*class_heads(c.lhs), *class_heads(c.rhs)):
                assert table.has(head), (cname, str(c))
