"""The benchmark corpus: the seven paper programs and five seeded families.

Every program carries the signature lines it must produce.  For the paper
programs they are transcribed by hand into ``paper/*.expected``; for the
generated families they follow from how each program is built.  The seed
only varies identifiers and the order of shapes, so the work per program
is the same for every seed.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

PAPER_DIR = Path(__file__).resolve().parent / "paper"
PAPER_PROGRAMS = ("Fac", "TPHsToGenerics", "Mutual", "Cycle", "Infimum",
                  "OL", "OLFun")

# Sizes per family.  Each family has at least two sizes so growth along its
# axis shows; the largest sizes keep one pass short enough that a run
# collects well over 100 compile samples (p90 needs ten beyond it).
CLASSES_SIZES = (10, 20, 30)
DEPTH_SIZES = (10, 20, 40)
REFUTABLE_SIZES = (3, 4, 5)
SURVIVING_SIZES = (1, 2)
# The long methods come in five evenly spaced sizes per shape, so their
# costs spread evenly.  With 15 programs the p50 (rank 7.5) and the p90
# (rank 13.5) fall in the middle of one program's samples, not on the gap
# between two.
LONG_SIZES = (40, 65, 90, 115, 140)
LONG_SHAPES = ("mul", "add", "self")

WORKLOADS = ("paper-units", "ambiguity", "long-methods")

DEPTH_DEFECT = ("a cross-class call to an inferred generic method loses its "
                "bound, so D1.f reads <A, B> A -> B and the typed output does "
                "not re-enter")

_OVERLOADED = ("Integer", "Double", "String", "Boolean")
_IMPORTS = "".join(f"import java.lang.{t};\n" for t in _OVERLOADED)


@dataclass(frozen=True)
class Program:
    name: str              # family/size, e.g. "depth/n40"
    source: str
    sigs: tuple            # expected signature lines, in output order
    known_defect: str = ""  # non-empty: a recorded defect makes it fail

    @property
    def stem(self):
        return self.name.replace("/", "-")

    @property
    def class_names(self):
        return frozenset(re.findall(r"\bclass\s+(\w+)", self.source))


class _Names:
    """Seeded identifiers.  Each carries a digit, so none is a keyword."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def __call__(self, prefix=""):
        while True:
            tag = "".join(self.rng.choice(string.ascii_lowercase)
                          for _ in range(3))
            name = f"{prefix}{tag}{self.rng.randrange(10)}"
            if name not in self.used:
                self.used.add(name)
                return name


def _method(name, params, body_lines, ret):
    body = "".join(f"        {line}\n" for line in body_lines)
    return (f"    {name}({', '.join(params)}) {{\n{body}"
            f"        return {ret};\n    }}\n")


def _class(name, methods):
    return f"class {name} {{\n{''.join(methods)}}}\n"


# --- families ----------------------------------------------------------------

def classes_unit(n, rng):
    """n independent classes, each with generic m, id and k in seeded order.

    m returns its second parameter, id its parameter and k its first, so
    each returned parameter is bounded by the return type and any other
    parameter is unbounded."""
    names = _Names(rng)
    shapes = {
        "m": (lambda a, b: ([a, b], b), "<A, B extends C, C> (A, B) -> C"),
        "id": (lambda a, b: ([a], a), "<A extends B, B> A -> B"),
        "k": (lambda a, b: ([a, b], a), "<A extends C, B, C> (A, B) -> C"),
    }
    units, sigs = [], []
    for i in range(n):
        cname = names("K")
        order = list(shapes)
        rng.shuffle(order)
        methods = []
        for mname in order:
            build, sig = shapes[mname]
            params, ret = build(names(), names())
            methods.append(_method(mname, params, [], ret))
            sigs.append(f"{cname}.{mname} : {sig}")
        units.append(_class(cname, methods))
    return Program(f"classes/n{n}", "".join(units), tuple(sigs))


def depth_unit(n, rng):
    """D_0.f(x) returns x; D_i.f(x) returns D_{i-1}'s f of x.

    The receiver is held in a local, so `.f` is an or-group over every
    earlier class.  Each f has the typing of a same-class call
    `g(x) { return f(x); }`: <A extends B, B> A -> B."""
    names = _Names(rng)
    cnames = [names("D") for _ in range(n)]
    units = []
    for i, cname in enumerate(cnames):
        x = names()
        if i == 0:
            units.append(_class(cname, [_method("f", [x], [], x)]))
        else:
            d = names()
            units.append(_class(cname, [_method(
                "f", [x], [f"var {d} = new {cnames[i - 1]}();"],
                f"{d}.f({x})")]))
    sigs = tuple(f"{c}.f : <A extends B, B> A -> B" for c in cnames)
    return Program(f"depth/n{n}", "".join(units), sigs,
                   DEPTH_DEFECT if n >= 2 else "")


def refutable_unit(n, rng):
    """One method with n independent `var vi = a + i;` lines.

    Each `+` is an or-group of three operand types; only the Integer
    choice of every group is typable, so 3^n candidates yield one typing."""
    names = _Names(rng)
    a = names()
    consts = list(range(1, n + 1))
    rng.shuffle(consts)
    lines = [f"var {names()} = {a} + {i};" for i in consts]
    cname = names("C")
    return Program(f"refutable/n{n}",
                   _class(cname, [_method("m", [a], lines, a)]),
                   (f"{cname}.m : Integer -> Integer",))


def surviving_unit(n, rng):
    """main(x1..xn) applies the overloaded OL.m to each parameter.

    OL.m has four typings, so every parameter independently takes one of
    four types and main has 4^n intersection members, listed in the order
    the README documents (Integer, Double, String, Boolean per position,
    leftmost position first)."""
    names = _Names(rng)
    ol, main = names("OL"), names("Main")
    xs = [names() for _ in range(n)]
    ys = [names() for _ in range(n)]
    recv = names()
    lines = [f"var {recv} = new {ol}();"]
    lines += [f"var {y} = {recv}.m({x});" for x, y in zip(xs, ys)]
    source = (_IMPORTS + _class(ol, [
        _method("m", ["x"], [], "x + x"),
        _method("m", ["x"], [], "x || x")])
        + _class(main, [_method("main", xs, lines, ys[0])]))
    members = []
    for combo in itertools.product(_OVERLOADED, repeat=n):
        params = combo[0] if n == 1 else f"({', '.join(combo)})"
        members.append(f"{params} -> {combo[0]}")
    sigs = (f"{ol}.m : Integer -> Integer & Double -> Double & "
            f"String -> String",
            f"{ol}.m : Boolean -> Boolean",
            f"{main}.main : " + " & ".join(members))
    return Program(f"surviving/n{n}", source, sigs)


def long_unit(n, shape, rng):
    """A straight-line all-Integer method of n statements, no parameters."""
    names = _Names(rng)
    if shape == "self":
        x = names()
        lines = [f"var {x} = 1;"] + [f"{x} = {x} * 2;"] * (n - 1)
        ret = x
    else:
        op = "* 2" if shape == "mul" else "+ 1"
        vs = [names() for _ in range(n)]
        lines = [f"var {vs[0]} = 1;"]
        lines += [f"var {v} = {prev} {op};" for prev, v in zip(vs, vs[1:])]
        ret = vs[-1]
    cname = names("S")
    return Program(f"long-{shape}/n{n}",
                   _class(cname, [_method("m", [], lines, ret)]),
                   (f"{cname}.m : () -> Integer",))


# --- workloads ---------------------------------------------------------------

def paper_program(name):
    sigs = tuple(
        line for line in (PAPER_DIR / f"{name}.expected").read_text()
        .splitlines() if line.strip() and not line.startswith("#"))
    return Program(f"paper/{name}",
                   (PAPER_DIR / f"{name}.jtx").read_text(), sigs)


def workload(name, seed):
    """The programs of one workload, in the seeded order of one pass."""
    rng = random.Random(f"{name}:{seed}")
    if name == "paper-units":
        progs = [paper_program(p) for p in PAPER_PROGRAMS]
        progs += [classes_unit(n, rng) for n in CLASSES_SIZES]
        progs += [depth_unit(n, rng) for n in DEPTH_SIZES]
    elif name == "ambiguity":
        progs = [paper_program("OL"), paper_program("OLFun")]
        progs += [refutable_unit(n, rng) for n in REFUTABLE_SIZES]
        progs += [surviving_unit(n, rng) for n in SURVIVING_SIZES]
    elif name == "long-methods":
        progs = [long_unit(n, s, rng) for s in LONG_SHAPES
                 for n in LONG_SIZES]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(progs)
    return progs
