"""Finitary subtype unification over a finite class table.

`unify` returns the solutions of a constraint set; each solution is a
substitution plus the remaining placeholder-pair subtype constraints that
were left symbolic.  Branch points are the lower-bound expansion (a
placeholder below a class type ranges over the finitely many table types
below it) and the dual upper-bound expansion along the supertype chain.

The search works on one store and never copies it:

* A worklist holds the pending constraints.  A constraint is resolved
  against sigma when it is popped, and each pop is one step of the
  `MAX_STEPS` budget; running out raises `ResourceLimit`.
* Sigma is triangular: a bound term may mention placeholders that were
  bound after it, and `_Sigma.get` resolves them, so a bind writes one
  entry.  Solutions hold the fully resolved terms.
* Stuck constraints (placeholder < placeholder, and the one-sided lessdots
  that are branch points) are parked in an occurrence index keyed by the
  placeholders on their two sides.  Binding a name re-queues that name's
  parked constraints and nothing else.
* A trail logs every bind, park and unpark, and an explicit stack holds one
  frame per open branch point: its trail mark and its untried
  alternatives.  Trying the next alternative first undoes the trail to the
  frame's mark, so a refuted alternative costs only what it touched.

Branch points are taken in parking order: the oldest one-sided lessdot
still parked is next, its alternatives made lazily in `_branches` order.

An upper-bound expansion of a *sink* does not branch.  A sink is a
placeholder mentioned only as the upper side of lessdots whose lower sides
are class types without arguments, and whose every alternative is such a
type; it gets the first alternative above all its lower bounds.  Every
other alternative is refuted or yields the same solutions with a greater
type at the sink, which the pipeline's minimality drops; and none draws a
fresh name.  The search counts, per placeholder, the bound terms and the
headed sides of parked constraints that mention it, so the test costs no
scan of the store.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .constraints import FreshNames, doteq, lessdot
from .errors import ResourceLimit
from .typeterms import (VOID, ClassType, FunType, TPH, fun_head_arity,
                        fun_type, substitute, tphs_of)

# worklist pops per `unify` call
MAX_STEPS = 500_000


@dataclass(frozen=True)
class Solution:
    remaining: tuple      # sorted tuple of (lhs name, rhs name)
    sigma: tuple          # sorted tuple of (name, term)

    def sigma_dict(self):
        return dict(self.sigma)

    def __str__(self):
        return format_solution(self)


def format_solution(sol):
    lines = ["remaining:"]
    for l, r in sol.remaining:
        lines.append(f"  {l} < {r}")
    lines.append("sigma:")
    for name, term in sol.sigma:
        lines.append(f"  {name} -> {term}")
    return "\n".join(lines)


def _age(name):
    """Creation-order key of a generated placeholder name (A < ... < Z <
    AA < ...)."""
    return (len(name), name)


def _atomic(t):
    return isinstance(t, ClassType) and not t.args


def _head(t):
    if isinstance(t, TPH):
        return ("tph",)
    if t == VOID:
        return ("void",)
    if isinstance(t, FunType):
        return ("fun", t.arity, t.ret == VOID)
    return ("class", t.name)


class _Sigma(dict):
    """Triangular substitution: `get` resolves the names a bound term
    mentions, so `substitute(t, sigma)` is the fully resolved term."""

    def get(self, name, default=None):
        term = dict.get(self, name)
        return default if term is None else substitute(term, self)


class _Parked:
    """A stuck lessdot in the occurrence index."""

    __slots__ = ("lhs", "rhs", "parked", "nested")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs
        self.parked = False
        # the names inside a headed side, which the index does not key
        self.nested = [n for t in (lhs, rhs) if not isinstance(t, TPH)
                       for n in tphs_of(t)]

    def names(self):
        """The placeholder names on its two sides."""
        if not isinstance(self.lhs, TPH):
            return (self.rhs.name,)
        if not isinstance(self.rhs, TPH):
            return (self.lhs.name,)
        return (self.lhs.name, self.rhs.name)


_BIND, _PARK, _UNPARK = range(3)


class _Unifier:
    def __init__(self, table, fresh):
        self.table = table
        self.fresh = fresh
        self.max_steps = MAX_STEPS
        self.solutions = {}   # ordered set, so sort ties keep found order
        self.steps = 0
        self.branch_points = 0
        self.sinks = 0
        self.sigma = _Sigma()
        self.work = []        # stack of (kind, lhs, rhs), next last
        self.index = {}       # placeholder name -> {_Parked: None}
        # placeholder name -> how many bound terms and headed sides of
        # parked constraints mention it
        self.nested = {}
        self.branchable = deque()  # one-sided _Parked, in parking order
        self.trail = []

    def _fresh_like(self, tph):
        scope = self.fresh.scope_of(tph.name) or ("class",)
        return self.fresh.tph(scope)

    def solve(self, cons):
        """Collect the solutions of `cons` into `self.solutions`."""
        self.work = [(c.kind, c.lhs, c.rhs) for c in reversed(cons)]
        stack = []            # (trail mark, untried alternatives)
        self._advance(stack)
        while stack:
            mark, alternatives = stack[-1]
            self._undo(mark)
            alt = next(alternatives, None)
            if alt is None:
                stack.pop()
                continue
            name, term, extra = alt
            if self._bind(name, term):
                self.work.extend((c.kind, c.lhs, c.rhs) for c in extra)
                self._advance(stack)

    def _advance(self, stack):
        """Simplify; then emit a solution or open the next branch point."""
        if not self._simplify():
            return
        queue = self.branchable
        while queue and not queue[0].parked:
            queue.popleft()
        if not queue:
            self._emit()
            return
        c = queue[0]
        self._unpark(c)
        self.branch_points += 1
        sigma = self.sigma
        c = lessdot(substitute(c.lhs, sigma), substitute(c.rhs, sigma))
        stack.append((len(self.trail), self._branches(c)))

    # -- the store -------------------------------------------------------

    def _bind(self, name, term):
        """Bind `name` and re-queue its parked constraints; False when
        `name` occurs in `term`."""
        names = tphs_of(term)
        if name in names:
            return False
        self.sigma[name] = term
        self._count(names, 1)
        self.trail.append((_BIND, name))
        for c in list(self.index.get(name, ())):
            self._unpark(c)
            self.work.append(("lessdot", c.lhs, c.rhs))
        return True

    def _unpark(self, c):
        self._unlink(c)
        self.trail.append((_UNPARK, c))

    def _count(self, names, step):
        nested = self.nested
        for n in names:
            nested[n] = nested.get(n, 0) + step

    def _link(self, c):
        c.parked = True
        self._count(c.nested, 1)
        index = self.index
        names = c.names()
        for n in names:
            if n in index:
                index[n][c] = None
            else:
                index[n] = {c: None}
        if len(names) == 1:
            self.branchable.append(c)

    def _unlink(self, c):
        c.parked = False
        self._count(c.nested, -1)
        for n in c.names():
            del self.index[n][c]

    def _undo(self, mark):
        trail = self.trail
        while len(trail) > mark:
            op, x = trail.pop()
            if op == _BIND:
                self._count(tphs_of(self.sigma.pop(x)), -1)
            elif op == _PARK:
                self._unlink(x)
            else:
                self._link(x)

    # -- deterministic simplification ------------------------------------

    def _simplify(self):
        """Apply non-branching rules until the worklist is empty; False on
        contradiction."""
        work, sigma = self.work, self.sigma
        while work:
            if self.steps == self.max_steps:
                raise ResourceLimit(
                    f"unification needs more than {self.max_steps} steps")
            self.steps += 1
            kind, a, b = work.pop()
            if sigma:
                a, b = substitute(a, sigma), substitute(b, sigma)
            if a == b:
                continue
            if kind == "doteq":
                out = self._step_doteq(a, b)
            else:
                out = self._step_lessdot(a, b)
            if out == "keep":
                c = _Parked(a, b)
                self._link(c)
                self.trail.append((_PARK, c))
            elif out == "fail" or (isinstance(out, tuple)
                                   and not self._bind(out[1], out[2])):
                work.clear()
                return False
            elif isinstance(out, list):
                # replacement constraints, in the popped one's place
                work.extend((x.kind, x.lhs, x.rhs) for x in reversed(out))
        return True

    def _step_doteq(self, a, b):
        if isinstance(a, TPH) and isinstance(b, TPH):
            if _age(a.name) >= _age(b.name):
                return ("bind", a.name, b)
            return ("bind", b.name, a)
        if isinstance(a, TPH):
            return ("bind", a.name, b)
        if isinstance(b, TPH):
            return ("bind", b.name, a)
        ha, hb = _head(a), _head(b)
        if ha != hb:
            return "fail"
        if ha[0] == "void":
            return []
        if ha[0] == "fun":
            out = [doteq(x, y) for x, y in zip(a.args, b.args)]
            if a.ret != VOID:
                out.append(doteq(a.ret, b.ret))
            return out
        if len(a.args) != len(b.args):
            return "fail"
        return [doteq(x, y) for x, y in zip(a.args, b.args)]

    def _step_lessdot(self, a, b):
        if a == VOID or b == VOID:
            return "fail"
        if isinstance(b, ClassType) and b.name == "Object" and not b.args:
            return []
        if isinstance(a, TPH) and isinstance(b, TPH):
            return "keep"
        if isinstance(a, TPH) or isinstance(b, TPH):
            return "keep"  # branch point, handled later
        # both headed: adapt along the supertype chain, then decompose
        hb = _head(b)
        for sup in self.table.supertype_chain(a):
            if _head(sup) != hb:
                continue
            return self._decompose(sup, b)
        return "fail"

    def _decompose(self, a, b):
        if isinstance(a, FunType):
            out = [lessdot(y, x) for x, y in zip(a.args, b.args)]
            if a.ret != VOID:
                out.append(lessdot(a.ret, b.ret))
            return out
        if len(a.args) != len(b.args):
            return "fail"
        variance = self.table.variance(a.name) or [0] * len(a.args)
        out = []
        for v, x, y in zip(variance, a.args, b.args):
            if v == 0:
                out.append(doteq(x, y))
            elif v < 0:
                out.append(lessdot(y, x))
            else:
                out.append(lessdot(x, y))
        return out

    # -- branching --------------------------------------------------------

    def _branches(self, c):
        """(bind name, term, extra constraints) triples for a constraint
        with a placeholder on exactly one side.  A declared type variable
        is offered only to placeholders of the members it is in scope for."""
        t = c.lhs if isinstance(c.lhs, TPH) else c.rhs
        scope = self.fresh.scope_of(t.name) or ("class",)
        if t is c.lhs:
            bound = c.rhs
            for name in self.table.subtype_heads(_head(bound)[1], scope) \
                    if isinstance(bound, ClassType) else [bound.head]:
                term = self._shape(name, t)
                yield (t.name, term, [lessdot(term, bound)])
        else:
            low = c.lhs
            seen = set()
            sups = []
            for sup in self.table.supertype_chain(low):
                h = _head(sup)
                if h in seen or (self.table.is_typevar(sup) and
                                 not self.table.in_scope(sup.name, scope)):
                    continue
                seen.add(h)
                sups.append(sup)
            if self._is_sink(t, low, sups):
                # each other choice refutes or differs only at `t`, above
                # the least feasible one
                self.sinks += 1
                lows = [low] + [p.lhs for p in self.index.get(t.name, ())]
                least = next((s for s in sups if all(
                    self.table.is_subtype(l, s) for l in lows)), None)
                sups = [] if least is None else [least]
            for sup in sups:
                if isinstance(sup, FunType):
                    term = self._shape(sup.head, t)
                    yield (t.name, term, [lessdot(low, term)])
                elif any(v != 0 for v in self.table.variance(sup.name)):
                    term = self._shape(sup.name, t)
                    yield (t.name, term, [lessdot(low, term)])
                else:
                    yield (t.name, sup, [])

    def _is_sink(self, t, low, sups):
        """Whether placeholder `t` above `low` is a sink: it is mentioned
        only as the upper side of lessdots from atomic types, and each of
        its choices `sups` is atomic."""
        return (not self.nested.get(t.name) and _atomic(low)
                and all(_atomic(s) for s in sups)
                and all(_atomic(p.lhs) for p in self.index.get(t.name, ())))

    def _shape(self, name, like):
        """A `name`-headed term with fresh placeholder arguments scoped like
        the placeholder being refined."""
        fh = fun_head_arity(name)
        if fh is not None:
            is_void, n = fh
            return fun_type(is_void, [self._fresh_like(like)
                                      for _ in range(n if is_void else n + 1)])
        if name in self.table.typevars:
            return ClassType(name)
        entry = self.table.entry(name)
        return ClassType(name, tuple(self._fresh_like(like)
                                     for _ in range(entry.arity)))

    # -- results -----------------------------------------------------------

    def _emit(self):
        pairs = {(c.lhs.name, c.rhs.name)
                 for parked in self.index.values() for c in parked}
        sigma = self.sigma
        sol = Solution(tuple(sorted(pairs)),
                       tuple((n, substitute(sigma[n], sigma))
                             for n in sorted(sigma)))
        self.solutions.setdefault(sol)


def unify(constraints, table, fresh=None, stats=None):
    """The solutions of a constraint set over the given table: every
    solution, except those that differ from a returned one only in a
    greater type at a sink.

    Raises `ResourceLimit` after `MAX_STEPS` worklist pops.  When `stats`
    (a `collections.Counter`) is given, the search adds its `steps`,
    `branch_points` and `sinks` (the branch points resolved without
    branching) to it."""
    if fresh is None:
        fresh = FreshNames()
        for c in constraints:
            for n in tphs_of(c.lhs) | tphs_of(c.rhs):
                fresh.adopt(n)
    u = _Unifier(table, fresh)
    try:
        u.solve(list(constraints))
    finally:
        if stats is not None:
            stats.update(steps=u.steps, branch_points=u.branch_points,
                         sinks=u.sinks)
    return sorted(u.solutions,
                  key=lambda s: (s.remaining,
                                 tuple((k, str(v)) for k, v in s.sigma)))


def transitive_closure(pairs):
    """Reflexive-transitive closure of a relation on placeholder names."""
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
