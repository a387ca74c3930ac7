"""Finitary subtype unification over a finite class table.

`unify` returns the complete set of maximal solutions; each solution is a
substitution plus the remaining placeholder-pair subtype constraints that
were left symbolic.  Branch points are the lower-bound expansion (a
placeholder below a class type ranges over the finitely many table types
below it) and the dual upper-bound expansion along the supertype chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import Constraint, FreshNames, doteq, lessdot
from .errors import Untypable
from .typeterms import (VOID, ClassType, FunType, TPH, fun_head_arity,
                        fun_type, substitute, tphs_of)

_MAX_STEPS = 500_000


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


def _bind(cons, sigma, name, term):
    """Apply the binding name -> term to the constraints and to sigma, and
    add it to sigma; None when `name` occurs in `term`."""
    if name in tphs_of(term):
        return None
    one = {name: term}
    cons = [Constraint(x.kind, substitute(x.lhs, one), substitute(x.rhs, one))
            for x in cons]
    sigma = {k: substitute(v, one) for k, v in sigma.items()}
    sigma[name] = term
    return cons, sigma


def _head(t):
    if isinstance(t, TPH):
        return ("tph",)
    if t == VOID:
        return ("void",)
    if isinstance(t, FunType):
        return ("fun", t.arity, t.ret == VOID)
    return ("class", t.name)


class _Unifier:
    def __init__(self, table, fresh, max_solutions):
        self.table = table
        self.fresh = fresh
        self.max_solutions = max_solutions
        self.solutions = {}   # ordered set, so sort ties keep found order
        self.steps = 0

    def _tick(self):
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise Untypable("unification did not terminate")

    def _fresh_like(self, tph):
        scope = self.fresh.scope_of(tph.name) or ("class",)
        return self.fresh.tph(scope)

    def solve(self, cons, sigma):
        if self.max_solutions and len(self.solutions) >= self.max_solutions:
            return
        state = self._simplify(list(cons), dict(sigma))
        if state is None:
            return
        cons, sigma = state
        branch = self._pick_branch(cons)
        if branch is None:
            self._emit(cons, sigma)
            return
        idx, c = branch
        rest = cons[:idx] + cons[idx + 1:]
        for bind_name, term, extra in self._branches(c):
            state = _bind(rest + extra, sigma, bind_name, term)
            if state is not None:
                self.solve(*state)

    # -- deterministic simplification ------------------------------------

    def _simplify(self, cons, sigma):
        """Apply non-branching rules to a fixpoint; None on contradiction."""
        i = 0
        while i < len(cons):
            self._tick()
            c = cons[i]
            if c.lhs == c.rhs:
                del cons[i]
                continue
            if c.kind == "doteq":
                out = self._step_doteq(c)
            else:
                out = self._step_lessdot(c)
            if out == "fail":
                return None
            if out == "keep":
                i += 1
                continue
            if isinstance(out, tuple) and out[0] == "bind":
                _, name, term = out
                del cons[i]
                state = _bind(cons, sigma, name, term)
                if state is None:
                    return None
                cons, sigma = state
                i = 0
                continue
            # list of replacement constraints
            cons[i:i + 1] = out
            continue
        return cons, sigma

    def _step_doteq(self, c):
        a, b = c.lhs, c.rhs
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

    def _step_lessdot(self, c):
        a, b = c.lhs, c.rhs
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

    def _pick_branch(self, cons):
        for i, c in enumerate(cons):
            if c.kind != "lessdot":
                continue
            l_tph = isinstance(c.lhs, TPH)
            r_tph = isinstance(c.rhs, TPH)
            if l_tph != r_tph:
                return (i, c)
        return None

    def _branches(self, c):
        """(bind name, term, extra constraints) triples for a constraint
        with a placeholder on exactly one side."""
        if isinstance(c.lhs, TPH):
            t, bound = c.lhs, c.rhs
            for name in self.table.subtype_heads(_head(bound)[1]) \
                    if isinstance(bound, ClassType) else [bound.head]:
                term = self._shape(name, t)
                yield (t.name, term, [lessdot(term, bound)])
        else:
            t, low = c.rhs, c.lhs
            seen = set()
            for sup in self.table.supertype_chain(low):
                h = _head(sup)
                if h in seen:
                    continue
                seen.add(h)
                if isinstance(sup, FunType):
                    term = self._shape(sup.head, t)
                    yield (t.name, term, [lessdot(low, term)])
                elif any(v != 0 for v in self.table.variance(sup.name)):
                    term = self._shape(sup.name, t)
                    yield (t.name, term, [lessdot(low, term)])
                else:
                    yield (t.name, sup, [])

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

    def _emit(self, cons, sigma):
        pairs = set()
        for c in cons:
            if c.lhs == c.rhs:
                continue
            pairs.add((c.lhs.name, c.rhs.name))
        sol = Solution(tuple(sorted(pairs)),
                       tuple(sorted(sigma.items(), key=lambda kv: kv[0])))
        self.solutions.setdefault(sol)


def unify(constraints, table, fresh=None, max_solutions=None):
    """All maximal solutions of a constraint set over the given table."""
    if fresh is None:
        fresh = FreshNames()
        for c in constraints:
            for n in tphs_of(c.lhs) | tphs_of(c.rhs):
                fresh.adopt(n)
    u = _Unifier(table, fresh, max_solutions)
    u.solve(list(constraints), {})
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
