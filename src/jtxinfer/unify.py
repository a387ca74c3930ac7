"""Finitary subtype unification over a finite class table.

`unify` returns the solutions of a constraint set; each solution is a
substitution plus the remaining placeholder-pair subtype constraints that
were left symbolic.  Branch points are the or-groups of alternative
constraint sets, the lower-bound expansion (a placeholder below a class
type ranges over the finitely many table types below it) and the dual
upper-bound expansion along the supertype chain.

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
  parked constraints and nothing else.  An unparked constraint keeps its
  place in the index, flagged, until the park itself is undone.
* A trail logs every bind, park, unpark and move of the branch queue's
  head, and an explicit stack holds one frame per open branch point: its
  trail mark and its untried alternatives.  Trying the next alternative
  first undoes the trail to the frame's mark, which restores the store
  exactly, the order of the parked constraints included; so a refuted
  alternative costs only what it touched.

The or-groups are the outermost branch points.  The base constraints are
simplified once; then one frame per group is opened, in group order, each
after the alternative of the group before it is simplified, and no
lessdot is branched on before every group has its alternative.  A *choice*
picks one alternative per group; its subtree is the search that the
flattened candidate of base plus chosen constraints would run on its own,
step for step and name for name: undoing to a group frame also resets the
fresh-name counter and the step budget to what they were at its mark.

A receiver group (a member call on a placeholder receiver, one alternative
per class that declares the member) is filtered when its frame opens: it
tries only the alternatives whose class head the receiver may still take,
the head of the term it is bound to, or else a head on the supertype chain
of every headed lower bound parked on it.  A skipped alternative is one
whose first constraint, `recv = C<...>`, would fail at once: against the
binding, or by re-queueing a lower bound `lo < recv` that `_step_lessdot`
fails on the same chain.  Since it would draw no name and emit nothing, the
surviving choices keep their solutions, order and names; the skipped ones
are counted as `pruned`, and an alternative is built only when tried.

The lessdot branch points are taken in parking order: the oldest one-sided
lessdot still parked is next, its alternatives made lazily in `_branches`
order.

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

from dataclasses import dataclass, field

from .constraints import FreshNames, doteq, lessdot
from .errors import ResourceLimit
from .typeterms import VOID, ClassType, TPH, substitute, tphs_of

# worklist pops per choice of or-group alternatives
MAX_STEPS = 500_000


@dataclass(frozen=True)
class Solution:
    remaining: tuple      # sorted tuple of (lhs name, rhs name)
    sigma: tuple          # sorted tuple of (name, term)
    choice: tuple = ()    # the alternative taken in each or-group
    # the names drawn when the choice's search ended; clone it to draw more
    fresh: FreshNames = field(default=None, compare=False, repr=False)

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


def _sort_key(sol):
    return (sol.remaining, tuple((k, str(v)) for k, v in sol.sigma))


def _age(name):
    """Creation-order key of a generated placeholder name (A < ... < Z <
    AA < ...)."""
    return (len(name), name)


def _atomic(t):
    return isinstance(t, ClassType) and not t.args


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


_BIND, _PARK, _UNPARK, _HEAD = range(4)


class _Unifier:
    def __init__(self, table, fresh, groups):
        self.table = table
        self.fresh = fresh
        self.groups = groups
        self.limit = MAX_STEPS  # `steps` at which the current choice is out
        self.solutions = []   # of the finished choices, in choice order
        self.found = {}       # the current choice's: an ordered set
        self.choice = []      # the alternative taken in each group so far
        self.steps = 0
        self.branch_points = 0
        self.sinks = 0
        self.alternatives = 0
        self.pruned = 0
        self.sigma = _Sigma()
        self.work = []        # stack of (kind, lhs, rhs), next last
        # placeholder name -> {_Parked: None}, in parking order
        self.index = {}
        # placeholder name -> how many bound terms and headed sides of
        # parked constraints mention it
        self.nested = {}
        self.branchable = []  # one-sided _Parked, in parking order
        self.head = 0         # all of branchable[:head] are unparked
        self.trail = []

    def _fresh_like(self, tph):
        scope = self.fresh.scope_of(tph.name) or ("class",)
        return self.fresh.tph(scope)

    def solve(self, cons):
        """Collect the solutions of `cons` plus one alternative of each
        group into `self.solutions`."""
        self._push(cons)
        # frames of (trail mark, untried alternatives, group): `group` is
        # None at a lessdot and (depth, fresh-name mark, steps left) at an
        # or-group
        stack = []
        self._advance(stack)
        while stack:
            mark, alternatives, group = stack[-1]
            if group is not None:
                self._close_choice()
                depth, names, left = group
                self.fresh.reset(names)
                self.limit = self.steps + left
            self._undo(mark)
            alt = next(alternatives, None)
            if alt is None:
                stack.pop()
                continue
            if group is None:
                name, term, extra = alt
                if not self._bind(name, term):
                    continue
                self._push(extra)
            else:
                i, alt = alt
                del self.choice[depth:]
                self.choice.append(i)
                self.alternatives += 1
                self._push(alt.constraints)
            self._advance(stack)
        self._close_choice()

    def _push(self, cons):
        """Queue `cons` to be simplified in list order."""
        self.work.extend((c.kind, c.lhs, c.rhs) for c in reversed(cons))

    def _advance(self, stack):
        """Simplify; then open the next or-group or branch point, or emit a
        solution."""
        if not self._simplify():
            return
        depth = len(self.choice)
        if depth < len(self.groups):
            stack.append((len(self.trail), self._tried(self.groups[depth]),
                          (depth, self.fresh.mark(), self.limit - self.steps)))
            return
        queue, i = self.branchable, self.head
        while i < len(queue) and not queue[i].parked:
            i += 1
        if i != self.head:
            self.trail.append((_HEAD, self.head))
            self.head = i
        if i == len(queue):
            self._emit()
            return
        c = queue[i]
        self._unpark(c)
        self.branch_points += 1
        sigma = self.sigma
        c = lessdot(substitute(c.lhs, sigma), substitute(c.rhs, sigma))
        stack.append((len(self.trail), self._branches(c), None))

    def _tried(self, group):
        """The (index, alternative) pairs an or-group's frame tries, in
        group order: a receiver alternative only when its head is one the
        receiver may still take.  Each skipped one would bind the receiver
        to a class that a lower bound or binding of it refutes at once."""
        heads = None if group[0].recv is None else self._heads(group[0].recv)
        if heads is None:
            return enumerate(group)
        tried = [(i, alt) for i, alt in enumerate(group) if alt.head in heads]
        self.pruned += len(group) - len(tried)
        return iter(tried)

    def _heads(self, recv):
        """The class heads `recv` may still take: the head it is bound to,
        or those on the supertype chain of each headed lower bound parked
        on it; None when neither bounds it."""
        recv = substitute(recv, self.sigma)
        if not isinstance(recv, TPH):
            return {recv.name} if isinstance(recv, ClassType) else set()
        heads = None
        for c in self.index.get(recv.name, ()):
            if c.parked and c.rhs == recv and isinstance(c.lhs, ClassType):
                # `lo < Object` holds whatever the chain of `lo`
                chain = {"Object"}.union(
                    t.name for t in self.table.supertype_chain(c.lhs))
                heads = chain if heads is None else heads & chain
        return heads

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
        for c in self.index.get(name, ()):
            if c.parked:
                self._unpark(c)
                self.work.append(("lessdot", c.lhs, c.rhs))
        return True

    def _count(self, names, step):
        nested = self.nested
        for n in names:
            nested[n] = nested.get(n, 0) + step

    def _park(self, c):
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
        self.trail.append((_PARK, c))

    def _unpark(self, c):
        c.parked = False
        self._count(c.nested, -1)
        self.trail.append((_UNPARK, c))

    def _undo(self, mark):
        trail = self.trail
        while len(trail) > mark:
            op, x = trail.pop()
            if op == _BIND:
                self._count(tphs_of(self.sigma.pop(x)), -1)
            elif op == _UNPARK:
                x.parked = True
                self._count(x.nested, 1)
            elif op == _PARK:
                # the newest entry of its index slots and of the queue
                x.parked = False
                self._count(x.nested, -1)
                names = x.names()
                for n in names:
                    del self.index[n][x]
                if len(names) == 1:
                    self.branchable.pop()
            else:
                self.head = x

    # -- deterministic simplification ------------------------------------

    def _simplify(self):
        """Apply non-branching rules until the worklist is empty; False on
        contradiction."""
        work, sigma = self.work, self.sigma
        while work:
            if self.steps == self.limit:
                raise ResourceLimit(
                    f"unification needs more than {MAX_STEPS} steps")
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
                self._park(_Parked(a, b))
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
        # a and b differ, so at most one is void
        if (a == VOID or b == VOID or a.name != b.name
                or len(a.args) != len(b.args)):
            return "fail"
        return [doteq(x, y) for x, y in zip(a.args, b.args)]

    def _step_lessdot(self, a, b):
        if a == VOID or b == VOID:
            return "fail"
        if isinstance(b, ClassType) and b.name == "Object" and not b.args:
            return []
        if isinstance(a, TPH) or isinstance(b, TPH):
            return "keep"  # one-sided: a branch point, handled later
        # both headed: adapt along the supertype chain, then decompose
        for sup in self.table.supertype_chain(a):
            if sup.name == b.name:
                return self._decompose(sup, b)
        return "fail"

    def _decompose(self, a, b):
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
        with a placeholder on exactly one side.  Below a bound the choices
        are the heads under its head, `subtype_heads`; above a lower bound
        they are its supertype chain, a head with some variant parameter
        shaped with fresh arguments.  Function types are table classes, so
        they take the same path.  A declared type variable is offered only
        to placeholders of the members it is in scope for."""
        t = c.lhs if isinstance(c.lhs, TPH) else c.rhs
        scope = self.fresh.scope_of(t.name) or ("class",)
        if t is c.lhs:
            bound = c.rhs
            for name in self.table.subtype_heads(bound.name, scope):
                term = self._shape(name, t)
                yield (t.name, term, [lessdot(term, bound)])
        else:
            low = c.lhs
            seen = set()
            sups = []
            for sup in self.table.supertype_chain(low):
                if sup.name in seen or (
                        self.table.is_typevar(sup)
                        and not self.table.in_scope(sup.name, scope)):
                    continue
                seen.add(sup.name)
                sups.append(sup)
            if self._is_sink(t, low, sups):
                # each other choice refutes or differs only at `t`, above
                # the least feasible one
                self.sinks += 1
                lows = [low] + [p.lhs for p in self.index.get(t.name, ())
                                if p.parked]
                least = next((s for s in sups if all(
                    self.table.is_subtype(l, s) for l in lows)), None)
                sups = [] if least is None else [least]
            for sup in sups:
                if any(v != 0 for v in self.table.variance(sup.name)):
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
                and all(_atomic(p.lhs) for p in self.index.get(t.name, ())
                        if p.parked))

    def _shape(self, name, like):
        """A `name`-headed term with fresh placeholder arguments scoped like
        the placeholder being refined."""
        if name in self.table.typevars:
            return ClassType(name)
        entry = self.table.entry(name)
        return ClassType(name, tuple(self._fresh_like(like)
                                     for _ in range(entry.arity)))

    # -- results -----------------------------------------------------------

    def _emit(self):
        pairs = {(c.lhs.name, c.rhs.name)
                 for slot in self.index.values() for c in slot if c.parked}
        sigma = self.sigma
        sol = Solution(tuple(sorted(pairs)),
                       tuple((n, substitute(sigma[n], sigma))
                             for n in sorted(sigma)))
        self.found.setdefault(sol)

    def _close_choice(self):
        """Move the current choice's solutions to `solutions`, sorted, each
        with the names drawn so far."""
        if not self.found:
            return
        choice, fresh = tuple(self.choice), self.fresh.clone()
        self.solutions.extend(Solution(s.remaining, s.sigma, choice, fresh)
                              for s in sorted(self.found, key=_sort_key))
        self.found = {}


def unify(constraints, table, fresh=None, stats=None, groups=()):
    """The solutions of the base `constraints` plus one alternative of each
    or-group in `groups` (a list of groups, each a list of
    `constraints.Alternative`) over the given table: every solution,
    except those that differ from a returned one only in a greater type at
    a sink.  A receiver group's frame skips the alternatives whose class
    head the receiver can no longer take (see the module docstring); they
    are never built.

    The search is the one `flatten` candidates would each get, merged: the
    solutions come grouped by their `choice` of alternatives, in the
    candidates' order, and sorted within a choice.  A solution's `fresh`
    holds the names drawn when its choice's search ended.

    Raises `ResourceLimit` when a choice takes more than `MAX_STEPS`
    worklist pops, the pops it shares with other choices included.  When
    `stats` (a `collections.Counter`) is given, the search adds its
    `steps`, `branch_points`, `sinks` (the branch points resolved without
    branching), `alternatives` (the or-group alternatives tried) and
    `pruned` (the receiver alternatives skipped) to it."""
    if fresh is None:
        fresh = FreshNames()
        for c in [*constraints, *(c for group in groups
                                  for alt in group for c in alt.constraints)]:
            for n in tphs_of(c.lhs) | tphs_of(c.rhs):
                fresh.adopt(n)
    u = _Unifier(table, fresh, groups)
    try:
        u.solve(list(constraints))
    finally:
        if stats is not None:
            stats.update(steps=u.steps, branch_points=u.branch_points,
                         sinks=u.sinks, alternatives=u.alternatives,
                         pruned=u.pruned)
    return u.solutions


def transitive_closure(pairs):
    """Reflexive-transitive closure of a relation on placeholder names: the
    pairs (a, b) with b reachable from a, by a search from each name."""
    succ = {}
    for l, r in pairs:
        succ.setdefault(l, set()).add(r)
        succ.setdefault(r, set())
    rel = set()
    for start in succ:
        seen = {start}
        todo = [start]
        while todo:
            for n in succ[todo.pop()]:
                if n not in seen:
                    seen.add(n)
                    todo.append(n)
        rel.update((start, n) for n in seen)
    return rel
