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
  head, and an explicit stack holds one frame per open branch point with
  alternatives left to try: its trail mark and its untried alternatives.
  Trying the next alternative first undoes the trail to the frame's mark,
  which restores the store exactly, the order of the parked constraints
  included; so a refuted alternative costs only what it touched.

The or-groups are the outermost branch points.  The base constraints are
simplified once; then one frame per group is opened, in group order, each
after the alternative of the group before it is simplified, and no
lessdot is branched on before every group has its alternative.  A *choice*
picks one alternative per group; its subtree is the search that the
flattened candidate of base plus chosen constraints would run on its own,
step for step and name for name: undoing to a group frame also resets the
fresh-name counter and the step budget to what they were at its mark.
The choices multiply: groups that share no placeholder are still tried in
every combination.  So the pipeline calls `unify` once per component of
a class's constraints that share no placeholder and never joins the
solutions (`pipeline._search`); one call here searches what it is given.

A receiver group (a member access on a placeholder receiver, one
candidate per class and template declaring the member, of two or more
classes; see `constraints.ReceiverGroup`) is filtered when its frame
opens: it tries
only the candidates whose class the receiver may still take, the head of
the term it is bound to, or else a head on the supertype chain of every
headed lower bound parked on it.  A skipped candidate is one whose first
constraint, `recv = C<...>`, would fail at once: against the binding, or by
re-queueing a lower bound `lo < recv` that `_step_lessdot` fails on the
same chain.  Since it would emit nothing, and its names are the group's one
block, drawn at generation, the surviving choices keep their solutions,
order and names; the skipped ones are counted as `pruned`, and an
alternative is built only when tried.

The lessdot branch points are taken in parking order: the oldest one-sided
lessdot still parked is next, its alternatives made lazily in `_branches`
order.  Their number is known before any is made: the heads below a bound,
or the filtered supertype chain above a lower bound, or at most one at a
sink.
Only a branch point with two or more opens a frame.  One alternative is
taken as a step: it binds and queues its extra constraint under the
enclosing frame's trail; none refutes at once.  The search is unchanged:
a frame with one alternative would try it at once, undo to a mark that
nothing before it needs, and close; the enclosing frame's undo covers the
same trail.  The alternative is made when taken, as before, so the fresh
names, the steps and every counter but `frames` stay the same.  Most
branch points have at most one alternative: every sink, and a placeholder
below a class that no other class or visible variable is below.

An upper-bound expansion of a *sink* does not branch.  A sink is decided
by its lower bounds alone: every lessdot parked with it on the upper side
has a class type without arguments below, no bound term or headed side
mentions it, and its every alternative is a class type without arguments.
Its upper bounds, placeholders (`Integer < C, C < E`) or class types, do
not matter.  It gets the first alternative above all its lower bounds.
Take any solution with T' at the sink: transitivity gives a twin with the
least feasible T <= T' there, which meets every upper bound that T' met,
and no later lower bound can appear, because every or-group has chosen
and the worklist is empty, so every constraint is in the store.  So every
other alternative is refuted or dominated by a solution the search
returns, which the pipeline's minimality would drop; and none draws a
fresh name.  The search counts, per placeholder, the bound terms and the
headed sides of parked constraints that mention it, so the test costs no
scan of the store.

A placeholder's *class bounds* may decide it before it is parked.  A
class bound of `t` is a one-sided lessdot `t < C` or `C < t` with `C` a
class type without arguments, so an atomic class (the table resolves no
generic class without its arguments).  Each bound admits a set of heads
for `t`: below `C`, the heads whose supertype chain reaches `C`, the
`subtype_heads` that `_branches` offers plus the declared variables of
other members below `C`, which a `doteq` might still bind `t` to; above
`C`, the heads on its chain and `Object`, as `_supertypes` offers them.
Every solution of the subtree binds `t`, at its branch point or by a
`doteq`, and re-checks each bound against the term, so the term's head
lies in every set.  When a new class bound of `t` comes to be parked,
the sets of the class bounds already parked on `t` are intersected with
its own: when none is left the step fails, counted as `pruned`; when one
class `h` of the table is left, `h` is the only term `t` can take, so `t`
is bound to it at once and the bound is not parked (`forced`); `C < t`
with `t < C` parked is the case `h = C`.  Otherwise the bound is parked.
So two or more class bounds parked on an unbound `t` always leave two or
more heads, or one that is no class, and a copy of one of them changes
nothing.  The rule draws no name.

The rule runs only when no class of the table is generic.  Binding `t`
early changes when the constraints it meets are taken: one that would
have waited parked on `t` may instead park on another placeholder at
once, so the branch points can come in another order, and a subtree can
end before it would have drawn names.  Lessdot frames do not reset the
names, so with a generic class a later alternative could draw other names
than before, and the pipeline's minimality compares solutions by their
names.  Without one, no alternative draws a name, and the search keeps
its solutions, except that a placeholder bounded below by `h` rather
than by `t` may become a sink earlier, which only drops solutions that
one with its least type dominates.
"""

from __future__ import annotations

from .classtable import CLASS
from .constraints import FreshNames, ReceiverGroup
from .errors import ResourceLimit
from .typeterms import (VOID, ClassType, TPH, TypeVar, is_atomic, substitute,
                        tphs_of)

# worklist pops per choice of or-group alternatives
MAX_STEPS = 500_000

_OBJECT = ClassType("Object")


class Solution:
    """`remaining` is a sorted tuple of (lhs name, rhs name), `sigma` a
    sorted tuple of (name, term) and `choice` the alternative taken in each
    or-group; `drawn` is the number of names drawn when the choice's search
    ended, so a later draw starts at `tph_name(drawn)`.  A value, equal to
    and hashed as its parts other than `drawn`."""

    __slots__ = ("remaining", "sigma", "choice", "drawn")

    def __init__(self, remaining, sigma, choice=(), drawn=0):
        self.remaining, self.sigma = remaining, sigma
        self.choice, self.drawn = choice, drawn

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.remaining, self.sigma, self.choice)
                == (other.remaining, other.sigma, other.choice))

    def __hash__(self):
        return hash((self.remaining, self.sigma, self.choice))

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


class _Sigma(dict):
    """Triangular substitution: `get` resolves the names a bound term
    mentions, so `substitute(t, sigma)` is the fully resolved term."""

    def get(self, name, default=None):
        term = dict.get(self, name)
        if term is None:
            return default
        return substitute(term, self) if term.tphs else term


class _Parked:
    """A stuck lessdot in the occurrence index: `names` are the placeholders
    on its two sides, which the index keys, and `nested` those inside its
    headed side, which it does not."""

    __slots__ = ("lhs", "rhs", "parked", "names", "nested")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs
        self.parked = False
        if type(lhs) is not TPH:
            self.names, self.nested = (rhs.name,), lhs.tphs
        elif type(rhs) is not TPH:
            self.names, self.nested = (lhs.name,), rhs.tphs
        else:
            self.names, self.nested = (lhs.name, rhs.name), ()


_BIND, _PARK, _UNPARK, _HEAD = range(4)


class _Unifier:
    def __init__(self, table, fresh, groups):
        self.table = table
        self.fresh = fresh
        self.groups = groups
        self.limit = MAX_STEPS  # `steps` at which the current choice is out
        self.solutions = []   # of the finished choices, in choice order
        self.found = []       # the current choice's, see `_emit`
        self.choice = []      # the alternative taken in each group so far
        self.steps = 0
        self.branch_points = 0
        self.frames = 0
        self.sinks = 0
        self.alternatives = 0
        self.pruned = 0
        self.forced = 0
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
        # (lower bound, member scope) -> (its alternatives above, whether
        # they and the bound are all atomic); see `_supertypes`
        self.sups = {}
        # (upper, class bound, member scope) -> frozenset of heads; see
        # `_bound_heads`
        self.bound_heads = {}
        # whether class bounds decide placeholders: no table class is
        # generic, so the search draws no name
        self.deciding = not table.generic

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
                if not self._take(alt):
                    continue
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
        """Simplify, and take each branch point with at most one alternative
        as a step of its own; then open the next or-group or branch point,
        or emit a solution."""
        while self._simplify():
            depth = len(self.choice)
            if depth < len(self.groups):
                stack.append((len(self.trail),
                              self._tried(self.groups[depth]),
                              (depth, self.fresh.mark(),
                               self.limit - self.steps)))
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
            count, alternatives = self._branches(c)
            if count > 1:
                self.frames += 1
                stack.append((len(self.trail), alternatives, None))
                return
            # one alternative is taken under the enclosing frame's trail,
            # none refutes
            if not count or not self._take(next(alternatives)):
                return

    def _take(self, alt):
        """Bind as alternative `alt` of a branch point says and queue its
        extra constraint; False when the bind fails the occurs check."""
        name, term, extra = alt
        if not self._bind(name, term):
            return False
        if extra is not None:
            self.work.append(extra)
        return True

    def _tried(self, group):
        """The (index, alternative) pairs an or-group's frame tries, in
        group order, each read when it is tried: of a receiver group only
        the candidates whose class the receiver may still take.  Each
        skipped one would bind the receiver to a class that a lower bound
        or binding of it refutes at once."""
        heads = (self._heads(group.recv)
                 if isinstance(group, ReceiverGroup) else None)
        if heads is None:
            return enumerate(group)
        tried = [i for i, (cname, _) in enumerate(group.candidates)
                 if cname in heads]
        self.pruned += len(group) - len(tried)
        return ((i, group[i]) for i in tried)

    def _heads(self, recv):
        """The class heads `recv` may still take: the head it is bound to,
        or those on the supertype chain of each headed lower bound parked
        on it; None when neither bounds it."""
        recv = substitute(recv, self.sigma)
        if not isinstance(recv, TPH):
            return {recv.name} if isinstance(recv, ClassType) else set()
        heads = None
        for c in self.index.get(recv.name, ()):
            if c.parked and c.rhs is recv and isinstance(c.lhs, ClassType):
                # `lo < Object` holds whatever the chain of `lo`
                chain = {"Object"}.union(
                    t.name for t in self.table.supertype_chain(c.lhs))
                heads = chain if heads is None else heads & chain
        return heads

    # -- the store -------------------------------------------------------

    def _bind(self, name, term):
        """Bind `name` and re-queue its parked constraints; False when
        `name` occurs in `term`."""
        names = term.tphs
        if names:
            if name in names:
                return False
            self._count(names, 1)
        self.sigma[name] = term
        self.trail.append((_BIND, name))
        slot = self.index.get(name)
        if slot:
            for c in slot:
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
        if c.nested:
            self._count(c.nested, 1)
        index = self.index
        for n in c.names:
            slot = index.get(n)
            if slot is None:
                index[n] = {c: None}
            else:
                slot[c] = None
        if len(c.names) == 1:
            self.branchable.append(c)
        self.trail.append((_PARK, c))

    def _unpark(self, c):
        c.parked = False
        if c.nested:
            self._count(c.nested, -1)
        self.trail.append((_UNPARK, c))

    def _undo(self, mark):
        trail = self.trail
        while len(trail) > mark:
            op, x = trail.pop()
            if op == _BIND:
                names = self.sigma.pop(x).tphs
                if names:
                    self._count(names, -1)
            elif op == _UNPARK:
                x.parked = True
                if x.nested:
                    self._count(x.nested, 1)
            elif op == _PARK:
                # the newest entry of its index slots and of the queue
                x.parked = False
                if x.nested:
                    self._count(x.nested, -1)
                for n in x.names:
                    del self.index[n][x]
                if len(x.names) == 1:
                    self.branchable.pop()
            else:
                self.head = x

    # -- deterministic simplification ------------------------------------

    def _simplify(self):
        """Apply non-branching rules until the worklist is empty; False on
        contradiction."""
        work, sigma = self.work, self.sigma
        steps, limit = self.steps, self.limit
        try:
            while work:
                if steps == limit:
                    raise ResourceLimit(
                        f"unification needs more than {MAX_STEPS} steps")
                steps += 1
                kind, a, b = work.pop()
                if sigma:
                    if a.tphs:
                        a = substitute(a, sigma)
                    if b.tphs:
                        b = substitute(b, sigma)
                if a is b:
                    continue
                if not (self._step_doteq(a, b) if kind == "doteq"
                        else self._step_lessdot(a, b)):
                    work.clear()
                    return False
        finally:
            self.steps = steps
        return True

    # Each step binds, parks, or queues the replacement constraints in the
    # popped one's place; False on contradiction.

    def _step_doteq(self, a, b):
        if type(a) is TPH:
            if type(b) is TPH and _age(a.name) < _age(b.name):
                return self._bind(b.name, a)
            return self._bind(a.name, b)
        if type(b) is TPH:
            return self._bind(b.name, a)
        # a and b differ, so at most one is void
        if (a is VOID or b is VOID or a.name != b.name
                or len(a.args) != len(b.args)):
            return False
        self.work.extend([("doteq", x, y)
                          for x, y in zip(a.args, b.args)][::-1])
        return True

    def _step_lessdot(self, a, b):
        if a is VOID or b is VOID:
            return False
        if b is _OBJECT:
            return True
        if type(a) is TPH or type(b) is TPH:
            # one-sided: a branch point, handled later, unless the
            # placeholder's class bounds decide it now
            decided = None
            if self.deciding:
                if type(b) is ClassType and not b.args:
                    decided = self._decide(a, b, True)
                elif type(a) is ClassType and not a.args:
                    decided = self._decide(b, a, False)
            if decided is not None:
                return decided
            self._park(_Parked(a, b))
            return True
        # both headed: adapt along the supertype chain, then decompose
        for sup in self.table.supertype_chain(a):
            if sup.name == b.name:
                return self._decompose(sup, b)
        return False

    def _decompose(self, a, b):
        if len(a.args) != len(b.args):
            return False
        variance = self.table.variance(a.name) or [0] * len(a.args)
        self.work.extend([("doteq", x, y) if v == 0 else
                          ("lessdot", y, x) if v < 0 else ("lessdot", x, y)
                          for v, x, y in zip(variance, a.args, b.args)][::-1])
        return True

    def _decide(self, t, bound, upper):
        """Class bound `t < bound` (`upper`) or `bound < t` against those
        parked on `t`: True when it binds `t` to the one class they
        leave, False when they leave no head, None when it is to be
        parked.  See the module docstring."""
        others = []
        again = False   # `bound` is parked on the same side already
        for p in self.index.get(t.name, ()):
            if p.parked:
                up = p.lhs is t
                other = p.rhs if up else p.lhs
                if type(other) is ClassType and not other.args:
                    if other is bound:
                        if up is not upper:
                            self.forced += 1
                            return self._bind(t.name, bound)
                        again = True
                    others.append((up, other))
                    if again and len(others) > 1:
                        # two parked class bounds leave two or more heads
                        return None
        if not others:
            return None
        scope = self._scope(t)
        heads = self._bound_heads(upper, bound, scope)
        for up, other in others:
            heads = heads & self._bound_heads(up, other, scope)
        if not heads:
            self.pruned += 1
            return False
        if len(heads) == 1:
            (name,) = heads
            if name in self.table.entries:
                self.forced += 1
                return self._bind(t.name, ClassType(name))
        return None

    def _bound_heads(self, upper, bound, scope):
        """The heads a placeholder of member `scope` can take below class
        bound `bound` (`upper`) or above it.  Cached for the search."""
        key = (upper, bound, scope)
        heads = self.bound_heads.get(key)
        if heads is None:
            table = self.table
            if upper:
                heads = frozenset(table.subtype_heads(bound.name, scope))
                heads |= {v.name for v in table.typevars
                          if bound in table.supertype_chain(v)}
            else:
                sups, _ = self._supertypes(bound, scope)
                heads = frozenset(["Object", *(s.name for s in sups)])
            self.bound_heads[key] = heads
        return heads

    # -- branching --------------------------------------------------------

    def _branches(self, c):
        """The alternatives of branch point `c`, a parked lessdot with a
        placeholder on exactly one side: how many there are, and an
        iterator that makes each, a (bind name, term, extra constraint or
        None) triple, when it is read.  Below a bound the choices are the
        heads under its head, `subtype_heads`; above a lower bound they are
        `_supertypes`, a head with some variant parameter shaped with fresh
        arguments, and at a sink only the least of them.  Function types
        are table classes, so they take the same path.  A declared type
        variable is offered only to placeholders of the members it is in
        scope for."""
        sigma = self.sigma
        if type(c.lhs) is TPH:
            t, bound = c.lhs, c.rhs
            if bound.tphs:
                bound = substitute(bound, sigma)
            heads = self.table.subtype_heads(bound.name, self._scope(t))
            return len(heads), self._below(t, heads, bound)
        t, low = c.rhs, c.lhs
        if low.tphs:
            low = substitute(low, sigma)
        sups, atomic = self._supertypes(low, self._scope(t))
        lows = self._sink_lows(t) if atomic else None
        if lows is not None:
            # each other choice refutes or has a twin with the least
            # feasible type at `t`; `low` is below every one of `sups`
            self.sinks += 1
            least = next((s for s in sups if all(
                self.table.is_subtype(l, s) for l in lows)), None)
            sups = () if least is None else (least,)
        return len(sups), self._above(t, sups, low)

    def _below(self, t, heads, bound):
        for name in heads:
            term = self._shape(name, t)
            yield t.name, term, ("lessdot", term, bound)

    def _above(self, t, sups, low):
        for sup in sups:
            if any(v != 0 for v in self.table.variance(sup.name)):
                term = self._shape(sup.name, t)
                yield t.name, term, ("lessdot", low, term)
            else:
                yield t.name, sup, None

    def _supertypes(self, low, scope):
        """The choices above lower bound `low` for a placeholder of member
        `scope`: the first term of each head on its supertype chain, but no
        declared variable of another member; and whether they and `low` are
        all atomic.  Cached for the search."""
        found = self.sups.get((low, scope))
        if found is None:
            seen = set()
            sups = []
            for sup in self.table.supertype_chain(low):
                if sup.name in seen or (isinstance(sup, TypeVar) and
                                        sup.owner not in (scope, CLASS)):
                    continue
                seen.add(sup.name)
                sups.append(sup)
            found = self.sups[low, scope] = (
                tuple(sups), is_atomic(low) and all(map(is_atomic, sups)))
        return found

    def _sink_lows(self, t):
        """The other lower bounds of placeholder `t` when it is a sink, given
        one atomic lower bound whose choices are all atomic; else None.  A
        sink is decided by its lower bounds alone: `t` is not mentioned
        inside any bound term or headed side, and the lower side of every
        lessdot parked with `t` on its upper side is atomic.  Its upper
        bounds, placeholders or class types, do not matter.  A solution
        with T' at `t` has a twin with the least T above the lower bounds,
        T <= T' by transitivity, and T meets every upper bound that T' met.
        No lower bound can come later: every or-group has chosen and the
        worklist is empty, so all constraints are in the store."""
        if self.nested.get(t.name):
            return None
        lows = [p.lhs for p in self.index.get(t.name, ())
                if p.parked and p.rhs is t]
        return lows if all(map(is_atomic, lows)) else None

    def _scope(self, t):
        """The member scope of placeholder `t`."""
        return self.fresh.scope_of(t.name) or CLASS

    def _shape(self, name, like):
        """A `name`-headed term with fresh placeholder arguments scoped like
        the placeholder being refined."""
        entry = self.table.entries.get(name)
        if entry is None:   # a declared variable
            return ClassType(name)
        scope = self._scope(like)
        return ClassType(name, tuple(self.fresh.tph(scope)
                                     for _ in range(entry.arity)))

    # -- results -----------------------------------------------------------

    def _emit(self):
        """Add the store's solution to the current choice's, which has no
        equal one: two leaves of a choice's search part at a frame that
        binds one placeholder to terms of distinct heads, for good."""
        pairs = {(c.lhs.name, c.rhs.name)
                 for slot in self.index.values() for c in slot if c.parked}
        sigma = self.sigma
        sol = Solution(tuple(sorted(pairs)),
                       tuple((n, substitute(sigma[n], sigma))
                             for n in sorted(sigma)))
        self.found.append(sol)

    def _close_choice(self):
        """Move the current choice's solutions to `solutions`, sorted, each
        with the number of names drawn so far."""
        if not self.found:
            return
        choice, drawn = tuple(self.choice), self.fresh.mark()
        self.solutions.extend(Solution(s.remaining, s.sigma, choice, drawn)
                              for s in sorted(self.found, key=_sort_key))
        self.found = []


def unify(constraints, table, fresh=None, stats=None, groups=()):
    """The solutions of the base `constraints` plus one alternative of each
    or-group in `groups` (each a list of `constraints.Alternative` or a
    `constraints.ReceiverGroup`) over the given table: every solution,
    except those dominated by a returned one that puts a smaller type at a
    sink.  A receiver group's frame skips the candidates whose class the
    receiver can no longer take (see the module docstring); they are
    never built.

    The search is the one `flatten` candidates would each get, merged: the
    solutions come grouped by their `choice` of alternatives, in the
    candidates' order, and sorted within a choice.  A solution's `drawn`
    is `fresh.mark()` when its choice's search ended: every name the
    solution holds comes before `tph_name(drawn)`.

    Raises `ResourceLimit` when a choice takes more than `MAX_STEPS`
    worklist pops, the pops it shares with other choices included.  When
    `stats` (a `collections.Counter`) is given, the search adds its
    `steps`, `branch_points`, `frames` (the branch points with two or more
    alternatives, each of which opens a search frame), `sinks` (the branch
    points resolved without branching), `alternatives` (the or-group
    alternatives tried), `pruned` (the receiver alternatives skipped and
    the class bounds that leave a placeholder no head) and `forced` (the
    placeholders bound by their class bounds) to it."""
    if fresh is None:
        fresh = FreshNames()
        for c in [*constraints, *(c for group in groups
                                  for alt in group for c in alt.constraints)]:
            for n in (*tphs_of(c.lhs), *tphs_of(c.rhs)):
                fresh.adopt(n)
    u = _Unifier(table, fresh, groups)
    try:
        u.solve(list(constraints))
    finally:
        if stats is not None:
            stats.update({"steps": u.steps, "branch_points": u.branch_points,
                          "frames": u.frames, "sinks": u.sinks,
                          "alternatives": u.alternatives,
                          "pruned": u.pruned, "forced": u.forced})
    return u.solutions
