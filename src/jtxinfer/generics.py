"""Generalizing leftover placeholders into class/method generics.

Stages: partition the remaining placeholder-pair constraints into per-member
bound sets (``build_fgg``), bound unbounded placeholders along the call
graph (``complete_fgg``), and repair bound relations Java cannot express —
cycles and multiple upper bounds — by collapsing placeholders through a
surjective map h (``enforce_java_conformance``).

Every stage works on placeholder-to-placeholder pairs only: a placeholder
with no pair is unbounded, and ``Object`` appears only when a clause is
rendered (``format_generics``).
"""

from __future__ import annotations

from .classtable import CLASS
from .typeterms import tphs_of
from .unify import transitive_closure


def compute_owners(slot_groups):
    """Assign each placeholder to the member whose declaration slots first
    mention it.  ``slot_groups`` is an iterable of (owner, terms); class
    slots must come first so field placeholders take priority."""
    owners = {}
    for owner, terms in slot_groups:
        for term in terms:
            for name in tphs_of(term):
                owners.setdefault(name, owner)
    return owners


def member_tph_sets(slot_groups, owners):
    """Placeholders each member of `slot_groups` must declare, in the
    groups' order: those it owns.  An owner's first claim is in its own
    slots, so the member sets are read off `owners`."""
    members = {owner: set() for owner, _ in slot_groups}
    for name, owner in owners.items():
        members[owner].add(name)
    return members


def build_fgg(remaining, owners, member_tphs):
    """Per-member bound sets, one for each member of `member_tphs`: pairs
    within the member, and method pairs bounded by class placeholders.  A
    member placeholder with no pair is unbounded.  A placeholder that no
    slot mentions, such as a diamond's argument in `A < C, C < B`, is
    bridged first: each of its lower bounds is joined to each of its upper
    bounds."""
    pairs = set(remaining)
    for u in {n for pair in remaining for n in pair} - owners.keys():
        lows = [l for l, r in pairs if r == u]
        highs = [r for l, r in pairs if l == u]
        pairs.update((l, r) for l in lows for r in highs if l != r)
    fgg = {}
    for owner in member_tphs:
        fgg[owner] = {
            (l, r) for (l, r) in pairs
            if owners.get(l) == owner
            and (owners.get(r) == owner
                 or owner != CLASS and owners.get(r) == CLASS)}
    return fgg


def complete_fgg(fgg, remaining, owners, member_tphs, call_sites):
    """Bound an unbounded placeholder by placeholders justified by a call:
    an argument placeholder below a callee parameter whose bound chain
    reaches the callee return, which flows back into a caller placeholder.
    Iterated to a fixpoint since conditions reference callee results."""
    cfgg = {owner: set(pairs) for owner, pairs in fgg.items()}
    if all(site.caller is None for site in call_sites):
        return cfgg
    cs_closure = transitive_closure(remaining)
    changed = True
    while changed:
        changed = False
        closures = {owner: transitive_closure(pairs)
                    for owner, pairs in cfgg.items()}
        for site in call_sites:
            if site.caller is None:
                continue
            owner = ("method", site.caller)
            tphs = member_tphs[owner]
            for arg, param in zip(site.arg_terms, site.param_terms):
                for t in tphs_of(arg):
                    if owners.get(t) != owner:
                        continue
                    if any(l == t for l, _ in cfgg[owner]):
                        continue
                    rs = _qualifying_bounds(
                        t, param, site.ret_term, owners, tphs,
                        cs_closure, closures)
                    if not rs:
                        continue
                    cfgg[owner] |= {(t, r) for r in rs}
                    changed = True
    return cfgg


def _qualifying_bounds(t, param, ret, owners, caller_tphs,
                       cs_closure, closures):
    """Caller placeholders R with t < T' (callee param), T' < R' (callee
    bound chain), R' < R (flow back), minimal under the constraint order."""
    out = set()
    for t_prime in tphs_of(param):
        if (t, t_prime) not in cs_closure:
            continue
        # a callee instantiated from another class has no owner here; its
        # bound chain is then only visible in the call site's constraints
        callee_closure = closures.get(owners.get(t_prime), cs_closure)
        for r_prime in tphs_of(ret):
            if (t_prime, r_prime) not in callee_closure:
                continue
            for r in caller_tphs:
                if r != t and (r_prime, r) in cs_closure:
                    out.add(r)
    # keep only minimal bounds: drop any R reachable from another candidate
    minimal = {r for r in out
               if not any(s != r and (s, r) in cs_closure for s in out)}
    return minimal


def enforce_java_conformance(cfgg, fresh, owners):
    """Collapse bound cycles and multiple upper bounds per member into
    fresh placeholders.  Returns the repaired family, in which each
    placeholder has at most one pair, and the collapse map h (old name ->
    new name, identity entries omitted).  A member's set may still hold a
    pair of a name that a collapse moved into the class; `owners` is left
    as it is."""
    family = {owner: set(pairs) for owner, pairs in cfgg.items()}
    owners = dict(owners)
    h = {}

    def apply_map(mapping):
        for owner in family:
            out = set()
            for (l, r) in family[owner]:
                nl, nr = mapping.get(l, l), mapping.get(r, r)
                if nl != nr:
                    out.add((nl, nr))
            family[owner] = out
        for old, new in list(h.items()):
            h[old] = mapping.get(new, new)
        h.update(mapping)

    def collapse(names, owner):
        # a method's bound set also holds class placeholders; merging one
        # of them makes the fresh name a class generic
        scope = CLASS if any(owners.get(n) == CLASS for n in names) else owner
        x = fresh.tph(scope).name
        owners[x] = scope
        apply_map({n: x for n in names})

    changed = True
    while changed:
        changed = False
        for owner in list(family):
            pairs = family[owner]
            scc = _cycle(pairs)
            if scc:
                collapse(scc, owner)
                changed = True
                break
            inf = _infimum(pairs)
            if inf:
                collapse(inf, owner)
                changed = True
                break
    return family, h


def _cycle(pairs):
    """Names on the first bound cycle (by name) within one member, or None.
    A pair never relates a name to itself, so a cycle takes two pairs."""
    if len(pairs) < 2:
        return None
    closure = transitive_closure(pairs)
    for (a, b) in sorted(closure):
        if a != b and (b, a) in closure:
            return {n for (n, m) in closure
                    if (a, n) in closure and (n, a) in closure}
    return None


def _infimum(pairs):
    """A placeholder with several upper bounds, together with those bounds."""
    uppers = {}
    for (l, r) in pairs:
        uppers.setdefault(l, set()).add(r)
    for l, rs in sorted(uppers.items()):
        if len(rs) > 1:
            return {l} | rs
    return None


def format_generics(clauses):
    """Debug rendering of clauses ({owner: {name: bound or None}}, in member
    order): one ``T extends Bound`` line per name, by name within a member,
    ``Object`` where it is unbounded."""
    lines = []
    for clause in clauses.values():
        for name, bound in sorted(clause.items()):
            lines.append(f"{name} extends {bound or 'Object'}")
    return "\n".join(lines)
