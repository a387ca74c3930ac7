"""Generalizing leftover placeholders into class/method generics.

Stages: partition the remaining placeholder-pair constraints into per-member
bound sets (``build_fgg``), upgrade Object bounds along the call graph
(``complete_fgg``), and repair bound relations Java cannot express —
cycles and multiple upper bounds — by collapsing placeholders through a
surjective map h (``enforce_java_conformance``).
"""

from __future__ import annotations

from .typeterms import tphs_of
from .unify import transitive_closure

CLASS = ("class",)
OBJECT = "Object"


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
    """Placeholders each member must declare: those in its own slots that
    it also owns."""
    members = {}
    for owner, terms in slot_groups:
        bucket = members.setdefault(owner, set())
        for term in terms:
            for name in tphs_of(term):
                if owners.get(name) == owner:
                    bucket.add(name)
    return members


def build_fgg(remaining, owners, member_tphs):
    """Per-member bound sets: pairs within the member, method pairs bounded
    by class placeholders, and Object for everything left unbounded."""
    fgg = {}
    for owner, tphs in member_tphs.items():
        pairs = set()
        for (l, r) in remaining:
            if owners.get(l) != owner:
                continue
            if owners.get(r) == owner:
                pairs.add((l, r))
            elif owner != CLASS and owners.get(r) == CLASS:
                pairs.add((l, r))
        bounded = {l for l, _ in pairs}
        for t in sorted(tphs):
            if t not in bounded:
                pairs.add((t, OBJECT))
        fgg[owner] = pairs
    return fgg


def _tph_closure(pairs):
    return transitive_closure((l, r) for l, r in pairs if r != OBJECT)


def complete_fgg(fgg, remaining, owners, member_tphs, call_sites):
    """Replace Object bounds with placeholder bounds justified by a call:
    an argument placeholder below a callee parameter whose bound chain
    reaches the callee return, which flows back into a caller placeholder.
    Iterated to a fixpoint since conditions reference callee results."""
    cfgg = {owner: set(pairs) for owner, pairs in fgg.items()}
    cs_closure = transitive_closure(remaining)
    changed = True
    while changed:
        changed = False
        closures = {owner: _tph_closure(pairs)
                    for owner, pairs in cfgg.items()}
        for site in call_sites:
            if site.caller is None:
                continue
            owner = ("method", site.caller)
            if owner not in cfgg:
                continue
            tphs = member_tphs.get(owner, set())
            for arg, param in zip(site.arg_terms, site.param_terms):
                for t in tphs_of(arg):
                    if owners.get(t) != owner:
                        continue
                    if (t, OBJECT) not in cfgg[owner]:
                        continue
                    rs = _qualifying_bounds(
                        t, param, site.ret_term, owners, tphs,
                        cs_closure, closures)
                    if not rs:
                        continue
                    cfgg[owner].discard((t, OBJECT))
                    for r in rs:
                        cfgg[owner].add((t, r))
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
    fresh placeholders; returns the repaired family and the collapse map h
    (old name -> new name, identity entries omitted)."""
    family = {owner: set(pairs) for owner, pairs in cfgg.items()}
    h = {}

    def apply_map(mapping):
        for owner in family:
            out = set()
            for (l, r) in family[owner]:
                nl = mapping.get(l, l)
                nr = r if r == OBJECT else mapping.get(r, r)
                if nl != nr:
                    out.add((nl, nr))
            family[owner] = out
        for old, new in list(h.items()):
            h[old] = mapping.get(new, new)
        h.update(mapping)

    def collapse(names, owner):
        scope = owners.get(next(iter(names)), owner)
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
    # restore Object bounds for collapsed placeholders left unbounded
    for owner, pairs in family.items():
        tphs = ({l for l, _ in pairs}
                | {r for _, r in pairs if r != OBJECT
                   if owners.get(r) == owner})
        bounded = {l for l, _ in pairs}
        for t in tphs - bounded:
            pairs.add((t, OBJECT))
        drop = {(l, r) for (l, r) in pairs
                if r == OBJECT and any(l == l2 and r2 != OBJECT
                                       for l2, r2 in pairs)}
        pairs -= drop
    return family, h


def _cycle(pairs):
    """Names on some bound cycle within one member, or None."""
    closure = _tph_closure(pairs)
    for (a, b) in closure:
        if a != b and (b, a) in closure:
            return {n for (n, m) in closure
                    if (a, n) in closure and (n, a) in closure}
    return None


def _infimum(pairs):
    """A placeholder with several upper bounds, together with those bounds."""
    uppers = {}
    for (l, r) in pairs:
        if r != OBJECT:
            uppers.setdefault(l, set()).add(r)
    for l, rs in sorted(uppers.items()):
        if len(rs) > 1:
            return {l} | rs
    return None


def format_generics(family, order=None):
    """Debug rendering: one ``T extends Bound`` line per pair."""
    lines = []
    owners = order if order is not None else sorted(family, key=str)
    for owner in owners:
        for (l, r) in sorted(family.get(owner, ())):
            lines.append(f"{l} extends {r}")
    return "\n".join(lines)
