"""Generalizing leftover placeholders into class/method generics.

One class solution's placeholder pairs form one graph, and each
placeholder belongs to the member whose slots first mention it
(``compute_owners``).  A generics clause can state a pair whose upper side
belongs to the lower side's member or to the class (``stated``); a pair
between two methods stays in the graph, unstated.  Stages: bridge the
placeholders no slot mentions (``build_fgg``), bound unbounded
placeholders along the call graph (``complete_fgg``), and repair what Java
cannot express through a surjective map h (``enforce_java_conformance``):
a method placeholder above a class one is merged into it, and a cycle or a
name with several upper bounds among the stated pairs is collapsed into a
fresh placeholder.

Every stage works on placeholder-to-placeholder pairs only: a placeholder
with no stated pair is unbounded, and ``Object`` appears only when a
clause is rendered (``format_generics``).
"""

from __future__ import annotations

from .classtable import CLASS
from .typeterms import TPH, tph_name, tphs_of


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


def compute_owners(slot_groups):
    """Assign each placeholder to the member whose declaration slots first
    mention it.  ``slot_groups`` is an iterable of (owner, terms); class
    slots must come first so field placeholders take priority."""
    owners = {}
    for owner, terms in slot_groups:
        for term in terms:
            for name in term.tphs:
                owners.setdefault(name, owner)
    return owners


def stated(pairs, owners):
    """The pairs a generics clause can state: within one member, or a
    method placeholder bounded by a class one."""
    return {(l, r) for l, r in pairs if owners[r] in (owners[l], CLASS)}


def build_fgg(remaining, owners):
    """The remaining pairs between placeholders of `owners`.  A placeholder
    that no slot mentions, such as a diamond's argument in `A < C, C < B`,
    is bridged: each of its lower bounds is joined to each of its upper
    bounds."""
    pairs = set(remaining)
    for u in {n for pair in remaining for n in pair} - owners.keys():
        lows = [l for l, r in pairs if r == u]
        highs = [r for l, r in pairs if l == u]
        pairs.update((l, r) for l in lows for r in highs if l != r)
    return {(l, r) for l, r in pairs if l in owners and r in owners}


def complete_fgg(pairs, remaining, owners, call_sites):
    """Bound an unbounded placeholder by placeholders justified by a call:
    an argument placeholder below a callee parameter whose bound chain
    reaches the callee return, which flows back into a caller placeholder.
    The chain is read within the callee's own stated pairs.  Iterated to a
    fixpoint since conditions reference callee results.  The closures
    are taken only when some argument placeholder is left to bound."""
    out = set(pairs)
    sites = [site for site in call_sites if site.caller is not None]
    if not sites:
        return out
    cs_closure = None
    changed = True
    while changed:
        changed = False
        family = {}
        for l, r in stated(out, owners):
            family.setdefault(owners[l], set()).add((l, r))
        bounded = {l for ps in family.values() for l, _ in ps}
        todo = [(t, param, site.ret_term) for site in sites
                for arg, param in zip(site.arg_terms, site.param_terms)
                for t in tphs_of(arg)
                if owners.get(t) == ("method", site.caller)
                and t not in bounded]
        if not todo:
            break
        if cs_closure is None:
            cs_closure = transitive_closure(remaining)
        closures = {o: transitive_closure(ps) for o, ps in family.items()}
        for t, param, ret in todo:
            if t in bounded:   # at an earlier site of this pass
                continue
            rs = _qualifying_bounds(t, param, ret, owners, cs_closure,
                                    closures)
            if rs:
                out |= {(t, r) for r in rs}
                bounded.add(t)
                changed = True
    return out


def _qualifying_bounds(t, param, ret, owners, cs_closure, closures):
    """Placeholders R of t's member with t < T' (callee param), T' < R'
    (callee bound chain), R' < R (flow back), minimal under the constraint
    order."""
    out = set()
    for t_prime in tphs_of(param):
        if (t, t_prime) not in cs_closure:
            continue
        # a callee instantiated from another class has no owner here; its
        # bound chain is then only visible in the call site's constraints
        callee_closure = (closures.get(owners[t_prime], ())
                          if t_prime in owners else cs_closure)
        for r_prime in tphs_of(ret):
            if (t_prime, r_prime) not in callee_closure:
                continue
            out.update(r for r, o in owners.items()
                       if o == owners[t] and r != t
                       and (r_prime, r) in cs_closure)
    # keep only minimal bounds: drop any R reachable from another candidate
    return {r for r in out
            if not any(s != r and (s, r) in cs_closure for s in out)}


def enforce_java_conformance(pairs, drawn, owners):
    """Repair the pair graph until a clause can state it, one step at a
    time: merge the first method placeholder above a class placeholder
    into it, or else collapse the first cycle or name with several upper
    bounds among the stated pairs into a fresh placeholder, the class's
    when it takes in a class placeholder and otherwise the member's.  The
    search drew `drawn` names, so the fresh ones are `tph_name(drawn)`,
    `tph_name(drawn + 1)`, ….  Returns the stated bounds, in which each placeholder has at most one
    upper bound, the map h (old name -> final name, identity entries
    omitted) and the owners of the names that are left."""
    pairs = set(pairs)
    owners = dict(owners)
    h = {}
    while True:
        up = min(((l, r) for l, r in pairs
                  if owners[l] == CLASS and owners[r] != CLASS), default=None)
        if up:
            # no clause bounds a class generic by a method's
            x, names = up[0], {up[1]}
        else:
            bounds = stated(pairs, owners)
            names = _cycle(bounds) or _infimum(bounds)
            if not names:
                return bounds, h, owners
            scope = (CLASS if any(owners[n] == CLASS for n in names)
                     else owners[min(names)])
            x = tph_name(drawn)
            drawn += 1
            owners[x] = scope
        for n in names:
            del owners[n]
        mapping = {n: x for n in names}
        pairs = {(mapping.get(l, l), mapping.get(r, r)) for l, r in pairs
                 if mapping.get(l, l) != mapping.get(r, r)}
        h = {old: mapping.get(new, new) for old, new in h.items()}
        h.update(mapping)


def _cycle(pairs):
    """Names on the first bound cycle (by name), or None.  A pair never
    relates a name to itself, so a cycle needs a name that is both below
    and above another."""
    if not {l for l, _ in pairs} & {r for _, r in pairs}:
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
    """Debug rendering of the inferred variables of generics `clauses`
    (each ((variable, bound-or-None), ...)): one ``T extends Bound`` line
    per variable, clause by clause and by name within one, ``Object``
    where it is unbounded."""
    lines = []
    for clause in clauses:
        for var, bound in sorted((p for p in clause if isinstance(p[0], TPH)),
                                 key=lambda p: p[0].name):
            lines.append(f"{var} extends {bound or 'Object'}")
    return "\n".join(lines)
