"""Constraint generation: traverse a class and collect subtype (`<`) and
equality (`=`) constraints over fresh type placeholders.

Overloaded operators, overloaded callees and receiver-driven member
resolution produce or-groups (sets of alternatives).  Calls and field
reads share one member-access rule.  A call without receiver is a call on
the class being inferred, and a declared variable has the members of the
first type on its supertype chain that is no variable, so a field read on
one types as a call does.  The class being inferred offers its slot terms,
any other class its table entry's templates, which take the class's
generics clause as type parameters; a field is a signature without
parameters.  A receiver with a known head takes its class's
candidates.  Any other receiver may be any class that declares the member,
that class included: it becomes one `ReceiverGroup`, whose alternatives
each bind the receiver to their class.  They share one block of fresh
names, since a choice takes one of them, and each is built only when first
read.  The unifier takes the or-groups as they are and tries their
alternatives as its outermost branch points.  `flatten` expands the
or-groups into plain candidate constraint sets; it renders the
`constraints` dump and serves as the reference the tests check that search
against.
"""

from __future__ import annotations

import itertools

from . import syntax as S
from .classtable import (FIXED_OPERATORS, OVERLOADED_OPERATORS, RULES,
                         MethodSig, resolve_src_type)
from .errors import (ArityMismatch, UnknownIdentifier, UnknownMember,
                     Untypable)
from .typeterms import (VOID, ClassType, TPH, TypeVar, fun_type, is_ground,
                        tph_name, tph_number)


class Constraint:
    """`lhs < rhs` (kind 'lessdot') or `lhs = rhs` (kind 'doteq'); a value,
    equal to and hashed as its three parts."""

    __slots__ = ("kind", "lhs", "rhs")

    def __init__(self, kind, lhs, rhs):
        self.kind, self.lhs, self.rhs = kind, lhs, rhs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.lhs, self.rhs)
                == (other.kind, other.lhs, other.rhs))

    def __hash__(self):
        return hash((self.kind, self.lhs, self.rhs))

    def __str__(self):
        op = "<" if self.kind == "lessdot" else "="
        return f"{self.lhs} {op} {self.rhs}"


def lessdot(a, b):
    return Constraint("lessdot", a, b)


def doteq(a, b):
    return Constraint("doteq", a, b)


def flow(node, term, target):
    """Value flow into a declared/placeholder slot.  Lambdas are target
    typed (the slot *is* the function type); other values may widen."""
    if isinstance(node, S.Lambda):
        return doteq(target, term)
    return lessdot(term, target)


class FreshNames:
    """Placeholder factory; remembers which member scope created each name.

    Scopes are ``("class",)`` for field-level placeholders and
    ``("method", i)`` for the i-th method declaration; `scopes[n]` is the
    scope of the n-th name (`tph_name(n)`), None for a name that was only
    skipped by `adopt`.  Generation draws the class's names and the search
    draws more from a clone; a solution keeps only the count, `mark()`,
    after which generalization names its fresh parameters.
    """

    def __init__(self):
        self.scopes = []

    def tph(self, scope):
        name = tph_name(len(self.scopes))
        self.scopes.append(scope)
        return TPH(name)

    def adopt(self, name):
        """Take in a class-scoped placeholder; fresh names come after it."""
        n = tph_number(name)
        if n is None:
            return
        if n >= len(self.scopes):
            self.scopes.extend([None] * (n + 1 - len(self.scopes)))
        if self.scopes[n] is None:
            self.scopes[n] = ("class",)

    def scope_of(self, name):
        n = tph_number(name)
        if n is None or n >= len(self.scopes):
            return None
        return self.scopes[n]

    def mark(self):
        """How many names have been drawn; `reset` returns to it."""
        return len(self.scopes)

    def reset(self, mark):
        """Forget the names drawn since `mark`, so they are drawn again."""
        del self.scopes[mark:]

    def clone(self):
        other = FreshNames()
        other.scopes = self.scopes.copy()
        return other


class CallSite:
    """One resolved callee alternative at a call expression; used when
    completing method generics along the call graph.  `caller` is the
    method index of the calling method."""

    __slots__ = ("caller", "arg_terms", "param_terms", "ret_term")

    def __init__(self, caller, arg_terms, param_terms, ret_term):
        self.caller, self.ret_term = caller, ret_term
        self.arg_terms, self.param_terms = arg_terms, param_terms


class Alternative:
    __slots__ = ("constraints", "call_sites")

    def __init__(self, constraints=None, call_sites=None):
        self.constraints = [] if constraints is None else constraints
        self.call_sites = [] if call_sites is None else call_sites


class ReceiverGroup:
    """The or-group of a member access on a receiver `recv` whose head is
    not yet known, a sequence of alternatives: one per (class name,
    signature template) in `candidates`, in table order, each binding
    `recv` to its class; the candidates span two or more classes.  A
    choice takes one alternative, so all of them draw on one block of
    names, reserved at generation and sized by the largest candidate.
    `build(cname, sig)` makes a candidate's alternative the first time it
    is read and `built` keeps it, by index, so an alternative the unifier
    never tries is never built, and the names are the same either way.
    Besides the receiver and the block, an alternative can mention the
    access's argument terms and result, `terms`, and the slot terms in the
    templates of the class being inferred, `owned`; no other class's
    templates hold a placeholder."""

    def __init__(self, recv, candidates, build, terms=(), owned=()):
        self.recv = recv
        self.candidates = candidates
        self.build = build
        self.built = {}
        self.terms = terms
        self.owned = owned

    def tphs(self):
        """The placeholders its alternatives can share with the class's
        other constraints, found without building one: those of the
        receiver, `terms` and `owned`.  The block's names are the group's
        own."""
        terms = [*self.terms, *(t for sig in self.owned
                                for t in (*sig.params, sig.ret))]
        return {*self.recv.tphs, *(n for t in terms for n in t.tphs)}

    def __len__(self):
        return len(self.candidates)

    def __getitem__(self, i):
        if i not in self.built:
            self.built[i] = self.build(*self.candidates[i])
        return self.built[i]


class GenResult:
    """The constraints of one class and the terms of its declaration slots,
    filled in by the generator: `groups` holds each or-group, a list of
    Alternative or a ReceiverGroup; `methods` a MethodSig per method;
    `local_terms` maps a LocalDecl uid to its term.

    `slots` maps each member scope, the class first and then the methods in
    order, to the slot terms its body creates: the fields, or the
    parameters and return, then the locals and lambda parameters (those in
    block-bodied lambdas too) in creation order."""

    __slots__ = ("base", "groups", "base_call_sites", "field_terms",
                 "methods", "local_terms", "slots", "fresh")

    def __init__(self, base=None, groups=None, base_call_sites=None,
                 field_terms=None, methods=None, local_terms=None,
                 slots=None, fresh=None):
        self.base = [] if base is None else base
        self.groups = [] if groups is None else groups
        self.base_call_sites = ([] if base_call_sites is None
                                else base_call_sites)
        self.field_terms = {} if field_terms is None else field_terms
        self.methods = [] if methods is None else methods
        self.local_terms = {} if local_terms is None else local_terms
        self.slots = {} if slots is None else slots
        self.fresh = fresh


class _Unread:
    """The entry of a field, of term `term`, in the scope of a field
    initializer that may not read it; `message` says why.  The field can
    still be assigned."""

    __slots__ = ("term", "message")

    def __init__(self, term, message):
        self.term, self.message = term, message


class _Generator:
    def __init__(self, cls, table, fresh):
        self.cls = cls
        self.table = table
        self.fresh = fresh
        self.result = GenResult(fresh=fresh)
        self.scope = ("class",)

    def emit(self, c):
        self.result.base.append(c)

    def slot(self, term):
        self.result.slots[self.scope].append(term)
        return term

    def resolve(self, src, fresh=None):
        """Written type `src` as a term in the current member's scope."""
        return resolve_src_type(src, self.table, self.scope, fresh)

    # -- driver ------------------------------------------------------------

    def run(self):
        res = self.result
        res.slots[self.scope] = []
        for f in self.cls.fields:
            res.field_terms[f.name] = self.slot(
                self.fresh.tph(self.scope) if f.annotation is None else
                self.resolve(f.annotation))
        for i, m in enumerate(self.cls.methods):
            self.scope = ("method", i)
            res.slots[self.scope] = []
            res.methods.append(self._method_signature(m))
        self.scope = ("class",)
        self.method_index = None
        for i, f in enumerate(self.cls.fields):
            if f.init is not None:
                # as in Java, an initializer reads no field declared at or
                # after its own by simple name, in a lambda body too
                env = dict(res.field_terms)
                env[f.name] = _Unread(env[f.name], "self-reference in "
                                      f"initializer of field '{f.name}'")
                for g in self.cls.fields[i + 1:]:
                    env[g.name] = _Unread(
                        env[g.name], f"illegal forward reference to field "
                        f"'{g.name}' in initializer of field '{f.name}'")
                t = self.expr(f.init, env)
                self.emit(flow(f.init, t, res.field_terms[f.name]))
        for i, m in enumerate(self.cls.methods):
            self.scope = ("method", i)
            self.method_index = i
            sig = res.methods[i]
            env = dict(res.field_terms)
            for p, t in zip(m.params, sig.params):
                env[p.name] = t
            for st in m.body:
                self.stmt(st, env, sig.ret)
        return res

    def _method_signature(self, m):
        """Method `m` as the class's callers see it: its declared clause and
        the terms of its parameter and return slots."""
        params = [self.slot(self.fresh.tph(self.scope) if p.annotation is None
                            else self.resolve(p.annotation))
                  for p in m.params]
        if m.ret is not None:
            ret = self.resolve(m.ret)
        elif _returns_value(m.body):
            ret = self.fresh.tph(self.scope)
        else:
            ret = VOID
        self.slot(ret)
        return MethodSig(m.name, [(v.name, b) for v, b
                                  in self.table.clause(self.scope)],
                         params, ret)

    # -- statements ----------------------------------------------------------

    def stmt(self, st, env, ret):
        if isinstance(st, S.LocalDecl):
            if st.name in env:
                raise UnknownIdentifier(
                    f"'{st.name}' is already defined", st.pos.line, st.pos.col)
            if st.annotation is not None:
                term = self.resolve(st.annotation)
            else:
                term = self.fresh.tph(self.scope)
            self.result.local_terms[st.uid] = self.slot(term)
            env[st.name] = term
            if st.init is not None:
                t = self.expr(st.init, env)
                self.emit(flow(st.init, t, term))
        elif isinstance(st, S.Assign):
            name = st.target
            if name.__class__ is S.Name and name.ident in env:
                target = env[name.ident]
                if target.__class__ is _Unread:   # assigned, not read
                    target = target.term
            else:
                target = self.expr(name, env)
            value = self.expr(st.value, env)
            self.emit(flow(st.value, value, target))
        elif isinstance(st, S.Increment):
            # `x++` is `x = x + 1`, the 1 of the type the rule names
            target = self.expr(st.target, env)
            value = self._binary("+", target,
                                 ClassType(RULES[S.Increment]), st.pos)
            self.emit(lessdot(value, target))
        elif isinstance(st, S.While):
            cond = self.expr(st.cond, env)
            self.emit(lessdot(cond, ClassType(RULES[S.While])))
            inner = dict(env)
            for s in st.body:
                self.stmt(s, inner, ret)
        elif isinstance(st, S.Return):
            # a return has a value exactly when its method returns one
            t = None if st.value is None else self.expr(st.value, env)
            if (t is None) != (ret is VOID):
                raise Untypable("missing return value" if t is None else
                                "value returned from a void method",
                                st.pos.line, st.pos.col)
            if t is not None:
                self.emit(flow(st.value, t, ret))
        elif isinstance(st, S.ExprStmt):
            self.expr(st.expr, env)
        else:
            raise TypeError(f"unknown statement {st!r}")

    # -- expressions -----------------------------------------------------

    def expr(self, e, env):
        # a literal has the class its rule names
        if type(e) in RULES:
            return ClassType(RULES[type(e)])
        if isinstance(e, S.Name):
            if e.ident in env:
                t = env[e.ident]
                if t.__class__ is _Unread:
                    raise UnknownIdentifier(t.message, e.pos.line, e.pos.col)
                return t
            raise UnknownIdentifier(
                f"unknown identifier '{e.ident}'", e.pos.line, e.pos.col)
        if isinstance(e, S.Binary):
            return self._binary(e.op, self.expr(e.left, env),
                                self.expr(e.right, env), e.pos)
        if isinstance(e, S.Lambda):
            return self._lambda(e, env)
        if isinstance(e, S.New):
            return self._new(e, env)
        if isinstance(e, S.Call):
            return self._call(e, env)
        if isinstance(e, S.FieldAccess):
            return self._field_access(e, env)
        raise TypeError(f"unknown expression {e!r}")

    def _binary(self, op, left, right, pos):
        """The result of operator `op` on operand terms `left` and
        `right`.  An overloaded operator with one visible candidate type
        bounds both operands by it and is of it; with more, it is an
        or-group over them.  A fixed operator bounds its operands and its
        result is a placeholder equal to its result class."""
        if op in OVERLOADED_OPERATORS:
            types = [ty for ty in map(ClassType, OVERLOADED_OPERATORS[op])
                     if self.table.has(ty.name)]
            if not types:
                raise Untypable(f"no visible operand type for '{op}'",
                                pos.line, pos.col)
            if len(types) == 1:
                self.emit(lessdot(left, types[0]))
                self.emit(lessdot(right, types[0]))
                return types[0]
            result = self.fresh.tph(self.scope)
            self._add_group([Alternative([lessdot(left, ty),
                                          lessdot(right, ty),
                                          doteq(result, ty)])
                             for ty in types])
            return result
        bound, res = map(ClassType, FIXED_OPERATORS[op])
        result = self.fresh.tph(self.scope)
        self.emit(lessdot(left, bound))
        self.emit(lessdot(right, bound))
        self.emit(doteq(result, res))
        return result

    def _lambda(self, e, env):
        arg_components = []
        inner = dict(env)
        for p in e.params:
            if p.annotation is not None:
                slot = self.resolve(p.annotation)
                component = slot
            else:
                component = self.fresh.tph(self.scope)
                slot = self.fresh.tph(self.scope)
                self.emit(lessdot(component, slot))
            inner[p.name] = self.slot(slot)
            arg_components.append(component)
        if isinstance(e.body, list):
            ret = (self.fresh.tph(self.scope)
                   if _returns_value(e.body) else VOID)
            for st in e.body:
                self.stmt(st, inner, ret)
        else:
            ret = self.fresh.tph(self.scope)
            body_t = self.expr(e.body, inner)
            self.emit(flow(e.body, body_t, ret))
        return fun_type(arg_components, ret)

    def _new(self, e, env):
        term = self.resolve(e.cls, lambda: self.fresh.tph(self.scope))
        ctor = self.table.constructor(term)
        if len(ctor) != len(e.args):
            raise ArityMismatch(
                f"constructor of {term.name} expects {len(ctor)} argument(s), "
                f"got {len(e.args)}", e.pos.line, e.pos.col)
        for arg, p in zip(e.args, ctor):
            self.emit(flow(arg, self.expr(arg, env), p))
        return term

    # -- member access -----------------------------------------------------

    def _field_access(self, e, env):
        recv = self.expr(e.recv, env)
        result = self.fresh.tph(self.scope)

        def alternative(rterm, sig, names):
            _, ret, bounds = self.table.instantiate_method(sig, rterm, names)
            return Alternative([*(lessdot(*b) for b in bounds),
                                doteq(result, ret)])

        if not self._member(e, recv, alternative, (result,)):
            raise UnknownMember(
                f"no field '{e.name}' on {_receiver(e, recv)}",
                e.pos.line, e.pos.col)
        return result

    def _call(self, e, env):
        arg_terms = [self.expr(a, env) for a in e.args]
        result = self.fresh.tph(self.scope)
        # a call without receiver is a call on the class being inferred
        recv = (ClassType(self.cls.name) if e.recv is None
                else self.expr(e.recv, env))
        caller = self.method_index

        def alternative(rterm, sig, names):
            return _sig_alternative(
                e, arg_terms, result, caller,
                *self.table.instantiate_method(sig, rterm, names))

        if self._member(e, recv, alternative, (*arg_terms, result)):
            return result
        if e.recv is None:
            raise UnknownIdentifier(
                f"no method '{e.name}' with {len(e.args)} argument(s)",
                e.pos.line, e.pos.col)
        raise UnknownMember(
            f"no member '{e.name}' taking {len(e.args)} argument(s) "
            f"on {_receiver(e, recv)}", e.pos.line, e.pos.col)

    def _add_group(self, alts):
        if len(alts) == 1:
            self.result.base.extend(alts[0].constraints)
            self.result.base_call_sites.extend(alts[0].call_sites)
        else:
            self.result.groups.append(alts)

    def _member(self, e, recv, alternative, terms):
        """Resolve member access `e`, a call or a field read, on receiver
        term `recv`; `alternative(rterm, sig, names)` makes the
        alternative of signature template `sig` of class term `rterm`, its
        own type parameters instantiated with the placeholders `names`; it
        mentions no placeholder but those of `rterm`, `names`, `sig` and
        `terms`.  A declared variable has the members of the first type on
        its supertype chain that is no variable.  A receiver with a known
        head takes its class's candidates, each with names of its own.  So
        does any other receiver whose candidates are all of one class `C`:
        every alternative would bind it to `C`, so `recv = C<...>` over
        fresh arguments joins the base instead.  Any other receiver becomes
        one `ReceiverGroup` over every class that declares the member, in
        table order.  Adds the alternatives to the result; returns how many
        there are."""
        if isinstance(recv, TypeVar):
            recv = next(t for t in self.table.supertype_chain(recv)
                        if not isinstance(t, TypeVar))
        own = self.cls.name
        # the class being inferred offers its slot terms, any other class
        # its entry's templates
        owned = self._own_templates(e)
        declared = [p for p in self.table.members(
            e.name, None if isinstance(e, S.FieldAccess) else len(e.args))
            if p[0] != own] + [(own, sig) for sig in owned]
        # the table's candidates come in table order, a run per class, and
        # the class's own last: the first and the last are of one class
        # exactly when all are
        if (not isinstance(recv, ClassType) and declared
                and declared[0][0] == declared[-1][0]):
            head = declared[0][0]
            rterm = ClassType(head, tuple(
                self.fresh.tph(self.scope)
                for _ in range(self.table.entry(head).arity)))
            self.emit(doteq(recv, rterm))
            recv = rterm
        if isinstance(recv, ClassType):
            alts = [alternative(recv, sig, [self.fresh.tph(self.scope)
                                            for _ in sig.typeparams])
                    for cname, sig in declared if cname == recv.name]
        else:
            candidates = sorted(declared,
                                key=lambda p: self.table.order[p[0]])
            # one choice takes one candidate, so all share one block
            names = tuple(self.fresh.tph(self.scope) for _ in range(max(
                (self.table.entry(cname).arity + len(sig.typeparams)
                 for cname, sig in candidates), default=0)))

            def build(cname, sig):
                rterm = ClassType(cname,
                                  names[:self.table.entry(cname).arity])
                alt = alternative(rterm, sig, names[len(rterm.args):])
                alt.constraints.insert(0, doteq(recv, rterm))
                return alt

            alts = ReceiverGroup(recv, candidates, build, terms, owned)
        if alts:
            self._add_group(alts)
        return len(alts)

    def _own_templates(self, e):
        """The signature templates member access `e` may take in the class
        being inferred, over its slot terms, in declaration order: a call's
        methods of its name and arity, or a read's field, as a signature
        without parameters."""
        if isinstance(e, S.FieldAccess):
            term = self.result.field_terms.get(e.name)
            return [] if term is None else [MethodSig(e.name, [], [], term)]
        return [sig for sig in self.result.methods
                if sig.name == e.name and len(sig.params) == len(e.args)]


def _sig_alternative(e, arg_terms, result, caller, params, ret, bounds):
    """The alternative of call `e` taking a signature from `params` to
    `ret`: its (type parameter, bound) pairs `bounds`, the arguments
    flowing into the parameters and the result."""
    return Alternative(
        [*(lessdot(*b) for b in bounds),
         *(flow(node, t, p) for node, t, p in zip(e.args, arg_terms, params)),
         doteq(result, ret)],
        [CallSite(caller=caller, arg_terms=list(arg_terms),
                  param_terms=list(params), ret_term=ret)])


def _receiver(e, recv):
    """How a diagnostic names a member's receiver: by its type once that is
    known, else by the receiver expression."""
    if is_ground(recv):
        return str(recv)
    return f"'{S.print_expr(e.recv)}'"


def _returns_value(stmts):
    for st in stmts:
        if isinstance(st, S.Return) and st.value is not None:
            return True
        if isinstance(st, S.While) and _returns_value(st.body):
            return True
    return False


def generate_constraints(cls, table):
    """Constraints (base + or-groups) and slot bookkeeping for one class."""
    return _Generator(cls, table, FreshNames()).run()


class Candidate:
    """One plain constraint set of `flatten`; `choice` holds the alternative
    it takes in each or-group."""

    __slots__ = ("constraints", "call_sites", "choice")

    def __init__(self, constraints, call_sites, choice):
        self.constraints, self.call_sites = constraints, call_sites
        self.choice = choice


def flatten(result, table):
    """Expand or-groups into plain candidate constraint sets (cartesian
    product, deterministic order).  Candidates with a directly contradictory
    ground pair are pruned; the unifier refutes each of them on its own."""
    out = []
    indices = [range(len(g)) for g in result.groups]
    for choice in itertools.product(*indices):
        constraints = list(result.base)
        for g, i in zip(result.groups, choice):
            constraints.extend(g[i].constraints)
        if _contradictory(constraints, table):
            continue
        out.append(Candidate(constraints, call_sites(result, choice), choice))
    return out


def call_sites(result, choice):
    """The call sites of the base constraints and of the alternative
    `choice` takes in each or-group."""
    sites = list(result.base_call_sites)
    for g, i in zip(result.groups, choice):
        sites.extend(g[i].call_sites)
    return sites


def _contradictory(constraints, table):
    for c in constraints:
        if is_ground(c.lhs) and is_ground(c.rhs):
            if c.kind == "doteq" and c.lhs is not c.rhs:
                return True
            if c.kind == "lessdot" and not table.is_subtype(c.lhs, c.rhs):
                return True
    return False
