"""The scan of the type names a program forces in as it was before it
became a visitor over `syntax.walk`: a hand-written traversal of every
construct.  Kept unchanged as the reference that `tests/test_scan.py`
checks `jtxinfer.classtable._scan_occurrences` against."""

from jtxinfer import syntax as S


def _scan_occurrences(program):
    """Type names forced in by literals, operators, lambdas, `apply` calls
    and annotations: built-in names and function-type heads."""
    forced = set()

    def expr(e):
        if isinstance(e, S.IntLit):
            forced.add("Integer")
        elif isinstance(e, S.BoolLit):
            forced.add("Boolean")
        elif isinstance(e, S.StrLit):
            forced.add("String")
        elif isinstance(e, S.Binary):
            if e.op == "<=":
                forced.update(("Boolean", "Number"))
            elif e.op == "||":
                forced.add("Boolean")
            expr(e.left)
            expr(e.right)
        elif isinstance(e, S.Lambda):
            forced.add(f"Fun{len(e.params)}$$")
            forced.add(f"FunVoid{len(e.params)}$$")
            for p in e.params:
                src_type(p.annotation)
            if isinstance(e.body, list):
                for s in e.body:
                    stmt(s)
            elif e.body is not None:
                expr(e.body)
        elif isinstance(e, S.Call):
            if e.name == "apply":
                forced.add(f"Fun{len(e.args)}$$")
                forced.add(f"FunVoid{len(e.args)}$$")
            if e.recv is not None:
                expr(e.recv)
            for a in e.args:
                expr(a)
        elif isinstance(e, S.FieldAccess):
            expr(e.recv)
        elif isinstance(e, S.New):
            src_type(e.cls)
            for a in e.args:
                expr(a)

    def src_type(t):
        if t is None:
            return
        forced.add(t.name.rsplit(".", 1)[-1])
        for a in t.args or []:
            src_type(a)

    def stmt(s):
        if isinstance(s, S.LocalDecl):
            src_type(s.annotation)
            if s.init is not None:
                expr(s.init)
        elif isinstance(s, S.Assign):
            expr(s.target)
            expr(s.value)
        elif isinstance(s, S.Increment):
            forced.add("Integer")
            expr(s.target)
        elif isinstance(s, S.While):
            forced.add("Boolean")
            expr(s.cond)
            for b in s.body:
                stmt(b)
        elif isinstance(s, S.Return):
            if s.value is not None:
                expr(s.value)
        elif isinstance(s, S.ExprStmt):
            expr(s.expr)

    for cls in program.classes:
        for g in cls.generics:
            src_type(g.bound)
        for f in cls.fields:
            src_type(f.annotation)
            if f.init is not None:
                expr(f.init)
        for m in cls.methods:
            for g in m.generics:
                src_type(g.bound)
            src_type(m.ret)
            for p in m.params:
                src_type(p.annotation)
            for s in m.body:
                stmt(s)
    return forced
