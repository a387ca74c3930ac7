"""Correctness gate: compare tx-infer's outputs with a program's reference.

Signature lines are compared modulo a consistent renaming of generic
names.  A name declared in a member's `<...>` clause is scoped to that
member; any other name that is neither a built-in type nor a class of the
unit is a class generic, scoped to its class.  Clause order is ignored.
"""

from __future__ import annotations

import re

OUTPUT_SUFFIXES = (".typed.jtx", ".sigs.txt", ".desc.txt", ".funifaces.txt")

BUILTIN_TYPES = frozenset(("Object", "Number", "Integer", "Double",
                           "Boolean", "String", "Pair", "void"))
_FUN_IFACE = re.compile(r"Fun(Void)?\d+\$\$")
_TOKEN = re.compile(r"[A-Za-z_$][\w$]*|->|[<>(),]")


def _is_generic(tok, class_names):
    return (tok[0].isalpha() and tok != "extends"
            and tok not in BUILTIN_TYPES and tok not in class_names
            and _FUN_IFACE.fullmatch(tok) is None)


def _split_clause(tokens):
    """Split a member into its generics clause pairs and its body tokens."""
    if not tokens or tokens[0] != "<":
        return [], tokens
    depth = 0
    for end, tok in enumerate(tokens):
        depth += {"<": 1, ">": -1}.get(tok, 0)
        if depth == 0:
            break
    pairs, cur = [], []
    for tok in tokens[1:end] + [","]:
        depth += {"<": 1, ">": -1}.get(tok, 0)
        if tok == "," and depth == 0:
            pairs.append((cur[0], tuple(cur[2:])))
            cur = []
        else:
            cur.append(tok)
    return pairs, tokens[end + 1:]


def _canonical_member(member, class_names, class_map):
    pairs, body = _split_clause(_TOKEN.findall(member))
    declared = {name for name, _ in pairs}
    local = {}

    def rename(tok):
        if tok in declared:
            return f"m{local.setdefault(tok, len(local))}"
        if _is_generic(tok, class_names):
            return f"c{class_map.setdefault(tok, len(class_map))}"
        return tok

    canon_body = tuple(rename(t) for t in body)
    # name clause-only generics from the lowest-numbered generic already
    # named in their pair, so the result does not depend on clause order
    pending = list(pairs)
    while pending:
        def rank(pair):
            known = [local[t] for t in (pair[0],) + pair[1] if t in local]
            return (not known, min(known, default=0))
        pick = min(pending, key=rank)
        for tok in (pick[0],) + pick[1]:
            rename(tok)
        pending.remove(pick)
    clause = frozenset((rename(n), tuple(rename(t) for t in b))
                       for n, b in pairs)
    return clause, canon_body


def parse_sigs(lines):
    """[(qualified method name, member text list)] for signature lines."""
    out = []
    for line in lines:
        qual, _, typ = line.partition(" : ")
        out.append((qual.strip(), [m.strip() for m in typ.split(" & ")]))
    return out


def _canonical_sigs(lines, class_names):
    class_maps = {}
    out = []
    for qual, members in parse_sigs(lines):
        cmap = class_maps.setdefault(qual.split(".")[0], {})
        out.append((qual, [_canonical_member(m, class_names, cmap)
                           for m in members]))
    return out


def sig_mismatches(expected, actual, class_names):
    """Human-readable differences between two lists of signature lines."""
    exp = _canonical_sigs(expected, class_names)
    act = _canonical_sigs(actual, class_names)
    problems = []
    if [q for q, _ in exp] != [q for q, _ in act]:
        problems.append(f"signature lines {[q for q, _ in act]} "
                        f"instead of {[q for q, _ in exp]}")
        return problems
    for (_, e), (_, a), eline, aline in zip(exp, act, expected, actual):
        if e != a:
            problems.append(f"{aline.strip()!r} instead of {eline.strip()!r}")
    return problems


def check_outputs(program, stem_path, rc, message, jtx):
    """Failure reasons for one compile of `program`; empty when correct.

    `rc` is the exit code (None when the call raised), `message` the
    captured diagnostic or traceback, and `jtx` the jtxinfer package, used
    to parse the typed output and feed it back in."""
    if rc is None:
        return [f"traceback: {message}"]
    if rc != 0:
        return [f"exit code {rc}: {message.strip()}"]
    reasons = []
    texts = {}
    for suffix in OUTPUT_SUFFIXES:
        path = stem_path.with_name(stem_path.name + suffix)
        if not path.is_file():
            reasons.append(f"missing {path.name}")
        else:
            texts[suffix] = path.read_text()
    if ".sigs.txt" in texts:
        reasons += sig_mismatches(list(program.sigs),
                                  texts[".sigs.txt"].splitlines(),
                                  program.class_names)
    typed = texts.get(".typed.jtx")
    if typed is not None:
        try:
            jtx.parse(typed)
        except jtx.JtxError as exc:
            reasons.append(f"typed output does not parse: {exc}")
        else:
            try:
                jtx.run_source(typed)
            except jtx.JtxError as exc:
                reasons.append(f"typed output does not re-enter: {exc}")
            except Exception as exc:  # a crash on re-entry is a result too
                reasons.append(f"typed output re-entry raised {exc!r}")
    return reasons
