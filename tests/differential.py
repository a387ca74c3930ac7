"""Compare the outputs of this tree with those of another checkout.

    python tests/differential.py PARENT_TREE

runs the same programs through `PARENT_TREE/src` and through this tree's
`src`, each in a fresh interpreter, and compares, per program, the four
outputs, the `constraints`, `solutions` and `generics` dumps and the
`.sigs.txt` of the typed output run again (or the diagnostic a run
raises).  The programs are the golden ones, the benchmark corpus of
every workload at seeds 1-3, the pinned programs of `tests/conftest.py`,
the `surviving` family at n = 1-4 and the independent-sums family at
k = 1-7.  It prints one line per differing text and a summary, and exits
with 1 when an output or a re-entered `.sigs.txt` differs; a dump that
differs is reported, but a change may alter the dumps on purpose.  Not
part of the test suite, as it needs a second checkout.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DUMP_STAGES = ("constraints", "solutions", "generics")
OUTPUTS = ("typed.jtx", "sigs.txt", "desc.txt", "funifaces.txt")


def programs():
    """(name, source) of every program compared."""
    sys.path[:0] = [str(HERE), str(ROOT / "perfbench"), str(ROOT / "src")]
    import corpus
    from conftest import ALL_GOLDEN_SRCS, PINNED_SRCS, independent_sums

    out = [(f"golden/{n}", s) for n, s in ALL_GOLDEN_SRCS.items()]
    out += [(f"{w}/{seed}/{p.name}", p.source) for seed in (1, 2, 3)
            for w in corpus.WORKLOADS for p in corpus.workload(w, seed)]
    out += [(f"pinned/{n}", s) for n, s in PINNED_SRCS.items()]
    out += [(f"surviving/n{n}", corpus.surviving_unit(n, random.Random(n))
             .source) for n in range(1, 5)]
    out += [(f"independent-sums/k{k}", independent_sums(k))
            for k in range(1, 8)]
    return out


def render(sources):
    """Name -> suffix -> text for (name, source) pairs, by the `jtxinfer`
    on `sys.path`."""
    from jtxinfer.cli import output_texts
    from jtxinfer.errors import JtxError
    from jtxinfer.pipeline import run_source

    def failed(exc):
        return f"{type(exc).__name__} {exc}\n"

    out = {}
    for name, src in sources:
        try:
            r = run_source(src, dump_stages=DUMP_STAGES)
        except JtxError as exc:
            out[name] = {"error": failed(exc)}
            continue
        texts = output_texts(r)
        texts.update((f"dump.{s}", r.dumps[s]) for s in DUMP_STAGES)
        try:
            texts["reentry.sigs.txt"] = output_texts(
                run_source(texts["typed.jtx"]), ("sigs",))["sigs.txt"]
        except JtxError as exc:
            texts["reentry.sigs.txt"] = failed(exc)
        out[name] = texts
    return out


def rendered_by(tree, sources):
    """`render(sources)` in a fresh interpreter importing `tree/src`."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--render"], input=json.dumps(sources),
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv):
    if argv == ["--render"]:
        json.dump(render(json.load(sys.stdin)), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sources = programs()
    parent, child = rendered_by(argv[0], sources), rendered_by(ROOT, sources)
    differ = Counter()
    for name, _ in sources:
        a, b = parent[name], child[name]
        for suffix in sorted(a.keys() | b.keys()):
            if a.get(suffix) != b.get(suffix):
                differ[suffix] += 1
                print(f"{name}: {suffix} differs")
    dumps = sum(n for s, n in differ.items() if s.startswith("dump."))
    print(f"{len(sources)} programs: {sum(differ.values()) - dumps} "
          f"differing outputs, {dumps} differing dumps"
          + "".join(f"; {s} {n}" for s, n in sorted(differ.items())))
    return 1 if sum(differ.values()) > dumps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
