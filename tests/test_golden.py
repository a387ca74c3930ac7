"""Byte-for-byte snapshots of the seven paper programs.

`tests/golden/<Name>.*` hold each program's four outputs and its
`constraints`, `solutions` and `generics` dumps, as `tx-infer` writes and
prints them; the dumps are compared stage by stage, so a failure names the
stage.  `<Name>.reentry.sigs.txt` holds the `.sigs.txt` of the typed output
run again, or the diagnostic that run raises.  `tests/golden/corpus.json`
holds the sha256 of the first five texts for every program of the
benchmark corpus (`perfbench/corpus.py`, imported read-only): each
workload, seeds 1-3; `tests/golden/corpus_reentry.json` holds that of the
re-entered `.sigs.txt`.  `tests/golden/unify_counts.json` holds the
unifier's counters of every class of the same programs, so a change to the
search's speed shows whether it changed the search.  A change that alters
an output or a count on purpose regenerates them all with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import functools
import hashlib
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from jtxinfer import emit, pipeline
from jtxinfer.cli import output_texts
from jtxinfer.errors import JtxError
from jtxinfer.pipeline import DUMP_STAGES, run_source

from conftest import ALL_GOLDEN_SRCS

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"
CORPUS_REENTRY = GOLDEN / "corpus_reentry.json"
UNIFY_COUNTS = GOLDEN / "unify_counts.json"
# the counters of `unify(stats=...)` the search is pinned by
COUNTERS = ("steps", "branch_points", "sinks", "alternatives", "pruned",
            "forced")
REENTRY = "reentry.sigs.txt"
WORKLOADS = ("paper-units", "ambiguity", "long-methods")
SEEDS = (1, 2, 3)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def render(src):
    """Suffix -> text of every snapshot file of one program."""
    r = run_source(src, dump_stages=DUMP_STAGES)
    texts = output_texts(r)
    return {
        **texts,
        "dumps.txt": "".join(f"== {s} ==\n{r.dumps[s]}\n"
                             for s in DUMP_STAGES),
        REENTRY: reentered(texts["typed.jtx"]),
    }


def reentered(typed):
    """The `.sigs.txt` of typed output `typed` run again, or the diagnostic
    that run raises."""
    try:
        return output_texts(run_source(typed), ("sigs",))["sigs.txt"]
    except JtxError as exc:
        return f"{type(exc).__name__} {exc}\n"


@functools.lru_cache(maxsize=None)
def digests(src):
    """Suffix -> sha256 of every snapshot text of one program."""
    return {suffix: hashlib.sha256(text.encode()).hexdigest()
            for suffix, text in render(src).items()}


def corpus_digests(workload, seed, reentry=False):
    """Program name -> its digests, for one seeded pass of a workload: of
    the re-entered `.sigs.txt` alone when `reentry`, else of the rest."""
    return {p.name: {suffix: digest
                     for suffix, digest in digests(p.source).items()
                     if (suffix == REENTRY) == reentry}
            for p in corpus.workload(workload, seed)}


@functools.lru_cache(maxsize=None)
def class_stats(src):
    """Class name -> the unifier's counters of that class of `src`."""
    return {r.cls.name: r.stats for r in run_source(src).class_results}


def unify_counts(programs):
    """Program name -> class name -> `COUNTERS`, for (name, source) pairs."""
    return {name: {cls: {k: stats[k] for k in COUNTERS}
                   for cls, stats in class_stats(src).items()}
            for name, src in programs}


def workload_counts(workload, seed):
    return unify_counts((p.name, p.source)
                        for p in corpus.workload(workload, seed))


def stages(dumps):
    """Stage name -> its section of a `dumps.txt` text."""
    parts = re.split(r"^== (\w+) ==\n", dumps, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN_SRCS))
def test_golden_snapshot(name):
    for suffix, text in render(ALL_GOLDEN_SRCS[name]).items():
        want = (GOLDEN / f"{name}.{suffix}").read_text()
        if suffix == "dumps.txt":
            got = stages(text)
            for stage, section in stages(want).items():
                assert got.get(stage) == section, f"{suffix}: {stage}"
        assert want == text, suffix


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_digests(workload, seed):
    want = json.loads(CORPUS.read_text())[workload][str(seed)]
    got = corpus_digests(workload, seed)
    assert sorted(got) == sorted(want)
    for name, files in want.items():
        for suffix, digest in files.items():
            assert got[name][suffix] == digest, f"{name}: {suffix}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_reentry_digests(workload, seed):
    want = json.loads(CORPUS_REENTRY.read_text())[workload][str(seed)]
    assert corpus_digests(workload, seed, reentry=True) == want


def test_golden_unify_counts():
    want = json.loads(UNIFY_COUNTS.read_text())["golden"]
    assert unify_counts(ALL_GOLDEN_SRCS.items()) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_unify_counts(workload, seed):
    want = json.loads(UNIFY_COUNTS.read_text())[workload][str(seed)]
    assert workload_counts(workload, seed) == want


# Few branch points have two or more alternatives, and only those open a
# search frame; the straight-line methods of `long-methods` have none.
@pytest.mark.parametrize("workload, frames", [
    ("paper-units", 4), ("ambiguity", 3), ("long-methods", 0)])
def test_search_frames(workload, frames):
    assert sum(stats["frames"] for p in corpus.workload(workload, 1)
               for stats in class_stats(p.source).values()) == frames


# A straight-line method of n statements costs the unifier steps linear in
# n, with no clock to read: exact laws over n = 10, 20 and 40.  In a `+ 1`
# or `* 2` chain, `var v = prev + 1;` puts `Integer < v` and the next
# statement `v < Integer`, which binds `v` to `Integer` at once (`forced`);
# only the last local and the method's return are left, two sinks.  The
# one local of `self` is bound by its first `x * 2`, and its return is the
# one sink.
@pytest.mark.parametrize("shape, steps, decided", [
    ("add", lambda n: 4 * n - 1, lambda n: (2, n - 1)),
    ("mul", lambda n: 4 * n - 1, lambda n: (2, n - 1)),
    ("self", lambda n: 3 * n, lambda n: (1, 1))])
def test_long_method_counts_are_linear(shape, steps, decided):
    # `decided` gives the branch points, each a sink, and the `forced`
    for n in (10, 20, 40):
        unit = corpus.long_unit(n, shape, random.Random(n))
        (stats,) = class_stats(unit.source).values()
        branch_points, forced = decided(n)
        assert [stats[k] for k in ("steps", "branch_points", "sinks",
                                   "frames", "forced")] \
            == [steps(n), branch_points, branch_points, 0, forced], n


# The `depth` family, summed over its n classes.  `D_0` takes one step and
# every later `D_i` eight.  `D_i` reads `.f` on a local of class `D_{i-1}`:
# its receiver group has one alternative per class declaring `f` so far,
# its own included, and the unifier tries one and prunes the other i.  No
# branch point is left to search.
def test_depth_counts_are_linear_and_pruned_quadratic():
    for n in (10, 20, 40):
        unit = corpus.depth_unit(n, random.Random(n))
        total = Counter()
        for stats in class_stats(unit.source).values():
            total.update(stats)
        assert [total[k] for k in ("steps", "alternatives", "pruned",
                                   "branch_points")] \
            == [8 * n - 7, n - 1, n * (n - 1) // 2, 0], n


# After unification each term of a class solution is substituted once and
# turned into a table template once, so `pipeline` and `emit` call
# `substitute` a fixed number of times per class, with no clock to read.
# A `classes` class has 8 slot terms (5 parameters, 3 returns), each
# substituted by the solution and then templated, and 3 inferred bounds,
# templated: 19.  `D_0` of `depth` has 2 slot terms and 3 templates; each
# later `D_i` 3 slot terms (its local too), the 3 terms of the call site of
# `.f` and 3 templates: 9n - 4 in all.
@pytest.mark.parametrize("family, law", [
    (corpus.classes_unit, lambda n: 19 * n),
    (corpus.depth_unit, lambda n: 9 * n - 4)])
def test_substitutions_per_class_are_constant(family, law, monkeypatch):
    calls = Counter()
    for module in (pipeline, emit):
        def counted(term, sigma, substitute=module.substitute):
            calls["substitute"] += 1
            return substitute(term, sigma)
        monkeypatch.setattr(module, "substitute", counted)
    for n in (10, 20, 40):
        calls.clear()
        run_source(family(n, random.Random(n)).source)
        assert calls["substitute"] == law(n), n


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, src in ALL_GOLDEN_SRCS.items():
        for suffix, text in render(src).items():
            (GOLDEN / f"{name}.{suffix}").write_text(text)
    for path, reentry in ((CORPUS, False), (CORPUS_REENTRY, True)):
        path.write_text(json.dumps(
            {w: {str(s): corpus_digests(w, s, reentry) for s in SEEDS}
             for w in WORKLOADS}, indent=1, sort_keys=True) + "\n")
    UNIFY_COUNTS.write_text(json.dumps(
        {"golden": unify_counts(ALL_GOLDEN_SRCS.items()),
         **{w: {str(s): workload_counts(w, s) for s in SEEDS}
            for w in WORKLOADS}}, indent=1, sort_keys=True) + "\n")
