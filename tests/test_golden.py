"""Byte-for-byte snapshots of the seven paper programs.

`tests/golden/<Name>.*` hold each program's four outputs and its
`constraints`, `solutions` and `generics` dumps, as `tx-infer` writes and
prints them; the dumps are compared stage by stage, so a failure names the
stage.  `tests/golden/corpus.json` holds the sha256 of the same five texts
for every program of the benchmark corpus (`perfbench/corpus.py`, imported
read-only): each workload, seeds 1-3.  A change that alters an output on
purpose regenerates both with `PYTHONPATH=src python tests/test_golden.py`
and says why.
"""

import functools
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from jtxinfer.pipeline import (DUMP_STAGES, descriptor_lines,
                               funiface_manifest, run_source,
                               signature_lines, typed_source)

from conftest import ALL_GOLDEN_SRCS

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"
WORKLOADS = ("paper-units", "ambiguity", "long-methods")
SEEDS = (1, 2, 3)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def render(src):
    """Suffix -> text of every snapshot file of one program."""
    r = run_source(src, dump_stages=DUMP_STAGES)
    return {
        "typed.jtx": typed_source(r),
        "sigs.txt": "\n".join(signature_lines(r)) + "\n",
        "desc.txt": "\n".join(descriptor_lines(r)) + "\n",
        "funifaces.txt": funiface_manifest(r),
        "dumps.txt": "".join(f"== {s} ==\n{r.dumps[s]}\n"
                             for s in DUMP_STAGES),
    }


@functools.lru_cache(maxsize=None)
def digests(src):
    """Suffix -> sha256 of every snapshot text of one program."""
    return {suffix: hashlib.sha256(text.encode()).hexdigest()
            for suffix, text in render(src).items()}


def corpus_digests(workload, seed):
    """Program name -> its digests, for one seeded pass of a workload."""
    return {p.name: digests(p.source)
            for p in corpus.workload(workload, seed)}


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, src in ALL_GOLDEN_SRCS.items():
        for suffix, text in render(src).items():
            (GOLDEN / f"{name}.{suffix}").write_text(text)
    CORPUS.write_text(json.dumps(
        {w: {str(s): corpus_digests(w, s) for s in SEEDS}
         for w in WORKLOADS}, indent=1, sort_keys=True) + "\n")
