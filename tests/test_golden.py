"""Byte-for-byte snapshots of the seven paper programs.

`tests/golden/<Name>.*` hold each program's four outputs and its
`constraints`, `solutions` and `generics` dumps, as `tx-infer` writes and
prints them; the dumps are compared stage by stage, so a failure names the
stage.  A change that alters an output on purpose regenerates them with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import re
from pathlib import Path

import pytest

from jtxinfer.pipeline import (DUMP_STAGES, descriptor_lines,
                               funiface_manifest, run_source,
                               signature_lines, typed_source)

from conftest import ALL_GOLDEN_SRCS

GOLDEN = Path(__file__).resolve().parent / "golden"


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, src in ALL_GOLDEN_SRCS.items():
        for suffix, text in render(src).items():
            (GOLDEN / f"{name}.{suffix}").write_text(text)
