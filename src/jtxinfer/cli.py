"""The ``tx-infer`` command line front end."""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from .errors import JtxError, ResourceLimit, Untypable
from .pipeline import (DUMP_STAGES, descriptor_lines, funiface_manifest,
                       run_source, signature_lines, typed_source)

EMIT_TARGETS = ("typed", "sigs", "desc", "funifaces")


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process:
    `parse_args` leaves it unchanged and copies the `append` default."""
    p = argparse.ArgumentParser(
        prog="tx-infer",
        description="Infer all omitted types in .jtx source files and emit "
                    "typed source, signature reports, method descriptors "
                    "and the function-type interface manifest.")
    p.add_argument("files", nargs="+", metavar="FILE",
                   help="input .jtx source file(s)")
    p.add_argument("--emit", default=",".join(EMIT_TARGETS),
                   help="comma separated subset of: " + ", ".join(EMIT_TARGETS))
    p.add_argument("--table", default=None,
                   help="path to a builtin class-table JSON file "
                        "(default: bundled table, or $TXINFER_TABLE)")
    p.add_argument("--dump-stage", action="append", default=[],
                   choices=list(DUMP_STAGES), dest="dump_stages",
                   help="print an intermediate stage to stdout "
                        "(repeatable)")
    return p


def _print_utf8(text):
    """Write `text` to stdout as UTF-8 whatever the locale, as the outputs
    are written; a stdout that takes no bytes gets it as text."""
    out = getattr(sys.stdout, "buffer", None)
    sys.stdout.flush()
    if out is None:
        sys.stdout.write(text)
    else:
        out.write(text.encode("utf-8"))


def output_texts(result, emits=EMIT_TARGETS):
    """Output file suffix -> text, for each target of `emits` of pipeline
    `result`.  `.sigs.txt` and `.desc.txt` hold one line per method
    declaration or typing, so a unit without methods writes them empty."""
    texts = {}
    if "typed" in emits:
        texts["typed.jtx"] = typed_source(result)
    if "sigs" in emits:
        texts["sigs.txt"] = "".join(f"{line}\n"
                                    for line in signature_lines(result))
    if "desc" in emits:
        texts["desc.txt"] = "".join(f"{line}\n"
                                    for line in descriptor_lines(result))
    if "funifaces" in emits:
        texts["funifaces.txt"] = funiface_manifest(result)
    return texts


def main(argv=None):
    args = _parser().parse_args(argv)
    emits = [e.strip() for e in args.emit.split(",") if e.strip()]
    for e in emits:
        if e not in EMIT_TARGETS:
            print(f"tx-infer: unknown emit target '{e}'", file=sys.stderr)
            return 2
    table = args.table or os.environ.get("TXINFER_TABLE") or None
    status = 0
    for fname in args.files:
        path = Path(fname)
        try:
            src = path.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"tx-infer: {exc}", file=sys.stderr)
            status = max(status, 2)
            continue
        except UnicodeDecodeError as exc:
            print(f"tx-infer: {path.name}: {exc}", file=sys.stderr)
            status = max(status, 2)
            continue
        # every text is built before any is written: a diagnostic leaves
        # no partial set of outputs
        try:
            result = run_source(src, table_path=table,
                                dump_stages=tuple(args.dump_stages))
            texts = output_texts(result, emits)
        except Untypable as exc:
            print(f"tx-infer: {path.name}: untypable: {exc}",
                  file=sys.stderr)
            status = max(status, 1)
            continue
        except ResourceLimit as exc:
            print(f"tx-infer: {path.name}: resource limit: {exc}",
                  file=sys.stderr)
            status = max(status, 3)
            continue
        except JtxError as exc:
            print(f"tx-infer: {path.name}: error: {exc}", file=sys.stderr)
            status = max(status, 2)
            continue
        for stage in args.dump_stages:
            _print_utf8(f"== {stage} ==\n{result.dumps.get(stage, '')}\n")
        stem = path.with_suffix("")
        written = []
        try:
            for suffix, text in texts.items():
                with open(f"{stem}.{suffix}", "w", encoding="utf-8") as fh:
                    written.append(fh.name)
                    fh.write(text)
        except OSError as exc:
            # a failed write leaves none either: remove what it opened
            for name in written:
                with contextlib.suppress(OSError):
                    os.remove(name)
            print(f"tx-infer: {path.name}: {exc}", file=sys.stderr)
            status = max(status, 2)
    return status


if __name__ == "__main__":
    sys.exit(main())
