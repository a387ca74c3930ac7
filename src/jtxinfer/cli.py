"""The ``tx-infer`` command line front end."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import JtxError, Untypable
from .pipeline import (DUMP_STAGES, descriptor_lines, funiface_manifest,
                       run_source, signature_lines, typed_source)

EMIT_TARGETS = ("typed", "sigs", "desc", "funifaces")


def _parser():
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
    p.add_argument("--max-solutions", type=int, default=None, metavar="N",
                   help="stop the unifier after N solutions per candidate")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    emits = [e.strip() for e in args.emit.split(",") if e.strip()]
    for e in emits:
        if e not in EMIT_TARGETS:
            print(f"tx-infer: unknown emit target '{e}'", file=sys.stderr)
            return 2
    table = args.table or os.environ.get("TXINFER_TABLE") or None
    if args.max_solutions is not None and args.max_solutions < 1:
        print("tx-infer: --max-solutions must be positive", file=sys.stderr)
        return 2
    status = 0
    for fname in args.files:
        path = Path(fname)
        try:
            src = path.read_text()
        except OSError as exc:
            print(f"tx-infer: {exc}", file=sys.stderr)
            status = 2
            continue
        try:
            result = run_source(src, table_path=table,
                                max_solutions=args.max_solutions,
                                dump_stages=tuple(args.dump_stages))
        except Untypable as exc:
            print(f"tx-infer: {path.name}: untypable: {exc}",
                  file=sys.stderr)
            status = max(status, 1)
            continue
        except JtxError as exc:
            print(f"tx-infer: {path.name}: error: {exc}", file=sys.stderr)
            status = 2
            continue
        for stage in args.dump_stages:
            print(f"== {stage} ==")
            print(result.dumps.get(stage, ""))
        stem = path.with_suffix("")
        if "typed" in emits:
            Path(f"{stem}.typed.jtx").write_text(typed_source(result))
        if "sigs" in emits:
            Path(f"{stem}.sigs.txt").write_text(
                "\n".join(signature_lines(result)) + "\n")
        if "desc" in emits:
            Path(f"{stem}.desc.txt").write_text(
                "\n".join(descriptor_lines(result)) + "\n")
        if "funifaces" in emits:
            Path(f"{stem}.funifaces.txt").write_text(
                funiface_manifest(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
