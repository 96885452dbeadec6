"""Command-line front end.

Three verbs:

  certify    one triple; exit 0 when a route certifies, 1 on NONE, 2 on
             invalid input
  scan       every triple in a box, as csv/json/text rows written task by task
  signature  torus-knot signature by lattice count, Seifert matrix, or both
             (both cross-checks and fails loudly on disagreement; past the
             Seifert dimension cap it marks the Seifert line skipped)

Any verb exits 3 when two independent computations disagree
(ConsistencyError): that is a defect in the program, never a verdict; rows a
scan printed before the defect stand, but its table is incomplete.  A
lattice count too large to hold in memory (UnsupportedInputError) is
refused with one ``error:`` line and exit 2, as is a stdout closed by its
reader (``exotwist certify ... | head -1``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .arith import Triple
from .certify import CSV_HEADER, ROUTE_NONE, certify
from .errors import (ConsistencyError, DimensionLimitError, PreconditionError,
                     UnsupportedInputError)
from .scan import FORMATS, MODES, ScanConfig, stream_scan
from .torus_knot import DEFAULT_SEIFERT_DIM_LIMIT, knot_signature_count, knot_signature_seifert

__all__ = ["main"]


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    try:
        p, q, r = (int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"expected a triple of comma-separated integers, got {text!r}"
        ) from None
    return p, q, r


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exotwist",
        description="Certify exotic boundary Dehn twists on Brieskorn-Pham "
        "Milnor fibers M_c(p,q,r).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    cert = sub.add_parser("certify", help="certify a single exponent triple")
    cert.add_argument("--triple", required=True, metavar="p,q,r")
    cert.add_argument("--format", choices=FORMATS, default="text")

    scan = sub.add_parser("scan", help="certify every triple in a box")
    scan.add_argument("--mode", choices=MODES, default="all")
    scan.add_argument("--q-max", type=int, required=True, metavar="N")
    scan.add_argument("--r-max", type=int, required=True, metavar="N")
    scan.add_argument("--p-max", type=int, default=None, metavar="N")
    scan.add_argument(
        "--all", action="store_true", dest="emit_all",
        help="emit NONE rows too (default: only certified triples)",
    )
    scan.add_argument("--format", choices=FORMATS, default="text")
    scan.add_argument("--cache", default=None, metavar="PATH",
                      help="JSON-lines invariant cache file")
    scan.add_argument("--jobs", type=int, default=1, metavar="N")
    scan.add_argument(
        "--force-seifert-check", action="store_true",
        help="cross-check the Seifert route on every coprime p = 2 row, "
        "ignoring the size cutoff (slow)",
    )

    sig = sub.add_parser("signature", help="torus-knot signature")
    sig.add_argument("--torus", nargs=2, type=int, required=True, metavar=("q", "r"))
    sig.add_argument("--method", choices=("count", "seifert", "both"), default="both")
    return parser


def _run_certify(args, parser: argparse.ArgumentParser) -> int:
    try:
        triple = Triple(*_parse_triple(args.triple))
    except (ValueError, PreconditionError) as exc:
        parser.error(str(exc))
    cert = certify(triple)
    if args.format == "json":
        print(cert.to_json())
    elif args.format == "csv":
        print(CSV_HEADER)
        print(cert.to_csv_row())
    else:
        print(cert.to_text())
    return 0 if cert.route != ROUTE_NONE else 1


def _run_scan(args, parser: argparse.ArgumentParser) -> int:
    try:
        config = ScanConfig(
            q_max=args.q_max,
            r_max=args.r_max,
            p_max=args.p_max,
            mode=args.mode,
            format=args.format,
            cache_path=args.cache,
            jobs=args.jobs,
            emit_all=args.emit_all,
            force_seifert_check=args.force_seifert_check,
        )
    except PreconditionError as exc:
        parser.error(str(exc))
    try:
        stream_scan(config, sys.stdout.write)
    except BrokenPipeError:
        raise  # a closed stdout, handled in main
    except OSError as exc:
        print(f"error: scan I/O failed: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_signature(args, parser: argparse.ArgumentParser) -> int:
    q, r = args.torus
    by_count = by_seifert = None
    try:
        if args.method in ("count", "both"):
            by_count = knot_signature_count(q, r)
        if args.method in ("seifert", "both"):
            by_seifert = knot_signature_seifert(q, r)
    except PreconditionError as exc:
        parser.error(str(exc))
    except DimensionLimitError as exc:
        if args.method == "seifert":
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.method == "count":
        print(by_count)
    elif args.method == "seifert":
        print(by_seifert)
    else:
        print(f"count    {by_count}")
        if by_seifert is None:
            dim = (q - 1) * (r - 1)
            print(f"seifert  skipped (dimension {dim} > limit {DEFAULT_SEIFERT_DIM_LIMIT})")
            return 0
        print(f"seifert  {by_seifert}")
        if by_count != by_seifert:
            print(
                f"error: signature methods disagree on T({q},{r}): "
                f"{by_count} (count) vs {by_seifert} (seifert)",
                file=sys.stderr,
            )
            return 1
    return 0


def _silence_stdout() -> None:
    """Point the stdout descriptor at the null device, so the interpreter's
    final flush of what is still buffered meets no closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # a stdout without a descriptor flushes nowhere
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "certify":
            code = _run_certify(args, parser)
        elif args.verb == "scan":
            code = _run_scan(args, parser)
        else:
            code = _run_signature(args, parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _silence_stdout()
        return 2
    except ConsistencyError as exc:
        print(f"error: internal defect: {exc}", file=sys.stderr)
        return 3
    except UnsupportedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits on --help (0) and usage errors (2); fold both into
        # the return-code contract so callers never see the exception
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
