#!/usr/bin/env python3
"""Write bench/reference.json: the expected outputs the benchmark checks.

    python3 bench/make_reference.py

reference.json was written by this script at the seed commit and is the
benchmark's definition of a correct output.  Running it again records
whatever the current code prints, so do so only when a change to the output
is intended and reviewed.

It holds:
  scans         sha256, row count and byte count of the stdout of each scan
                the benchmark and its self-test run, keyed by ScanSpec.key
  certify_pool  four strata of 200 triples each (small, direct-shaped,
                embedding-shaped, none), sorted by the cost of their lattice
                count, with the route and the sha256 of certify().to_json()
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import selftest  # noqa: E402

POOL_SIZE = 200


def _pairwise_coprime(p: int, q: int, r: int) -> bool:
    return math.gcd(p, q) == math.gcd(q, r) == math.gcd(p, r) == 1


def _draw(rng: random.Random, make, keep) -> list[tuple[int, int, int]]:
    found: set[tuple[int, int, int]] = set()
    while len(found) < POOL_SIZE:
        t = make(rng)
        if keep(*t):
            found.add(t)
    return sorted(found)


def _increasing(rng: random.Random, lo: int, hi: int) -> tuple[int, int, int]:
    p, q, r = sorted(rng.sample(range(lo, hi + 1), 3))
    return p, q, r


def _direct_shaped(rng: random.Random) -> tuple[int, int, int]:
    q, r = sorted(rng.sample(range(3, 2002, 2), 2))
    return 2, q, r


def certify_pool() -> dict[str, list[dict]]:
    rng = random.Random(2410)
    strata = {
        "small": _draw(rng, lambda g: tuple(sorted(g.randint(2, 20) for _ in range(3))),
                       lambda p, q, r: True),
        "direct": _draw(rng, _direct_shaped, lambda p, q, r: math.gcd(q, r) == 1),
        "embedding": _draw(rng, lambda g: _increasing(g, 2, 200),
                           lambda p, q, r: r >= 7 and _pairwise_coprime(p, q, r)),
        "none": _draw(rng, lambda g: _increasing(g, 3, 200),
                      lambda p, q, r: not _pairwise_coprime(p, q, r)),
    }
    modules = run.load_program()
    certify = modules["exotwist.certify"].certify
    Triple = modules["exotwist.arith"].Triple
    pool = {}
    for name, triples in strata.items():
        # The lattice count over the two smallest exponents dominates the cost.
        triples.sort(key=lambda t: (sorted(t)[0] * sorted(t)[1], t))
        entries = []
        for t in triples:
            cert = certify(Triple(*t))
            entries.append({"triple": list(t), "route": cert.route,
                            "json_sha256": run.sha256(cert.to_json().encode())})
        pool[name] = entries
    return pool


def scans() -> dict[str, dict]:
    specs = [*run.WORKLOADS.values(), *selftest.TINY_WORKLOADS.values(), selftest.ROADMAP_PIN]
    out = {}
    for spec in specs:
        if not isinstance(spec, run.ScanSpec) or spec.key in out:
            continue
        proc = run.run_cli(spec.cli_args(jobs=1))
        if run.proc_error(proc) is not None:
            raise SystemExit(f"scan {spec.key} failed: {run.proc_error(proc)}")
        out[spec.key] = {
            "sha256": run.sha256(proc.stdout),
            "rows": len(run.scan_rows(proc.stdout, spec.format)),
            "bytes": len(proc.stdout),
        }
        print(f"{spec.key}: {out[spec.key]} in {proc.wall_s:.1f} s", file=sys.stderr)
    return out


def main() -> int:
    reference = {"scans": scans(), "certify_pool": certify_pool()}
    run.REFERENCE.write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
