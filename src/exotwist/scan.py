"""Range scans: certify every triple in a box and emit a table.

Triples are enumerated in lexicographic order and certified one by one; rows
are emitted for route != NONE unless emit_all is set.  Three modes:

  theorem1  pairs 3 <= q < r (p = 2 implied), quarter-genus route only
  theorem2  triples 2 <= p < q < r, embedding route only
  all       triples 2 <= p < q < r, full dispatch

Triples whose route would be NONE are skipped before anything is counted,
by the predicates of certify's route tables.  The per-triple work is
dominated by the lattice count, so scans exploit the r-independence of the
offsets pq - iq - jp: one milnor.positive_offsets array per (p, q) pair
serves every r in the box.  Workers split the scan by (p, q) pair, at most
one per CPU; each returns rendered rows, and the parent concatenates them
in task order, so output is byte-identical for any jobs count.
Seifert-matrix signatures cross-check the count on every coprime p = 2 row
small enough (2g <= 240 by default) to stay inside the time budget; any
disagreement aborts the scan.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Iterable

from .arith import Triple
from .cache import InvariantCache
from .certify import (
    CSV_HEADER,
    ROUTE_DIRECT,
    ROUTE_EMBEDDING,
    ROUTE_NONE,
    Certificate,
    certify,
    certify_direct,
    certify_embedding,
    route_holds,
)
from .errors import ConsistencyError, PreconditionError
from .milnor import MilnorInvariants, from_counts, offsets_count, positive_offsets
from .torus_knot import knot_signature_seifert

__all__ = ["MODES", "FORMATS", "SEIFERT_CHECK_LIMIT", "ScanConfig", "run_scan",
           "scan_certificates"]

MODES = ("theorem1", "theorem2", "all")
FORMATS = ("json", "csv", "text")

# Largest 2g for which scans cross-check the Seifert route by default.
SEIFERT_CHECK_LIMIT = 240

_TEXT_FMT = "{:>5} {:>5} {:>5}  {:<9}  {:>12} {:>12} {:>10} {:>10}  {:>16}  {:>4}  {}"


@dataclass(frozen=True)
class ScanConfig:
    q_max: int
    r_max: int
    p_max: int | None = None
    mode: str = "all"
    format: str = "text"
    cache_path: str | None = None
    jobs: int = 1
    emit_all: bool = False
    force_seifert_check: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise PreconditionError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.format not in FORMATS:
            raise PreconditionError(f"format must be one of {FORMATS}, got {self.format!r}")
        bounds = [("q_max", self.q_max), ("r_max", self.r_max)]
        if self.p_max is not None:
            bounds.append(("p_max", self.p_max))
        for name, bound in bounds:
            if not isinstance(bound, int) or bound < 3:
                raise PreconditionError(f"{name} must be an integer >= 3, got {bound!r}")
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise PreconditionError(f"jobs must be an integer >= 1, got {self.jobs!r}")


def _route_decision(p: int, q: int, r: int, mode: str) -> str:
    """Route a certificate would get, from the route tables' predicates."""
    if mode != "theorem2" and route_holds(ROUTE_DIRECT, p, q, r):
        return ROUTE_DIRECT
    if mode != "theorem1" and route_holds(ROUTE_EMBEDDING, p, q, r):
        return ROUTE_EMBEDDING
    return ROUTE_NONE


def _certificate(p: int, q: int, r: int, inv: MilnorInvariants, mode: str) -> Certificate:
    if mode == "theorem1":
        return certify_direct(q, r, _inv=inv)
    if mode == "theorem2":
        return certify_embedding(p, q, r, _inv=inv)
    return certify(Triple(p, q, r), _inv=inv)


def _render_row(cert: Certificate, fmt: str) -> str:
    if fmt == "csv":
        return cert.to_csv_row()
    if fmt == "json":
        return cert.to_json()
    inv = cert.invariants
    eigen = "" if cert.eigenspace_dim is None else cert.eigenspace_dim
    failed = ";".join(c.name for c in cert.failed_conditions())
    return _TEXT_FMT.format(
        cert.triple.p, cert.triple.q, cert.triple.r, cert.route,
        inv.mu, inv.sigma, inv.sigma_plus, inv.sigma_minus,
        str(inv.d3), eigen, failed,
    ).rstrip()


def _table(rows: list[str], fmt: str) -> str:
    if fmt == "json":
        return "".join(row + "\n" for row in rows)
    if fmt == "csv":
        header = CSV_HEADER
    else:
        header = _TEXT_FMT.format(
            "p", "q", "r", "route", "mu", "sigma", "b_plus", "b_minus",
            "d3", "dim", "conditions_failed",
        ).rstrip()
    return "\n".join([header, *rows]) + "\n"


# Per-process scan state.  The parent sets these before forking (or via the
# pool initializer); workers treat the cache as a read-only snapshot and only
# the parent ever writes back.
_CFG: ScanConfig | None = None
_CACHE: InvariantCache | None = None
_CACHE_WRITES = False


def _init_worker(cfg: ScanConfig) -> None:
    global _CFG, _CACHE_WRITES
    _CFG = cfg
    _CACHE_WRITES = False


def _seifert_cross_check(q: int, r: int, inv: MilnorInvariants, cfg: ScanConfig) -> None:
    """Recompute sigma(T(q,r)) from a Seifert matrix and compare."""
    two_g = (q - 1) * (r - 1)
    if two_g > SEIFERT_CHECK_LIMIT and not cfg.force_seifert_check:
        return
    sig_count = inv.sigma
    sig_seifert = _CACHE.lookup_signature(q, r, "seifert") if _CACHE else None
    fresh = sig_seifert is None
    if sig_seifert is None:
        sig_seifert = knot_signature_seifert(q, r, dim_limit=two_g)
    if sig_seifert != sig_count:
        raise ConsistencyError(
            f"sigma(T({q},{r})) disagrees: {sig_seifert} (Seifert) vs "
            f"{sig_count} (count)"
        )
    if fresh and _CACHE is not None and _CACHE_WRITES:
        _CACHE.store_signature(q, r, sig_count=sig_count, sig_seifert=sig_seifert)


def _task_certificates(task: tuple[int, int]) -> list[Certificate]:
    cfg = _CFG
    assert cfg is not None
    p, q = task
    offsets = None
    certs = []
    for r in range(q + 1, cfg.r_max + 1):
        route = _route_decision(p, q, r, cfg.mode)
        if route == ROUTE_NONE and not cfg.emit_all:
            continue
        inv = _CACHE.lookup(p, q, r) if _CACHE is not None else None
        fresh = inv is None
        if inv is None:
            if offsets is None:
                offsets = positive_offsets(p, q)
            inv = from_counts(p, q, r, *offsets_count(p, q, r, offsets))
        cert = _certificate(p, q, r, inv, cfg.mode)
        if cert.route != route:
            raise ConsistencyError(
                f"route precheck {route} disagrees with certificate "
                f"{cert.route} for ({p},{q},{r})"
            )
        if p == 2 and math.gcd(q, r) == 1:
            _seifert_cross_check(q, r, inv, cfg)
        if fresh and _CACHE is not None and _CACHE_WRITES:
            _CACHE.store(p, q, r, inv)
        certs.append(cert)
    return certs


def _task_rows(task: tuple[int, int]) -> list[str]:
    assert _CFG is not None
    return [_render_row(cert, _CFG.format) for cert in _task_certificates(task)]


def _tasks(cfg: ScanConfig) -> list[tuple[int, int]]:
    if cfg.mode == "theorem1":
        return [(2, q) for q in range(3, cfg.q_max + 1)]
    p_cap = cfg.p_max if cfg.p_max is not None else cfg.r_max
    return [(p, q) for p in range(2, p_cap + 1) for q in range(p + 1, cfg.q_max + 1)]


def _run(cfg: ScanConfig, render: bool) -> list:
    global _CFG, _CACHE, _CACHE_WRITES
    cache = InvariantCache(cfg.cache_path) if cfg.cache_path else None
    tasks = _tasks(cfg)
    jobs = min(cfg.jobs, os.cpu_count() or 1, len(tasks))
    worker = _task_rows if render else _task_certificates
    _CFG, _CACHE = cfg, cache
    try:
        if jobs <= 1:
            # A scan asked for more jobs leaves the cache unchanged even
            # when it runs serially.
            _CACHE_WRITES = cache is not None and cfg.jobs == 1
            chunks: Iterable[list] = map(worker, tasks)
            out = [item for chunk in chunks for item in chunk]
        else:
            # Workers inherit _CACHE as a read-only snapshot under fork; the
            # parent does not write back rows it never computed.
            _CACHE_WRITES = False
            chunksize = max(1, len(tasks) // (jobs * 8))
            with multiprocessing.Pool(
                jobs, initializer=_init_worker, initargs=(cfg,)
            ) as pool:
                out = [
                    item
                    for chunk in pool.imap(worker, tasks, chunksize=chunksize)
                    for item in chunk
                ]
        if cache is not None:
            cache.flush()
    finally:
        _CFG, _CACHE, _CACHE_WRITES = None, None, False
    return out


def scan_certificates(config: ScanConfig) -> list[Certificate]:
    """The scan as a list of certificates, in emission order."""
    return _run(config, render=False)


def run_scan(config: ScanConfig) -> str:
    """Run the scan and render the emitted rows in the configured format.

    CSV and text include a header line even when no triple certifies; JSON
    output is one certificate object per line.
    """
    return _table(_run(config, render=True), config.format)
