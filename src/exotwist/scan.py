"""Range scans: certify every triple in a box and emit a table.

Triples are enumerated in lexicographic order; rows are emitted for
route != NONE unless emit_all is set.  Three modes, those of certify.MODES:

  theorem1  pairs 3 <= q < r (p = 2 implied), quarter-genus route only
  theorem2  triples 2 <= p < q < r, embedding route only
  all       triples 2 <= p < q < r, full dispatch

Every row is decided by certify's one path: certify.route_of skips NONE
triples before anything is counted, and certify.verdict checks each
emitted row against its route, running direct_checks on p = 2 rows (a row
routed DIRECT whose ledger does not flip aborts the scan).  CSV and text
rows lay out certify.csv_fields with the verdict's failed names and d3
reduced from its numerator over 4, building no per-row object; JSON rows
and scan_certificates build a certificate with certify.certificate.

A task is one (p, q) pair.  A pairwise-coprime row (every row a scan
without --all emits) is not counted: its sigma comes from Dedekind sums
(milnor.memoised_dedekind_sigma) and is checked on every row against the
resolution graph (milnor.resolution_sigma), and a disagreement aborts the
scan; then b+ = (mu + sigma)/2 and the nullity is 0.  Any other row (only
with --all) takes b+ and the nullity from the cache or, for the rows the
cache lacks, from one batched milnor.offsets_count call over one
milnor.positive_offsets array, with the nullity checked against
Milnor-Orlik.  A batch also recounts the task's first pairwise-coprime row,
if it has one, and compares that count with the closed-form sigma, as a
spot check of the kernel.  A task with nothing to count never calls the
kernel, so a scan without --all never imports numpy.
milnor.checked_inertia derives mu, b- and sigma of every row.

The cache holds the counted rows and the Seifert signatures.  Pairwise-
coprime rows neither read nor write it: recomputing them is cheaper than a
lookup.  The closed forms' memos live as long as the scan: _run empties
them when it ends, also on an error.

stream_scan hands each task's rendered rows to a writer as soon as the task
is done, in task order, so the scan holds one task's rows at a time (the
CSV and text header goes with the first task).  Workers, at most one per
CPU, run the tasks under Pool.imap, so output is byte-identical for any
jobs count; an error in a task or in the writer ends the pool.  A Seifert
matrix cross-checks sigma on every coprime p = 2 row with 2g <= 240 (by
default); any disagreement aborts the scan.  A (2, q) task takes the Seifert
signatures the cache lacks from one torus_knot.seifert_signatures call (one
elimination, for its largest r) and compares them row by row.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from .arith import Triple
from .cache import InvariantCache
from .certify import (CSV_HEADER, CSV_ROW, MODES, ROUTE_NONE, Certificate, certificate,
                      csv_fields, route_of, verdict)
from .errors import ConsistencyError, PreconditionError
from .milnor import (MilnorInvariants, _link_b1, checked_inertia, clear_memos, d3_text,
                     from_counts, memoised_dedekind_sigma, offsets_count, positive_offsets,
                     resolution_sigma)
from .torus_knot import seifert_signatures

__all__ = ["MODES", "FORMATS", "SEIFERT_CHECK_LIMIT", "ScanConfig", "run_scan",
           "stream_scan", "scan_certificates"]

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


def _row(p: int, q: int, r: int, route: str, inertia: tuple, _inv) -> str:
    """The CSV or text row of a triple, from its inertia and its verdict."""
    cfg = _CFG
    mu, b_plus, b_minus, _, sigma = inertia
    _, failed, eigen, _ = verdict(p, q, r, b_plus, cfg.mode, route)
    fields = csv_fields(p, q, r, route, mu, sigma, b_plus, b_minus, d3_text(sigma, b_plus),
                        eigen, failed)
    if cfg.format == "csv":
        return CSV_ROW % fields
    return _TEXT_FMT.format(*fields).rstrip()


def _certificate(p: int, q: int, r: int, _route: str, inertia: tuple,
                 inv: MilnorInvariants | None) -> Certificate:
    if inv is None:
        inv = from_counts(p, q, r, inertia[1], inertia[3])
    return certificate(Triple(p, q, r), inv, _CFG.mode)


def _header(fmt: str) -> str:
    if fmt != "text":
        return CSV_HEADER + "\n" if fmt == "csv" else ""
    columns = CSV_HEADER.replace("eigenspace_dim", "dim").split(",")
    return _TEXT_FMT.format(*columns).rstrip() + "\n"


def _counted(p: int, q: int, r: int, b_plus: int, nullity: int, source: str) -> tuple:
    """checked_inertia of a counted or cached row, its nullity checked
    against Milnor-Orlik."""
    expected = _link_b1(p, q, r)
    if nullity != expected:
        raise ConsistencyError(
            f"nullity of ({p}, {q}, {r}) disagrees between {source} ({nullity}) and "
            f"Milnor-Orlik ({expected})"
        )
    return checked_inertia(p, q, r, b_plus, nullity)


def _task(task: tuple[int, int], build: Callable) -> list:
    """build(p, q, r, route, inertia, inv) for each triple the task emits,
    where inertia is checked_inertia's (mu, b+, b-, nullity, sigma), and inv
    the row's invariant record where the task built one for the cache, else
    None.  Pairwise-coprime rows take sigma from the closed forms, the
    others their counts from the cache or from one batched count."""
    cfg = _CFG
    assert cfg is not None
    p, q = task
    emitted = []
    for r in range(q + 1, cfg.r_max + 1):
        route = route_of(p, q, r, cfg.mode)
        if route != ROUTE_NONE or cfg.emit_all:
            emitted.append((r, route))
    coprime = math.gcd(p, q) == 1
    inertia = {}  # r: (mu, b+, b-, nullity, sigma)
    spot = []  # the first pairwise-coprime r, recounted if the task counts
    missing = []  # the other r the cache lacks
    for r, _ in emitted:
        if coprime and math.gcd(p * q, r) == 1:
            sigma = memoised_dedekind_sigma(p, q, r)
            check = resolution_sigma(p, q, r)
            if check != sigma:
                raise ConsistencyError(
                    f"sigma of ({p},{q},{r}) disagrees: {sigma} (Dedekind sums) vs "
                    f"{check} (resolution graph)"
                )
            mu = (p - 1) * (q - 1) * (r - 1)
            # equal sigmas make mu + sigma = 4 p_g
            inertia[r] = checked_inertia(p, q, r, (mu + sigma) // 2, 0)
            spot = spot or [r]
            continue
        cached = _CACHE.lookup(p, q, r) if _CACHE is not None else None
        if cached is None:
            missing.append(r)
        else:
            inertia[r] = _counted(p, q, r, cached.sigma_plus, cached.nullity, "cache")
    if missing:
        b_plus, nullity = offsets_count(p, q, missing + spot, positive_offsets(p, q))
        for r, b, n in zip(missing + spot, b_plus, nullity):
            counted = _counted(p, q, r, b, n, "count")
            if r not in inertia:
                inertia[r] = counted
            elif counted[4] != inertia[r][4]:
                raise ConsistencyError(
                    f"sigma of ({p},{q},{r}) disagrees: {counted[4]} (count) vs "
                    f"{inertia[r][4]} (Dedekind sums)"
                )
    seifert = {}  # r: sigma(T(q,r)) by Seifert for each row checked, None if not cached
    if p == 2:
        for r, _ in emitted:
            if math.gcd(q, r) == 1 and ((q - 1) * (r - 1) <= SEIFERT_CHECK_LIMIT
                                        or cfg.force_seifert_check):
                seifert[r] = _CACHE.lookup_signature(q, r, "seifert") if _CACHE else None
    fresh = {r for r, sig in seifert.items() if sig is None}
    if fresh:  # one elimination serves every row of the task
        seifert.update(seifert_signatures(q, fresh, dim_limit=(q - 1) * (max(fresh) - 1)))
    stored = set(missing) if _CACHE_WRITES else ()
    out = []
    for r, route in emitted:
        row = inertia[r]
        inv = None
        if r in stored:
            inv = from_counts(p, q, r, row[1], row[3])
            _CACHE.store(p, q, r, inv)
        out.append(build(p, q, r, route, row, inv))
        if r in seifert:
            if seifert[r] != row[4]:
                source = "Dedekind sums" if coprime and math.gcd(p * q, r) == 1 else "count"
                raise ConsistencyError(
                    f"sigma(T({q},{r})) disagrees: {seifert[r]} (Seifert) vs "
                    f"{row[4]} ({source})"
                )
            if r in fresh and _CACHE_WRITES:
                _CACHE.store_signature(q, r, sig_count=row[4], sig_seifert=seifert[r])
    return out


def _task_certificates(task: tuple[int, int]) -> list[Certificate]:
    return _task(task, _certificate)


def _task_json(task: tuple[int, int]) -> str:
    return "".join(cert.to_json() + "\n" for cert in _task_certificates(task))


def _task_rows(task: tuple[int, int]) -> str:
    return "".join(row + "\n" for row in _task(task, _row))


def _tasks(cfg: ScanConfig) -> list[tuple[int, int]]:
    if cfg.mode == "theorem1":
        return [(2, q) for q in range(3, cfg.q_max + 1)]
    p_cap = cfg.p_max if cfg.p_max is not None else cfg.r_max
    return [(p, q) for p in range(2, p_cap + 1) for q in range(p + 1, cfg.q_max + 1)]


def _run(cfg: ScanConfig, worker: Callable, emit: Callable) -> None:
    """emit(worker(task)) for every task, in task order.

    An exception from a task or from emit ends the pool (terminating and
    joining its workers) before it propagates."""
    global _CFG, _CACHE, _CACHE_WRITES
    cache = InvariantCache(cfg.cache_path) if cfg.cache_path else None
    tasks = _tasks(cfg)
    jobs = min(cfg.jobs, os.cpu_count() or 1, len(tasks))
    _CFG, _CACHE = cfg, cache
    try:
        if jobs <= 1:
            # A scan asked for more jobs leaves the cache unchanged even
            # when it runs serially.
            _CACHE_WRITES = cache is not None and cfg.jobs == 1
            for out in map(worker, tasks):
                emit(out)
        else:
            import multiprocessing  # here, so a serial scan or certify never loads it
            # Workers inherit _CACHE as a read-only snapshot under fork; the
            # parent does not write back rows it never computed.
            _CACHE_WRITES = False
            chunksize = max(1, len(tasks) // (jobs * 8))
            with multiprocessing.Pool(
                jobs, initializer=_init_worker, initargs=(cfg,)
            ) as pool:
                for out in pool.imap(worker, tasks, chunksize=chunksize):
                    emit(out)
        if cache is not None:
            cache.flush()
    finally:
        _CFG, _CACHE, _CACHE_WRITES = None, None, False
        clear_memos()


def scan_certificates(config: ScanConfig) -> list[Certificate]:
    """The scan as a list of certificates, in emission order."""
    certs: list[Certificate] = []
    _run(config, _task_certificates, certs.extend)
    return certs


def stream_scan(config: ScanConfig, write: Callable[[str], object]) -> None:
    """Run the scan and pass the rendered table to write, one task's rows at
    a time, in task order.

    The CSV and text header goes out with the first task's rows, so a scan
    that fails in its first task writes nothing.
    """
    worker = _task_json if config.format == "json" else _task_rows
    header = _header(config.format)

    def emit(rows: str) -> None:
        nonlocal header
        write(header + rows)
        header = ""

    _run(config, worker, emit)
    if header:
        write(header)


def run_scan(config: ScanConfig) -> str:
    """Run the scan and render the emitted rows in the configured format.

    CSV and text include a header line even when no triple certifies; JSON
    output is one certificate object per line.
    """
    parts: list[str] = []
    stream_scan(config, parts.append)
    return "".join(parts)
