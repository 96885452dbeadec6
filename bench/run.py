#!/usr/bin/env python3
"""Benchmark harness for exotwist.

Run from the repository root:

    python3 bench/run.py --workload box_certified --seed 1 --seconds 18 --trace 0

Workloads (inputs in WORKLOADS below):

  box_certified  the default user scan: certified rows of a box, CSV, jobs 1
  box_all_json   an --all scan as JSON; Seifert cross-checks dominate
  rescan_cached  box_certified again at --jobs 2, reading a warm --cache file
                 that set-up writes with a cold jobs-1 scan
  certify_calls  library certify() on a seeded triple list, alternating with
                 cold ``exotwist certify`` processes

Every workload runs the CLI as ``python -m exotwist.cli`` with the checkout's
``src`` on PYTHONPATH, and calls the library ``certify()``: on certify_calls
over the seeded list, on the scan workloads over a seeded sample of the rows
the scan printed, for a few seconds after each scan and never while a scan
runs.  A timing is the best of the run's repetitions: the fastest CLI
process, and for each library call the fastest of its passes, which go
round the CPUs in turn.  The shared host's slow spells last seconds to
minutes and only ever add time.
Each scan's stdout is compared by sha256 with the seed commit's output
(bench/reference.json), each library certificate with the scan row it
renders or the seed-made JSON, and each CLI certify with the seed-made JSON
and exit code.  A mismatch, an unexpected exit code or a traceback counts as
a failed operation.

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
runs the workload's scan in-process through run_scan() at jobs 1 (certify_calls:
one pass over the triple list), once plain and once with the span wrappers of
spans.py, and reports the per-layer metrics; rescan_cached also times a plain
in-process run at its own jobs count for the pool efficiency.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Scratch files, span dumps and a result file stamped with the
environment go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

END_TO_END = {
    "setup_s": "s",
    "cli_wall_s": "s",
    "cli_cpu_s": "s",
    "cli_rss_mib": "MiB",
    "certify_p50_ms": "ms",
    "certify_p99_ms": "ms",
}

PER_LAYER = {
    "scan.self_s": "s",
    "scan.rows": "count",
    "scan.tasks": "count",
    "scan.pool_efficiency": "ratio",
    "milnor.self_s": "s",
    "milnor.brieskorn_count_s": "s",
    "milnor.brieskorn_count_calls": "count",
    "milnor.from_counts_s": "s",
    "certify.self_s": "s",
    "certify.build_s": "s",
    "certify.calls": "count",
    "certify.render_s": "s",
    "certify.render_bytes": "bytes",
    "ko_ring.self_s": "s",
    "ko_ring.ledger_calls": "count",
    "torus_knot.self_s": "s",
    "torus_knot.seifert_s": "s",
    "torus_knot.seifert_calls": "count",
    "torus_knot.seifert_max_dim": "count",
    "torus_knot.seifert_skipped": "count",
    "cache.self_s": "s",
    "cache.load_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.stores": "count",
    "cache.flush_s": "s",
    "cache.file_mib": "MiB",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counters that must repeat exactly between traced runs of the same source.
EXACT_COUNTERS = (
    "scan.rows",
    "torus_knot.seifert_calls",
    "milnor.brieskorn_count_calls",
    "cache.lookups",
    "cache.hit_ratio",
)

LAYERS = ("scan", "certify", "milnor", "torus_knot", "ko_ring", "cache")
SET_UP_REPEATS = 5
IMPORT_PROBES = 5
# Scan rows certified by the library after each scan of a scan workload,
# in passes repeated for ScanSpec.library_s seconds (at least one pass).  A
# call's latency is the best of its passes (see best_latencies); in a slow
# spell the best settles only after 15-25 passes, so a run makes 12 to 45.
LIBRARY_ROWS = 200
# A scan workload runs at least this many scans, however long they take, so
# that a slow spell of the host cannot leave a run with a single sample.
MIN_SCANS = 2


@dataclass(frozen=True)
class ScanSpec:
    """A ``scan --mode all`` over the box q, r <= q_max, r_max."""

    q_max: int
    r_max: int
    format: str
    emit_all: bool = False
    jobs: int = 1
    cached: bool = False
    library_s: float = 4.0

    @property
    def key(self) -> str:
        """The arguments that define the output; the reference is kept under it."""
        args = f"--mode all --q-max {self.q_max} --r-max {self.r_max}"
        return args + (" --all" if self.emit_all else "") + f" --format {self.format}"

    def cli_args(self, cache: Path | None = None, jobs: int | None = None) -> list[str]:
        args = ["scan", *self.key.split(), "--jobs", str(jobs or self.jobs)]
        return args + (["--cache", str(cache)] if cache is not None else [])

    def config(self, cache: Path | None, jobs: int):
        return sys.modules["exotwist.scan"].ScanConfig(
            q_max=self.q_max, r_max=self.r_max, mode="all", format=self.format,
            cache_path=None if cache is None else str(cache), jobs=jobs,
            emit_all=self.emit_all,
        )


@dataclass(frozen=True)
class CertifySpec:
    """``per_stratum`` triples from each stratum of the reference pool."""

    per_stratum: int = 50


WORKLOADS = {
    # The box stays above 121: past it the Seifert budget (2g <= 240) adds no
    # checks, so the 97 checks are a fixed cost and a larger box only adds
    # count, certificate and d3 work.  122 keeps a run short.
    "box_certified": ScanSpec(q_max=122, r_max=122, format="csv"),
    # Every triple of a 30-box: NONE and nonzero-nullity rows through the
    # certificate and JSON rendering path, and 141 Seifert checks that take
    # most of the run.
    # Its rows are cheap: a second after each scan makes some 20 passes.
    "box_all_json": ScanSpec(q_max=30, r_max=30, format="json", emit_all=True, library_s=1.0),
    # Shorter library phases than box_certified's, after each of more scans
    # and after the set-up's cold scan.
    "rescan_cached": ScanSpec(q_max=122, r_max=122, format="csv", jobs=2, cached=True,
                              library_s=1.5),
    "certify_calls": CertifySpec(per_stratum=50),
}


# -- program under test ------------------------------------------------------


def load_program():
    """Import exotwist from this checkout's src/ and from nowhere else."""
    if not (SRC / "exotwist" / "__init__.py").is_file():
        raise SystemExit(f"error: no exotwist package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import exotwist
    import exotwist.cli  # noqa: F401  (the CLI module set-up imports too)

    if Path(exotwist.__file__).resolve().parent != SRC / "exotwist":
        raise SystemExit(f"error: imported exotwist from {exotwist.__file__}, not {SRC}")
    return sys.modules


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: bytes
    stderr: str


# The measured process is started by this small interpreter, not by the
# harness: Linux counts the RSS of the process a child was spawned from into
# the child's peak RSS, and the harness itself holds tens of MiB.  The
# spawner reports wall time, CPU and peak RSS (wait4, so pool workers the
# child reaped are included) as JSON on the file descriptor in argv[1].
_SPAWNER = """
import json, os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ)
_, status, ru = os.wait4(pid, 0)
wall = time.perf_counter() - t0
report = {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
          "cpu_s": ru.ru_utime + ru.ru_stime, "rss_mib": ru.ru_maxrss / 1024}
os.write(int(sys.argv[1]), json.dumps(report).encode())
"""


def run_python(argv: list[str]) -> Proc:
    """Run ``python <argv>`` against src/ and measure it from spawn to exit."""
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    report_r, report_w = os.pipe()
    with open(OUT / f"stderr-{os.getpid()}.txt", "w+b") as err, \
            os.fdopen(report_r, "rb") as report:
        try:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", _SPAWNER, str(report_w), *argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=env,
                cwd=ROOT, pass_fds=(report_w,), start_new_session=True,
            )
        finally:
            os.close(report_w)
        try:
            out = proc.stdout.read()
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        measured = report.read()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    if not measured:
        return Proc(code=-1, wall_s=0.0, cpu_s=0.0, rss_mib=0.0, stdout=out,
                    stderr=f"spawner exited with {proc.returncode}: {stderr}")
    return Proc(stdout=out, stderr=stderr, **json.loads(measured))


def run_cli(args: list[str]) -> Proc:
    return run_python(["-m", "exotwist.cli", *args])


# -- inputs -------------------------------------------------------------------


def spread_sample(items: list, n: int, rng: random.Random) -> list:
    """One item from each of n equal slices of items, at a seeded offset.

    Every seed gets the same mix of sizes, so latency percentiles do not
    depend on which seed drew the sample.
    """
    width = len(items) / n
    return [items[min(len(items) - 1, int((i + rng.random()) * width))] for i in range(n)]


def certify_inputs(spec: CertifySpec, seed: int, ref: dict) -> list[dict]:
    rng = random.Random(seed)
    chosen = []
    for pool in ref["certify_pool"].values():
        pool = sorted(pool, key=lambda entry: cost_order(tuple(entry["triple"])))
        chosen += spread_sample(pool, spec.per_stratum, rng)
    rng.shuffle(chosen)
    return chosen


def cost_order(triple: tuple[int, int, int]) -> tuple:
    """A sort key: certify()'s cost, estimated from the triple alone.

    The lattice count over the two smallest exponents a <= b dominates; it
    has (a-1)(b-1) terms, counted in Python below 4096 terms and in numpy
    from there on, where a term costs about a hundredth as much.  Direct-
    route triples (2, odd q, odd r, coprime) count twice.  Near the median
    the estimate is within a few percent of a fixed multiple of the measured
    latency, so a spread sample in this order holds about one triple of
    each latency slice, and its percentiles hardly depend on the seed that
    drew it.  The order is fixed here, not measured, so the same seed draws
    the same triples whatever the program's speed.
    """
    p, q, r = triple
    a, b = sorted(triple)[:2]
    terms = (a - 1) * (b - 1)
    direct = p == 2 and q % 2 == 1 and r % 2 == 1 and q >= 3 and math.gcd(q, r) == 1
    ms = 0.2 + 2.5e-5 * terms if terms >= 4096 else 0.05 + 2.5e-3 * terms
    return (2 * ms if direct else ms), triple


def library_sample(out: bytes, fmt: str, seed: int) -> list[tuple[tuple[int, int, int], str]]:
    """LIBRARY_ROWS (triple, rendered row) pairs of a scan's output, spread
    over the rows in cost order."""
    rows = sorted(scan_rows(out, fmt), key=lambda row: cost_order(row[0]))
    return spread_sample(rows, min(LIBRARY_ROWS, len(rows)), random.Random(seed))


def prepare(spec, seed: int):
    """The benchmark's set-up: import the program, load the reference, and
    make the seeded inputs.  A scan workload's library sample is drawn from
    the output of its first scan."""
    load_program()
    ref = load_reference()
    if isinstance(spec, CertifySpec):
        return ref, certify_inputs(spec, seed, ref)
    if spec.key not in ref["scans"]:
        raise SystemExit(f"error: no reference output for scan {spec.key}")
    return ref, None


_SET_UP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.prepare(run.spec_from_json(sys.argv[2]), int(sys.argv[3]))"
)


def spec_to_json(spec) -> str:
    return json.dumps({"kind": type(spec).__name__, **asdict(spec)})


def spec_from_json(text: str):
    fields = json.loads(text)
    kind = {"ScanSpec": ScanSpec, "CertifySpec": CertifySpec}[fields.pop("kind")]
    return kind(**fields)


# -- checks -------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)


def proc_error(proc: Proc, allowed_codes: tuple[int, ...] = (0,)) -> str | None:
    if proc.code not in allowed_codes:
        return f"exit code {proc.code}: {proc.stderr.strip()[-300:]}"
    if "Traceback" in proc.stderr:
        return f"traceback on stderr: {proc.stderr.strip()[-300:]}"
    return None


def output_error(out: bytes, expected: dict) -> str | None:
    digest = sha256(out)
    if digest != expected["sha256"]:
        return f"output sha256 {digest[:16]} != seed {expected['sha256'][:16]}"
    return None


def scan_rows(out: bytes, fmt: str) -> list[tuple[tuple[int, int, int], str]]:
    """(triple, rendered row) for each row of a scan's output."""
    lines = out.decode().splitlines()
    if fmt == "json":
        rows = []
        for line in lines:
            t = json.loads(line)["triple"]
            rows.append(((t["p"], t["q"], t["r"]), line))
        return rows
    return [(tuple(int(x) for x in line.split(",", 3)[:3]), line) for line in lines[1:]]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


# -- measurement --------------------------------------------------------------


@dataclass
class Result:
    tally: Tally
    metrics: dict[str, float]
    units: dict[str, str]
    samples: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        })


def set_up_seconds(spec, seed: int, tally: Tally) -> float:
    """Median wall time of fresh interpreters doing the set-up of prepare()."""
    argv = ["-c", _SET_UP_PROBE, str(Path(__file__).resolve().parent), spec_to_json(spec), str(seed)]
    walls = []
    for _ in range(SET_UP_REPEATS):
        proc = run_python(argv)
        tally.record(proc_error(proc))
        walls.append(proc.wall_s)
    return statistics.median(walls)


class CacheFiles:
    """The set-up cache and the private, hash-checked copy each scan reads."""

    def __init__(self, tag: str) -> None:
        self.cold = OUT / f"cache-{tag}-{os.getpid()}.jsonl"
        self.copy_path = OUT / f"cache-{tag}-{os.getpid()}-copy.jsonl"
        self.sha = ""
        self.cold.unlink(missing_ok=True)

    def sealed(self) -> None:
        self.sha = file_sha256(self.cold)

    def private_copy(self) -> Path:
        shutil.copyfile(self.cold, self.copy_path)
        if file_sha256(self.copy_path) != self.sha:
            raise RuntimeError(f"cache copy {self.copy_path} differs from the set-up cache")
        return self.copy_path

    def remove(self) -> None:
        self.cold.unlink(missing_ok=True)
        self.copy_path.unlink(missing_ok=True)


def cold_cache_scan(spec: ScanSpec, expected: dict, cache: CacheFiles, tally: Tally) -> Proc:
    """Write the warm cache with a cold jobs-1 scan."""
    proc = run_cli(spec.cli_args(cache=cache.cold, jobs=1))
    tally.record(proc_error(proc) or output_error(proc.stdout, expected))
    cache.sealed()
    return proc


@contextmanager
def pinned(cpu: int):
    """Run the block on one CPU, then give the process back its CPU set
    (before it spawns a child, which would inherit the pin)."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def library_certify(triples, pass_no: int = 0) -> tuple[list[float], list]:
    """Library certify() on each triple, on the CPU for pass number
    pass_no (see best_latencies); returns the latencies and the
    certificates.

    A call is timed by the CPU time of the calling thread: a shared host can
    deschedule a VM for seconds at a time, which doubles wall-clock
    percentiles of single calls without the program doing more work.
    """
    certify = sys.modules["exotwist.certify"].certify
    Triple = sys.modules["exotwist.arith"].Triple
    clock = time.thread_time
    cpus = sorted(os.sched_getaffinity(0))
    latencies, certs = [], []
    with pinned(cpus[pass_no % len(cpus)]):
        for triple in triples:
            t0 = clock()
            cert = certify(Triple(*triple))
            latencies.append(clock() - t0)
            certs.append(cert)
    return latencies, certs


def row_error(cert, fmt: str, row: str) -> str | None:
    got = cert.to_json() if fmt == "json" else cert.to_csv_row()
    if got != row:
        return f"library certify{astuple(cert.triple)} differs from the scan row"
    return None


def entry_error(cert, entry: dict) -> str | None:
    if sha256(cert.to_json().encode()) != entry["json_sha256"]:
        return f"certify{tuple(entry['triple'])} differs from the seed certificate"
    return None


def best_latencies(best: list[float] | None, latencies: list[float]) -> list[float]:
    """Each call's lowest latency over the passes so far.

    On a shared 2-core VM the same code runs at speeds up to 2x apart, in
    spells of a second to several minutes, and thread CPU time slows with
    it (a fixed Python loop reads 26 ms in one spell and 37 ms in the
    next).  One core can stay slower than the other for tens of seconds,
    and the scheduler keeps a single-threaded process on one core, so
    successive passes run on the process's CPUs in turn.  A percentile over
    single calls would follow the share of slow spells in the run; the best
    of a call's passes, taken on every core and at different moments,
    varies far less from run to run.  The percentiles are taken over the
    calls' best times.
    """
    return latencies if best is None else [min(a, b) for a, b in zip(best, latencies)]


def certify_rows(sample, fmt: str, tally: Tally, pass_no: int) -> list[float]:
    """One timed pass of library certify() over scan rows, then the checks."""
    latencies, certs = library_certify([triple for triple, _ in sample], pass_no)
    for cert, (_, row) in zip(certs, sample):
        tally.record(row_error(cert, fmt, row))
    return latencies


def certify_entries(entries, tally: Tally, pass_no: int) -> list[float]:
    """One timed pass of library certify() over certify_pool entries, then
    the checks."""
    latencies, certs = library_certify([tuple(e["triple"]) for e in entries], pass_no)
    for cert, entry in zip(certs, entries):
        tally.record(entry_error(cert, entry))
    return latencies


def measure_scan(spec: ScanSpec, seed: int, seconds: float, ref: dict) -> Result:
    expected = ref["scans"][spec.key]
    tally = Tally()
    setup = set_up_seconds(spec, seed, tally)
    cache = CacheFiles("scan") if spec.cached else None
    walls, cpus, rsss = [], [], []
    latencies = None
    passes = 0
    sample = None

    def library_phase(out: bytes) -> None:
        """Library passes after a scan, over a sample of the first scan's rows."""
        nonlocal latencies, passes, sample
        if sample is None:
            sample = library_sample(out, spec.format, seed)
        phase_end = time.perf_counter() + spec.library_s
        while True:
            latencies = best_latencies(latencies, certify_rows(sample, spec.format, tally, passes))
            passes += 1
            if time.perf_counter() >= phase_end:
                return

    try:
        if cache is not None:
            cold = cold_cache_scan(spec, expected, cache, tally)
            setup += cold.wall_s
            # The set-up's scan is followed by library passes too, so they
            # start earlier in the run.
            library_phase(cold.stdout)
        start = time.perf_counter()
        while len(walls) < MIN_SCANS or time.perf_counter() - start < seconds:
            proc = run_cli(spec.cli_args(cache=cache.private_copy() if cache else None))
            error = proc_error(proc) or output_error(proc.stdout, expected)
            if cache is not None and error is None and file_sha256(cache.copy_path) != cache.sha:
                error = "scan modified the cache file it read"
            tally.record(error)
            walls.append(proc.wall_s)
            cpus.append(proc.cpu_s)
            rsss.append(proc.rss_mib)
            library_phase(proc.stdout)
    finally:
        if cache is not None:
            cache.remove()
    return Result(
        tally=tally,
        metrics=end_to_end(setup, walls, cpus, rsss, latencies),
        units=END_TO_END,
        samples={"cli_wall_s": walls, "cli_cpu_s": cpus, "cli_rss_mib": rsss},
        notes=[f"{len(walls)} scans, {passes} library passes over {len(latencies)} rows"],
    )


def measure_certify(spec: CertifySpec, seed: int, seconds: float, entries) -> Result:
    tally = Tally()
    setup = set_up_seconds(spec, seed, tally)
    latencies = None
    walls, cpus, rsss = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        latencies = best_latencies(latencies, certify_entries(entries, tally, len(walls)))
        entry = entries[len(walls) % len(entries)]
        proc = run_cli(["certify", "--triple", ",".join(map(str, entry["triple"])), "--format", "json"])
        code = 1 if entry["route"] == "NONE" else 0
        error = proc_error(proc, allowed_codes=(code,))
        if error is None and sha256(proc.stdout.rstrip(b"\n")) != entry["json_sha256"]:
            error = f"CLI certify {entry['triple']} differs from the seed certificate"
        tally.record(error)
        walls.append(proc.wall_s)
        cpus.append(proc.cpu_s)
        rsss.append(proc.rss_mib)
    return Result(
        tally=tally,
        metrics=end_to_end(setup, walls, cpus, rsss, latencies),
        units=END_TO_END,
        samples={"cli_wall_s": walls, "cli_cpu_s": cpus, "cli_rss_mib": rsss},
        notes=[f"{len(walls)} CLI certify processes, {len(walls)} library passes over "
               f"{len(latencies)} triples"],
    )


def end_to_end(setup, walls, cpus, rsss, latencies) -> dict[str, float]:
    """The run's end-to-end metrics.

    Times are the best the run saw, as for single library calls (see
    best_latencies): the host's slow spells, and spells in which a --jobs 2
    scan gets one core's worth of CPU, last as long as several scans and
    only ever add time.  Peak RSS does not depend on them; it is the median.
    """
    return {
        "setup_s": setup,
        "cli_wall_s": min(walls),
        "cli_cpu_s": min(cpus),
        "cli_rss_mib": statistics.median(rsss),
        "certify_p50_ms": 1e3 * statistics.median(latencies),
        "certify_p99_ms": 1e3 * percentile(latencies, 99),
    }


# -- traced run ---------------------------------------------------------------


def import_probe(tally: Tally) -> tuple[float, float]:
    """Median cumulative import time of exotwist.cli and of numpy, in ms,
    from ``-X importtime`` of fresh interpreters."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_PROBES):
        proc = run_python(["-X", "importtime", "-c", "import exotwist.cli"])
        tally.record(proc_error(proc))
        top = numpy = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name_field = parts[2][1:]
            name = name_field.strip()
            if name.startswith("exotwist") and not name_field.startswith(" "):
                top += int(parts[1]) / 1e3
            if name == "numpy":
                numpy = max(numpy, int(parts[1]) / 1e3)
        cli_ms.append(top)
        numpy_ms.append(numpy)
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for n, v in summary.items() if n.split(".")[0] == layer)

    lookups = stat("cache.lookup", "calls") + stat("cache.lookup_signature", "calls")
    hits = counters.get("cache.lookup.hits", 0) + counters.get("cache.lookup_signature.hits", 0)
    metrics = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}
    metrics.update({
        "milnor.brieskorn_count_s": stat("milnor.brieskorn_count", "total_s"),
        "milnor.brieskorn_count_calls": stat("milnor.brieskorn_count", "calls"),
        "milnor.from_counts_s": stat("milnor.from_counts", "total_s"),
        "certify.build_s": sum(stat(b, "self_s") for b in spans.CERTIFY_BUILDERS),
        "certify.calls": sum(stat(b, "outer_calls") for b in spans.CERTIFY_BUILDERS),
        "certify.render_s": stat("certify.render", "total_s"),
        "certify.render_bytes": counters.get("certify.render.bytes", 0),
        "ko_ring.ledger_calls": stat("ko_ring.exoticness_ledger", "calls"),
        "torus_knot.seifert_s": stat("torus_knot.knot_signature_seifert", "total_s"),
        "torus_knot.seifert_calls": stat("torus_knot.knot_signature_seifert", "calls"),
        "torus_knot.seifert_max_dim": counters.get("torus_knot.knot_signature_seifert.max_dim", 0),
        "cache.load_s": stat("cache.load", "total_s"),
        "cache.lookups": lookups,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.stores": stat("cache.store", "calls") + stat("cache.store_signature", "calls"),
        "cache.flush_s": stat("cache.flush", "total_s"),
    })
    return metrics


def trace_scan(spec: ScanSpec, ref: dict, tally: Tally):
    """Untraced and traced in-process runs of the scan; returns the traced
    run's metrics and its tracer."""
    expected = ref["scans"][spec.key]
    scan = sys.modules["exotwist.scan"]
    cache = CacheFiles("trace") if spec.cached else None

    def in_process(jobs: int) -> tuple[float, bytes]:
        config = spec.config(cache.private_copy() if cache else None, jobs)
        t0 = time.perf_counter()
        out = scan.run_scan(config).encode()
        wall = time.perf_counter() - t0
        tally.record(output_error(out, expected))
        return wall, out

    try:
        if cache is not None:
            cold_cache_scan(spec, expected, cache, tally)
        untraced, out = in_process(1)
        pool_efficiency = (untraced / (spec.jobs * in_process(spec.jobs)[0])
                           if spec.jobs > 1 else 0.0)
        tracer = spans.Tracer()
        with spans.installed(tracer) as missing:
            traced, _ = in_process(1)
        file_mib = cache.cold.stat().st_size / 2**20 if cache else 0.0
    finally:
        if cache is not None:
            cache.remove()
    metrics = layer_metrics(tracer.summary(), tracer.counters)
    rows = scan_rows(out, spec.format)
    eligible = sum(1 for (p, q, r), _ in rows if p == 2 and math.gcd(q, r) == 1)
    metrics.update({
        "scan.rows": len(rows),
        "scan.tasks": len(scan._tasks(spec.config(None, 1))),
        "scan.pool_efficiency": pool_efficiency,
        "torus_knot.seifert_skipped": eligible - metrics["torus_knot.seifert_calls"]
        - tracer.counters.get("cache.lookup_signature.hits", 0),
        "cache.file_mib": file_mib,
        "trace.wall_s": traced,
        "trace.overhead_frac": (traced - untraced) / untraced,
    })
    return metrics, tracer, missing


def trace_certify(entries, tally: Tally):
    """Untraced and traced passes over the triple list in-process.  The
    certificates are checked after each pass, so no check is traced."""
    triples = [tuple(e["triple"]) for e in entries]

    def one_pass() -> tuple[float, list]:
        t0 = time.perf_counter()
        _, certs = library_certify(triples)
        return time.perf_counter() - t0, certs

    def check(certs) -> None:
        for cert, entry in zip(certs, entries):
            tally.record(entry_error(cert, entry))

    untraced = []
    for _ in range(3):
        wall, certs = one_pass()
        check(certs)
        untraced.append(wall)
    tracer = spans.Tracer()
    with spans.installed(tracer) as missing:
        traced, certs = one_pass()
    check(certs)
    untraced = statistics.median(untraced)
    metrics = layer_metrics(tracer.summary(), tracer.counters)
    metrics.update({
        "scan.rows": 0,
        "scan.tasks": 0,
        "scan.pool_efficiency": 0.0,
        "torus_knot.seifert_skipped": 0,
        "cache.file_mib": 0.0,
        "trace.wall_s": traced,
        "trace.overhead_frac": (traced - untraced) / untraced,
    })
    return metrics, tracer, missing


def measure_trace(spec, seed: int, ref: dict, inputs, tag: str) -> Result:
    tally = Tally()
    if isinstance(spec, CertifySpec):
        metrics, tracer, missing = trace_certify(inputs, tally)
    else:
        metrics, tracer, missing = trace_scan(spec, ref, tally)
    metrics["cli.import_ms"], metrics["cli.numpy_import_ms"] = import_probe(tally)
    tracer.save(OUT / f"spans-{tag}.npz")
    notes = [f"traced names not found: {', '.join(missing)}"] if missing else []
    drift = counter_drift(counter_key(spec, seed), {k: metrics[k] for k in EXACT_COUNTERS})
    if drift:
        tally.record(f"harness error: exact counters drifted between traced runs: {drift}")
    table = ["layer self time (s) of the traced run:"]
    table += [f"  {layer:<11} {metrics[layer + '.self_s']:10.4f}" for layer in LAYERS]
    accounted = sum(metrics[layer + ".self_s"] for layer in LAYERS)
    table.append(f"  {'sum':<11} {accounted:10.4f}  (traced wall {metrics['trace.wall_s']:.4f})")
    return Result(tally=tally, metrics={k: metrics[k] for k in PER_LAYER}, units=PER_LAYER,
                  notes=notes + table)


def counter_key(spec, seed: int) -> str:
    """Scan counters do not depend on the seed; the certify list does."""
    return spec_to_json(spec) + (f" seed={seed}" if isinstance(spec, CertifySpec) else "")


def counter_drift(key: str, counters: dict) -> dict:
    """Compare exact counters with the previous traced run of the same
    source in this checkout; record them if there is none."""
    path = OUT / "exact-counters.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    digest = src_digest()
    previous = known.get(key)
    if previous is not None and previous["src_sha256"] == digest:
        return {k: (previous["counters"][k], v) for k, v in counters.items()
                if previous["counters"].get(k) != v}
    known[key] = {"src_sha256": digest, "counters": counters}
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return {}


# -- environment --------------------------------------------------------------


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def run_workload(spec, seed: int, seconds: float, trace: bool, tag: str) -> Result:
    ref, inputs = prepare(spec, seed)
    # The reference and inputs live for the whole run; keep them out of the
    # collector's sweeps so they do not add to the timed library calls.
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    if trace:
        return measure_trace(spec, seed, ref, inputs, tag)
    if isinstance(spec, CertifySpec):
        return measure_certify(spec, seed, seconds, inputs)
    return measure_scan(spec, seed, seconds, ref)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the cleanup that kills a running
    # child's process group and removes scratch files still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), tag)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": result.correct,
              "attempted": result.tally.attempted, "failed": result.tally.failed,
              "errors": result.tally.errors, "metrics": result.metrics,
              "samples": result.samples}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for note in result.notes:
        print(note)
    for error in result.tally.errors:
        print(f"FAILED: {error}")
    for name, value in result.metrics.items():
        print(f"  {name:<30} {value:>16.6g} {result.units[name]}")
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
