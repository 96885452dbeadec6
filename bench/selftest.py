#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 bench/selftest.py

It runs each workload shape on a 12-box or a 20-triple list, with and
without tracing, and checks that

  - every run is correct and emits exactly the metrics BENCHMARK.json names,
    each with the unit given there;
  - the output check trips on a corrupted reference hash, for a scan and for
    a certificate, and on a library certificate that differs from its scan
    row; the exact-counter check trips on a drifted counter;
  - the harness reproduces the ROADMAP output pin of
    ``scan --mode all --q-max 60 --r-max 60 --all --format csv``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from run import CertifySpec, ScanSpec  # noqa: E402

TINY_WORKLOADS = {
    "box_certified": ScanSpec(q_max=12, r_max=12, format="csv", library_s=0.0),
    "box_all_json": ScanSpec(q_max=12, r_max=12, format="json", emit_all=True, library_s=0.0),
    "rescan_cached": ScanSpec(q_max=12, r_max=12, format="csv", jobs=2, cached=True,
                              library_s=0.0),
    "certify_calls": CertifySpec(per_stratum=5),
}

ROADMAP_PIN = ScanSpec(q_max=60, r_max=60, format="csv", emit_all=True)
ROADMAP_PIN_SHA256 = "27ad5abcf9ff9148e88060b040df7dcb420738539b4fb51e6c9383c516cb0b30"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def run_with_reference(ref: dict, spec, trace: bool, tag: str) -> run.Result:
    original = run.load_reference
    run.load_reference = lambda: ref
    try:
        return run.run_workload(spec, seed=7, seconds=0.5, trace=trace, tag=tag)
    finally:
        run.load_reference = original


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json names the harness's workloads")

    for name, spec in TINY_WORKLOADS.items():
        for trace in (False, True):
            result = run.run_workload(spec, seed=7, seconds=0.5, trace=trace,
                                      tag=f"selftest-{name}-trace{int(trace)}")
            line = json.loads(result.line())
            emitted = {k: v["unit"] for k, v in line["metrics"].items()}
            label = f"{name} (tiny) trace {int(trace)}"
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{label}: correct, {line['attempted']} attempted {result.tally.errors}")
            expect(emitted == wanted[trace], f"{label}: metric names and units match BENCHMARK.json")
            values = [v["value"] for v in line["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                   f"{label}: every value is a finite number")
            if not trace:
                expect(all(v > 0 for v in values), f"{label}: no end-to-end value is 0")

    ref = run.load_reference()
    bad = copy.deepcopy(ref)
    bad["scans"][TINY_WORKLOADS["box_certified"].key]["sha256"] = "0" * 64
    result = run_with_reference(bad, TINY_WORKLOADS["box_certified"], False, "selftest-corrupt-scan")
    expect(not result.correct and result.tally.failed > 0, "a corrupted scan hash fails the run")

    sample = run.library_sample
    run.library_sample = lambda out, fmt, seed: [(t, row + " ") for t, row in sample(out, fmt, seed)]
    try:
        result = run.run_workload(TINY_WORKLOADS["box_certified"], seed=7, seconds=0.5,
                                  trace=False, tag="selftest-corrupt-row")
    finally:
        run.library_sample = sample
    expect(not result.correct and result.tally.failed > 0,
           "a library certificate that differs from its scan row fails the run")

    bad = copy.deepcopy(ref)
    for pool in bad["certify_pool"].values():
        for entry in pool:
            entry["json_sha256"] = "0" * 64
    result = run_with_reference(bad, TINY_WORKLOADS["certify_calls"], False,
                                "selftest-corrupt-certify")
    expect(not result.correct and result.tally.failed > 0,
           "a corrupted certificate hash fails the run")

    counters_path = run.OUT / "exact-counters.json"
    known = json.loads(counters_path.read_text())
    key = run.counter_key(TINY_WORKLOADS["box_certified"], 7)
    known[key]["counters"]["milnor.brieskorn_count_calls"] += 1
    counters_path.write_text(json.dumps(known))
    result = run.run_workload(TINY_WORKLOADS["box_certified"], seed=7, seconds=0.5, trace=True,
                              tag="selftest-drift")
    expect(not result.correct, "a drifted exact counter fails the traced run")
    del known[key]
    counters_path.write_text(json.dumps(known))

    expect(ref["scans"][ROADMAP_PIN.key]["sha256"] == ROADMAP_PIN_SHA256,
           "reference.json holds the ROADMAP pin")
    proc = run.run_cli(ROADMAP_PIN.cli_args())
    expect(run.proc_error(proc) is None
           and run.output_error(proc.stdout, {"sha256": ROADMAP_PIN_SHA256}) is None,
           f"scan {ROADMAP_PIN.key} reproduces the ROADMAP pin ({proc.wall_s:.1f} s)")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
