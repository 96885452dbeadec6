import io
import json
import logging
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exotwist.cache
import exotwist.milnor as milnor
import exotwist.scan
from exotwist.arith import Triple
from exotwist.cache import FORMULA_VERSION, InvariantCache
from exotwist.certify import (
    CSV_HEADER,
    ROUTE_NONE,
    Certificate,
    certify,
    certify_direct,
    certify_embedding,
)
from exotwist.cli import main
from exotwist.errors import ConsistencyError, PreconditionError
from exotwist.ko_ring import LedgerReport
from exotwist.milnor import invariants
from exotwist.scan import FORMATS, MODES, ScanConfig, run_scan, scan_certificates, stream_scan

SRC = Path(__file__).resolve().parent.parent / "src"


def _csv_rows(table: str) -> list[str]:
    lines = table.splitlines()
    assert lines[0] == CSV_HEADER
    return lines[1:]


def _triples(table: str) -> list[tuple[int, int, int]]:
    return [
        tuple(int(x) for x in row.split(",")[:3]) for row in _csv_rows(table)
    ]


class TestScan:
    def test_theorem1_bound_11(self):
        table = run_scan(ScanConfig(q_max=11, r_max=11, mode="theorem1", format="csv"))
        assert _triples(table) == [(2, 3, 7), (2, 3, 11), (2, 7, 11)]

    def test_theorem1_bound_5_is_empty(self):
        table = run_scan(ScanConfig(q_max=5, r_max=5, mode="theorem1", format="csv"))
        assert _csv_rows(table) == []

    def test_theorem2_bound_7(self):
        table = run_scan(ScanConfig(q_max=7, r_max=7, mode="theorem2", format="csv"))
        assert _triples(table) == [
            (2, 3, 7),
            (2, 5, 7),
            (3, 4, 7),
            (3, 5, 7),
            (4, 5, 7),
            (5, 6, 7),
        ]

    def test_rows_are_lexicographically_ordered(self):
        table = run_scan(ScanConfig(q_max=20, r_max=20, mode="all", format="csv"))
        triples = _triples(table)
        assert triples == sorted(triples)

    def test_rows_match_single_triple_certify(self):
        table = run_scan(ScanConfig(q_max=13, r_max=13, mode="all", format="csv"))
        for row in _csv_rows(table):
            p, q, r = (int(x) for x in row.split(",")[:3])
            assert row == certify(Triple(p, q, r)).to_csv_row()

    def test_emit_all_covers_every_triple(self):
        cfg = ScanConfig(q_max=9, r_max=10, mode="all", format="csv", emit_all=True)
        rows = _csv_rows(run_scan(cfg))
        expected = [
            (p, q, r)
            for p in range(2, 11)
            for q in range(p + 1, 10)
            for r in range(q + 1, 11)
        ]
        assert _triples("\n".join([CSV_HEADER, *rows])) == expected

    def test_fast_path_matches_reference_invariants(self):
        # includes non-coprime triples, where the nullity is nonzero
        cfg = ScanConfig(q_max=12, r_max=14, mode="all", emit_all=True)
        for cert in scan_certificates(cfg):
            t = cert.triple
            assert cert.invariants == invariants(t.p, t.q, t.r), t

    def test_scan_certificates_match_rendered_rows(self):
        cfg = ScanConfig(q_max=11, r_max=11, mode="all", format="json")
        rendered = [Certificate.from_json(line) for line in run_scan(cfg).splitlines()]
        assert rendered == scan_certificates(cfg)

    def test_format_equivalence_csv_json(self):
        base = dict(q_max=15, r_max=15, mode="all")
        csv_rows = _csv_rows(run_scan(ScanConfig(format="csv", **base)))
        json_rows = run_scan(ScanConfig(format="json", **base)).splitlines()
        assert len(csv_rows) == len(json_rows)
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert Certificate.from_json(json_row).to_csv_row() == csv_row

    def test_text_format_has_static_header(self):
        table = run_scan(ScanConfig(q_max=7, r_max=7, mode="theorem2", format="text"))
        lines = table.splitlines()
        assert lines[0].split()[:5] == ["p", "q", "r", "route", "mu"]
        assert len(lines) == 7

    def test_jobs_byte_identical(self):
        base = dict(q_max=25, r_max=25, mode="all", format="csv")
        serial = run_scan(ScanConfig(jobs=1, **base))
        parallel = run_scan(ScanConfig(jobs=8, **base))
        assert serial == parallel

    def test_jobs_bounded_by_cpus_and_tasks(self, monkeypatch):
        started = []

        class RecordingPool:
            # Records the worker count and runs the tasks in this process.
            def __init__(self, processes, initializer, initargs):
                started.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        base = dict(q_max=9, r_max=9, mode="all", format="csv")
        serial = run_scan(ScanConfig(jobs=1, **base))
        assert run_scan(ScanConfig(jobs=10**6, **base)) == serial
        run_scan(ScanConfig(q_max=4, r_max=9, mode="theorem1", jobs=64))  # 2 tasks
        assert started == [4, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_scan(ScanConfig(jobs=8, **base)) == serial
        assert started == [4, 2]

    def test_seifert_disagreement_aborts_the_scan(self, monkeypatch, capsys):
        real = exotwist.scan.seifert_signatures
        monkeypatch.setattr(
            exotwist.scan, "seifert_signatures",
            lambda q, rs, **kw: {r: s + 8 for r, s in real(q, rs, **kw).items()},
        )
        with pytest.raises(ConsistencyError, match="Seifert"):
            run_scan(ScanConfig(q_max=7, r_max=11, mode="theorem1", format="csv"))
        assert main(["scan", "--mode", "theorem1", "--q-max", "7", "--r-max", "11"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal defect: ")

    def test_seifert_limit_and_forced_check(self, monkeypatch, capsys):
        real = exotwist.scan.seifert_signatures
        monkeypatch.setattr(
            exotwist.scan, "seifert_signatures",
            lambda q, rs, **kw: {r: s + 8 for r, s in real(q, rs, **kw).items()},
        )
        monkeypatch.setattr(exotwist.scan, "SEIFERT_CHECK_LIMIT", 0)
        base = dict(q_max=11, r_max=11, mode="theorem1", format="csv")
        assert _triples(run_scan(ScanConfig(**base))) == [(2, 3, 7), (2, 3, 11), (2, 7, 11)]
        with pytest.raises(ConsistencyError, match="Seifert"):
            run_scan(ScanConfig(force_seifert_check=True, **base))
        argv = ["scan", "--mode", "theorem1", "--q-max", "11", "--r-max", "11"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--force-seifert-check"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal defect: sigma(T(3,")

    def test_every_checked_row_is_compared_with_seifert(self, monkeypatch):
        real = exotwist.scan.seifert_signatures
        asked = []

        def shifted(q, rs, **kw):
            asked.append((q, sorted(rs)))
            return {r: s + 8 * ((q, r) == (3, 7)) for r, s in real(q, rs, **kw).items()}

        monkeypatch.setattr(exotwist.scan, "seifert_signatures", shifted)
        # T(3,7) is not the largest r of its task, so it is read off a leading block
        with pytest.raises(ConsistencyError,
                           match=r"sigma\(T\(3,7\)\) disagrees: 0 \(Seifert\) vs -8 "
                                 r"\(Dedekind sums\)"):
            run_scan(ScanConfig(q_max=11, r_max=11, mode="theorem1", format="csv"))
        assert asked == [(3, [7, 11])]

    @pytest.mark.parametrize("method", ["memoised_dedekind_sigma", "resolution_sigma"])
    def test_shifted_closed_form_on_a_later_row_aborts_the_scan(self, monkeypatch, capsys,
                                                                 method):
        # sigma + 8 on one row that is not the first of its task, through the
        # memoised Dedekind route or the resolution route; (2,3,13) is the
        # EMBEDDING row after (2,3,7) and (2,3,11), (3,4,29) the last of (3,4)
        real = getattr(exotwist.scan, method)
        targets = {(2, 3, 13), (3, 4, 29)}

        def shifted(p, q, r):
            return real(p, q, r) + 8 * ((p, q, r) in targets)

        monkeypatch.setattr(exotwist.scan, method, shifted)
        for fmt in FORMATS:
            for jobs in ("1", "2"):
                argv = ["scan", "--q-max", "30", "--r-max", "30", "--format", fmt,
                        "--jobs", jobs]
                assert main(argv) == 3, (fmt, jobs)
                captured = capsys.readouterr()
                assert captured.out == "", (fmt, jobs)
                assert captured.err.startswith("error: internal defect: sigma of (2,3,13)")
                assert multiprocessing.active_children() == []
        targets.discard((2, 3, 13))
        for fmt in FORMATS:
            for jobs in (1, 2):
                with pytest.raises(ConsistencyError, match=r"\(3,4,29\) disagrees"):
                    run_scan(ScanConfig(q_max=30, r_max=30, format=fmt, jobs=jobs))

    def test_closed_form_memos_last_one_scan(self, monkeypatch):
        memos = (milnor._memo_u, milnor._memo_leg)
        filled = []
        real = milnor.clear_memos

        def recording_clear():
            filled.append([memo.cache_info().currsize for memo in memos])
            real()

        monkeypatch.setattr(exotwist.scan, "clear_memos", recording_clear)
        run_scan(ScanConfig(q_max=11, r_max=11, format="csv"))
        assert len(filled) == 1 and all(filled[0])
        assert [memo.cache_info().currsize for memo in memos] == [0, 0]
        monkeypatch.setattr(exotwist.scan, "seifert_signatures", lambda q, rs, **kw: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            run_scan(ScanConfig(q_max=11, r_max=11, format="csv"))
        assert len(filled) == 2 and all(filled[1])
        assert [memo.cache_info().currsize for memo in memos] == [0, 0]

    def test_counted_nullity_is_checked_against_milnor_orlik(self, monkeypatch):
        real = milnor.offsets_count

        def shifted(a, b, cs, v):
            b_plus, nullity = real(a, b, cs, v)
            return b_plus, [n + 2 * ((a, b, c) == (2, 4, 8)) for n, c in zip(nullity, cs)]

        monkeypatch.setattr(exotwist.scan, "offsets_count", shifted)
        with pytest.raises(ConsistencyError,
                           match=r"nullity of \(2, 4, 8\) disagrees between count \(4\)"):
            run_scan(ScanConfig(q_max=8, r_max=8, format="csv", emit_all=True))

    def test_cache_byte_identical_and_accelerating(self, tmp_path):
        cache_file = tmp_path / "inv.jsonl"
        base = dict(q_max=20, r_max=20, mode="all", format="csv")
        bare = run_scan(ScanConfig(**base))
        cold = run_scan(ScanConfig(cache_path=str(cache_file), **base))
        warm = run_scan(ScanConfig(cache_path=str(cache_file), **base))
        assert bare == cold == warm
        assert cache_file.stat().st_size > 0

    def test_scan_populates_signature_cross_checks(self, tmp_path):
        cache_file = tmp_path / "inv.jsonl"
        run_scan(ScanConfig(q_max=9, r_max=9, mode="theorem1", format="csv",
                            cache_path=str(cache_file)))
        cache = InvariantCache(cache_file)
        assert cache.lookup_signature(3, 7, "seifert") == -8
        assert cache.lookup_signature(3, 7, "count") == -8

    def test_edited_cache_record_is_recomputed_or_refused(self, tmp_path, capsys):
        cache_file = tmp_path / "inv.jsonl"

        def edit(key, **fields):
            out = []
            for line in cache_file.read_text().splitlines():
                rec = json.loads(line)
                if (rec["p"], rec["q"], rec["r"]) == key and rec["invariants"]:
                    rec["invariants"].update(fields)
                out.append(json.dumps(rec))
            cache_file.write_text("\n".join(out) + "\n")

        # pairwise-coprime rows come from the closed forms and never read the
        # cache: a wrong record, stored as earlier versions stored every row,
        # changes no byte (true b+ of (2,5,7) is 4, nullity 0)
        base = dict(q_max=7, r_max=7, mode="theorem2")
        want = {fmt: run_scan(ScanConfig(format=fmt, **base)) for fmt in ("csv", "json")}
        run_scan(ScanConfig(format="csv", cache_path=str(cache_file), **base))
        assert all(json.loads(line)["invariants"] is None
                   for line in cache_file.read_text().splitlines())
        cache = InvariantCache(cache_file)
        cache.store(2, 5, 7, milnor.from_counts(2, 5, 7, 8, 2))
        cache.flush()
        for fmt, table in want.items():
            assert run_scan(ScanConfig(format=fmt, cache_path=str(cache_file), **base)) == table
        # a counted --all row reads b+ and the nullity of its record
        cache_file.unlink()
        base = dict(q_max=8, r_max=8, mode="all", emit_all=True)
        want = {fmt: run_scan(ScanConfig(format=fmt, **base)) for fmt in ("csv", "json")}
        run_scan(ScanConfig(format="csv", cache_path=str(cache_file), **base))
        # mu, b- and sigma are derived, so an edit to them changes no byte
        edit((2, 4, 8), mu=999, sigma_minus=0, sigma=5)
        for fmt, table in want.items():
            assert run_scan(ScanConfig(format=fmt, cache_path=str(cache_file), **base)) == table
        # an edited nullity contradicts Milnor-Orlik (true nullity is 2)
        edit((2, 4, 8), nullity=4)
        for fmt in ("csv", "json"):
            with pytest.raises(ConsistencyError, match=r"\(2, 4, 8\).*Milnor-Orlik \(2\)"):
                run_scan(ScanConfig(format=fmt, cache_path=str(cache_file), **base))
        argv = ["scan", "--q-max", "8", "--r-max", "8", "--all", "--cache", str(cache_file)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: internal defect: nullity of (2, 4, 8)")

    def test_json_scan_builds_each_record_once(self, tmp_path, monkeypatch):
        built = []
        real = exotwist.scan.from_counts

        def counting(p, q, r, b_plus, nullity):
            built.append((p, q, r))
            return real(p, q, r, b_plus, nullity)

        monkeypatch.setattr(exotwist.scan, "from_counts", counting)
        base = dict(q_max=8, r_max=8, format="json", emit_all=True)
        cache_file = tmp_path / "inv.jsonl"
        certs = scan_certificates(ScanConfig(cache_path=str(cache_file), **base))
        # the record a counted row stores is the one its certificate carries
        triples = [(c.triple.p, c.triple.q, c.triple.r) for c in certs]
        assert sorted(built) == triples
        stored = InvariantCache(cache_file).lookup(2, 4, 8)
        assert stored is not None and stored == certs[triples.index((2, 4, 8))].invariants

    def test_missing_cache_directory_is_an_io_error(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "c.jsonl"
        with pytest.raises(OSError):
            run_scan(ScanConfig(q_max=5, r_max=7, cache_path=str(missing)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q_max=2, r_max=7),
            dict(q_max=7, r_max=2),
            dict(q_max=7, r_max=7, p_max=2),
            dict(q_max=7, r_max=7, jobs=0),
            dict(q_max=7, r_max=7, mode="theorem3"),
            dict(q_max=7, r_max=7, format="xml"),
            dict(q_max="7", r_max=7),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(PreconditionError):
            ScanConfig(**kwargs)


def _text_row(cert: Certificate) -> str:
    """A certificate laid out as a row of the text table."""
    inv, t = cert.invariants, cert.triple
    eigen = "" if cert.eigenspace_dim is None else cert.eigenspace_dim
    failed = ";".join(c.name for c in cert.failed_conditions())
    return exotwist.scan._TEXT_FMT.format(
        t.p, t.q, t.r, cert.route, inv.mu, inv.sigma, inv.sigma_plus, inv.sigma_minus,
        str(inv.d3), eigen, failed,
    ).rstrip()


_RENDER = {"csv": Certificate.to_csv_row, "json": Certificate.to_json, "text": _text_row}
_TEXT_HEADER = ["p", "q", "r", "route", "mu", "sigma", "b_plus", "b_minus", "d3", "dim",
                "conditions_failed"]


def _box_certificates(mode: str, emit_all: bool, bound: int) -> list[Certificate]:
    """The certificates a scan of the box emits, one library call each."""
    if mode == "theorem1":
        certs = [certify_direct(q, r) for q in range(3, bound + 1) for r in range(q + 1, bound + 1)]
    else:
        build = certify_embedding if mode == "theorem2" else lambda *t: certify(Triple(*t))
        certs = [
            build(p, q, r)
            for p in range(2, bound + 1)
            for q in range(p + 1, bound + 1)
            for r in range(q + 1, bound + 1)
        ]
    return [c for c in certs if emit_all or c.route != ROUTE_NONE]


class TestRowPath:
    @pytest.mark.parametrize("emit_all", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_row_renders_its_certificate(self, mode, emit_all):
        certs = _box_certificates(mode, emit_all, 30)
        for fmt in FORMATS:
            want = [_RENDER[fmt](cert) for cert in certs]
            for jobs in (1, 2):
                cfg = ScanConfig(q_max=30, r_max=30, mode=mode, format=fmt,
                                 emit_all=emit_all, jobs=jobs)
                lines = run_scan(cfg).splitlines()
                if fmt == "csv":
                    assert lines.pop(0) == CSV_HEADER
                elif fmt == "text":
                    assert lines.pop(0).split() == _TEXT_HEADER
                assert lines == want, (fmt, jobs)

    def test_csv_and_text_rows_build_no_certificate(self, monkeypatch):
        # --all rows include every kind: DIRECT, EMBEDDING and NONE
        configs = [ScanConfig(q_max=30, r_max=30, mode=mode, format="csv", emit_all=True)
                   for mode in MODES]
        configs.append(ScanConfig(q_max=30, r_max=30, format="text", emit_all=True))
        want = [run_scan(cfg) for cfg in configs]

        def refuse(*args, **kwargs):
            raise AssertionError("a scan row built a per-row object")

        for name in ("certificate", "Triple", "from_counts"):
            monkeypatch.setattr(exotwist.scan, name, refuse)
        certify_module = sys.modules["exotwist.certify"]
        for name in ("Certificate", "Condition"):
            monkeypatch.setattr(certify_module, name, refuse)
        monkeypatch.setattr(milnor, "Fraction", refuse)
        assert [run_scan(cfg) for cfg in configs] == want
        with pytest.raises(AssertionError, match="per-row object"):
            run_scan(ScanConfig(q_max=30, r_max=30, format="json"))

    def test_one_verdict_path(self, monkeypatch):
        # certify's three modes and every scan format decide through verdict
        certify_module = sys.modules["exotwist.certify"]
        assert exotwist.scan.verdict is certify_module.verdict

        def refuse(*args, **kwargs):
            raise AssertionError("verdict called")

        monkeypatch.setattr(certify_module, "verdict", refuse)
        monkeypatch.setattr(exotwist.scan, "verdict", refuse)
        for call in (lambda: certify(Triple(3, 4, 5)), lambda: certify_direct(3, 7),
                     lambda: certify_embedding(3, 4, 7)):
            with pytest.raises(AssertionError, match="verdict called"):
                call()
        for fmt in FORMATS:
            with pytest.raises(AssertionError, match="verdict called"):
                run_scan(ScanConfig(q_max=7, r_max=7, format=fmt))

    def test_ledger_that_does_not_flip_aborts_the_scan(self, monkeypatch):
        # the precheck routes (2,3,7) DIRECT; every format must refuse the row
        monkeypatch.setattr(
            sys.modules["exotwist.certify"], "exoticness_ledger",
            lambda d, psi0_is_unit: LedgerReport(False, "patched: no flip"),
        )
        for fmt in FORMATS:
            with pytest.raises(ConsistencyError, match="precheck"):
                run_scan(ScanConfig(q_max=7, r_max=7, mode="theorem1", format=fmt))

    def test_rows_stream_task_by_task(self):
        cfg = ScanConfig(q_max=9, r_max=11, mode="all", format="csv")
        writes: list[str] = []
        stream_scan(cfg, writes.append)
        tasks = exotwist.scan._tasks(cfg)
        assert len(writes) == len(tasks)
        assert "".join(writes) == run_scan(cfg)
        assert writes[0].startswith(CSV_HEADER + "\n")
        writes[0] = writes[0][len(CSV_HEADER) + 1:]
        for chunk, (p, q) in zip(writes, tasks):
            assert all(row.startswith(f"{p},{q},") for row in chunk.splitlines())

    def test_defect_in_a_worker_ends_the_pool(self, monkeypatch, capsys):
        real = exotwist.scan.seifert_signatures
        monkeypatch.setattr(
            exotwist.scan, "seifert_signatures",
            lambda q, rs, **kw: {r: s + (8 if q >= 11 else 0)
                                 for r, s in real(q, rs, **kw).items()},
        )
        argv = ["scan", "--mode", "theorem1", "--q-max", "30", "--r-max", "30",
                "--format", "csv", "--jobs", "2"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        # the rows of the tasks before the defect stand; the table stops there
        assert captured.out.startswith(CSV_HEADER + "\n2,3,7,DIRECT,")
        assert "\n2,11," not in captured.out
        assert captured.err.startswith("error: internal defect: sigma(T(11,")
        assert multiprocessing.active_children() == []

    def test_closed_stdout_mid_stream_ends_the_pool(self, monkeypatch):
        class ClosingPipe(io.StringIO):
            # takes the first write, then its reader is gone
            def write(self, text):
                if self.tell():
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", ClosingPipe())
        argv = ["scan", "--q-max", "40", "--r-max", "40", "--format", "csv", "--jobs", "2"]
        assert main(argv) == 2
        assert multiprocessing.active_children() == []

    def test_closed_pipe_mid_scan_exits_quietly(self):
        # the 60-box table (about 600 kB) overfills the pipe buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "exotwist.cli", "scan", "--q-max", "60", "--r-max", "60",
             "--format", "csv", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)), start_new_session=True,
        )
        try:
            first = proc.stdout.read(len(CSV_HEADER))
            proc.stdout.close()
            err = proc.stderr.read()
        finally:
            proc.stderr.close()
            code = proc.wait(timeout=120)
        assert first == CSV_HEADER.encode()
        assert (code, err) == (2, b"")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no worker outlives the scan


class TestCache:
    def test_miss_then_store_then_hit(self, tmp_path):
        cache = InvariantCache(tmp_path / "c.jsonl")
        assert cache.lookup(2, 3, 7) is None
        cache.store(2, 3, 7, invariants(2, 3, 7))
        hit = cache.lookup(2, 3, 7)
        assert hit is not None and hit.sigma_plus == 2
        cache.flush()

        reloaded = InvariantCache(tmp_path / "c.jsonl")
        assert reloaded.lookup(2, 3, 7) == invariants(2, 3, 7)
        assert len(reloaded) == 1

    def test_key_is_sorted_triple(self, tmp_path):
        cache = InvariantCache(tmp_path / "c.jsonl")
        cache.store(7, 2, 3, invariants(2, 3, 7))
        assert cache.lookup(3, 7, 2) is not None

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        cache = InvariantCache(path)
        cache.store(2, 3, 7, invariants(2, 3, 7))
        cache.flush()
        monkeypatch.setattr(exotwist.cache, "FORMULA_VERSION", FORMULA_VERSION + 1)
        assert InvariantCache(path).lookup(2, 3, 7) is None

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        good = InvariantCache(path)
        good.store(2, 3, 7, invariants(2, 3, 7))
        good.flush()
        with open(path, "a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"version": FORMULA_VERSION, "p": 2}) + "\n")
        with caplog.at_level(logging.WARNING):
            reloaded = InvariantCache(path)
        assert reloaded.lookup(2, 3, 7) is not None
        assert len(reloaded) == 1
        assert sum("corrupt" in rec.message for rec in caplog.records) == 2

    def test_flush_collapses_repeated_keys(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = InvariantCache(path)
        cache.store(2, 3, 7, invariants(2, 3, 7))
        cache.store_signature(3, 7, sig_count=-8, sig_seifert=-8)
        cache.flush()
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["invariants"]["sigma_plus"] == 2
        assert rec["sig_seifert"] == -8

    def test_signature_lookup_validates_method(self, tmp_path):
        cache = InvariantCache(tmp_path / "c.jsonl")
        with pytest.raises(ValueError):
            cache.lookup_signature(3, 7, "guess")


class TestCli:
    def test_certify_exit_codes(self, capsys):
        assert main(["certify", "--triple", "2,3,7"]) == 0
        assert main(["certify", "--triple", "3,4,5"]) == 1
        assert main(["certify", "--triple", "2,3"]) == 2
        assert main(["certify", "--triple", "2,3,x"]) == 2
        assert main(["certify", "--triple", "1,3,7"]) == 2
        capsys.readouterr()

    def test_internal_defect_has_its_own_exit_code(self, monkeypatch, capsys):
        # exotwist.certify as a package attribute is the function
        certify_module = sys.modules["exotwist.certify"]
        monkeypatch.setattr(certify_module, "b_plus_via_lemma", lambda q, r: -1)
        for argv in (
            ["certify", "--triple", "2,3,7"],
            ["scan", "--mode", "theorem1", "--q-max", "7", "--r-max", "7"],
        ):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: internal defect: ")
            assert captured.err.count("\n") == 1

    def test_shifted_count_is_an_internal_defect(self, monkeypatch, capsys):
        real = milnor.offsets_count

        def shifted(a, b, cs, v):
            b_plus, nullity = real(a, b, cs, v)
            return [x + 4 for x in b_plus], nullity

        monkeypatch.setattr(milnor, "offsets_count", shifted)
        monkeypatch.setattr(exotwist.scan, "offsets_count", shifted)
        assert milnor.brieskorn_count(2, 7, 11) == (14, 46, 0)  # true (10, 50, 0)
        # certify reads the Dedekind-sum count of a pairwise-coprime triple;
        # sigma + 8 is the same (+4, -4) shift of (b+, b-)
        real_sigma = milnor.dedekind_sigma
        monkeypatch.setattr(milnor, "dedekind_sigma", lambda p, q, r: real_sigma(p, q, r) + 8)
        with pytest.raises(ConsistencyError, match="genus route"):
            certify(Triple(2, 7, 11))
        monkeypatch.setattr(milnor, "dedekind_sigma", real_sigma)
        # a scan counts only with --all, and then recounts the first
        # pairwise-coprime row of each counting task against the closed forms
        with pytest.raises(ConsistencyError,
                           match=r"\(2,3,5\) disagrees: 0 \(count\) vs -8 \(Dedekind sums\)"):
            run_scan(ScanConfig(q_max=7, r_max=11, mode="theorem1", format="csv", emit_all=True))
        argv = ["scan", "--mode", "theorem1", "--q-max", "7", "--r-max", "11", "--all"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal defect: sigma of (2,3,5)")

    def test_shifted_count_for_p_at_least_3_is_an_internal_defect(self, monkeypatch, capsys):
        real = milnor.offsets_count

        def shifted(a, b, cs, v):
            b_plus, nullity = real(a, b, cs, v)
            return ([x + 4 * (a >= 3) for x in b_plus], nullity)

        monkeypatch.setattr(exotwist.scan, "offsets_count", shifted)
        # task (3,4) counts (3,4,6) and recounts (3,4,5), its first
        # pairwise-coprime row
        config = ScanConfig(q_max=4, r_max=7, mode="all", format="csv", emit_all=True)
        with pytest.raises(ConsistencyError, match=r"\(3,4,5\) disagrees: -8 \(count\) vs -16"):
            run_scan(config)
        assert main(["scan", "--q-max", "4", "--r-max", "7", "--format", "csv", "--all"]) == 3
        captured = capsys.readouterr()
        assert "2,4,7," in captured.out and "\n3,4," not in captured.out
        assert captured.err.startswith("error: internal defect: sigma of (3,4,5)")
        # certify takes sigma from Dedekind sums and never reads the count
        inv = certify(Triple(3, 4, 7)).invariants
        assert (inv.sigma, inv.sigma_plus) == (-24, 6)

    def test_count_too_large_is_refused(self, monkeypatch, capsys):
        for argv in (
            ["certify", "--triple", "2,10000000000,10000000001"],
            ["signature", "--torus", "20000001", "20000003", "--method", "count"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: lattice count over exponents (2, ")
            assert captured.err.count("\n") == 1
        monkeypatch.setattr(milnor, "_MAX_TERMS", 1)
        for jobs in ("1", "2"):
            # only an --all scan counts
            argv = ["scan", "--mode", "theorem1", "--q-max", "7", "--r-max", "11", "--all"]
            assert main([*argv, "--jobs", jobs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: lattice count over exponents (2, 3) needs 2 terms, "
                "more than the 1 it may hold in memory\n"
            )

    def test_cold_certify_imports_numpy_only_to_count(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        probe = (
            "import sys; from exotwist.cli import main; code = main(sys.argv[1:]); "
            "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)"
        )
        for triple, code, numpy_loaded in (
            ("2,7,11", 0, False),
            ("2,10000000001,10000000003", 0, False),
            ("2,10000000000,10000000001", 2, False),
            ("4,6,8", 1, True),
        ):
            done = subprocess.run(
                [sys.executable, "-c", probe, "certify", "--triple", triple],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == code, (triple, done.stderr)
            assert done.stderr.splitlines()[-1] == str(numpy_loaded), triple

    def test_scan_imports_numpy_only_to_count(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        probe = (
            "import sys; from exotwist.cli import main; code = main(sys.argv[1:]); "
            "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)"
        )
        # without --all every emitted row is pairwise coprime
        for extra, numpy_loaded in (([], False), (["--all"], True)):
            done = subprocess.run(
                [sys.executable, "-c", probe, "scan", "--q-max", "30", "--r-max", "30", *extra],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 0, (extra, done.stderr)
            assert done.stderr.splitlines()[-1] == str(numpy_loaded), extra

    def test_closed_stdout_is_an_io_error(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        for argv in (
            ["certify", "--triple", "2,3,7"],
            ["certify", "--triple", "3,4,5", "--format", "json"],
            ["scan", "--mode", "theorem1", "--q-max", "7", "--r-max", "7"],
            ["signature", "--torus", "3", "7"],
        ):
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(argv) == 2, argv

    def test_closed_pipe_exits_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "exotwist.cli", "certify", "--triple", "2,3,7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # no reader is left before the first write
        try:
            err = proc.stderr.read()
        finally:
            proc.stderr.close()
            code = proc.wait(timeout=60)
        assert (code, err) == (2, b"")

    def test_certify_json_output(self, capsys):
        assert main(["certify", "--triple", "2,3,11", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["route"] == "DIRECT"
        assert payload["invariants"]["d3"] == "3/2"

    def test_certify_csv_output(self, capsys):
        main(["certify", "--triple", "2,3,7", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert out == [CSV_HEADER, "2,3,7,DIRECT,12,-8,2,10,-1/2,2,"]

    def test_certify_text_default(self, capsys):
        main(["certify", "--triple", "2,5,7"])
        out = capsys.readouterr().out
        assert "route         EMBEDDING" in out

    def test_scan_matches_library(self, capsys):
        assert main([
            "scan", "--mode", "theorem1", "--q-max", "11", "--r-max", "11",
            "--format", "csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out == run_scan(
            ScanConfig(q_max=11, r_max=11, mode="theorem1", format="csv")
        )

    def test_scan_bad_bounds(self, capsys):
        assert main(["scan", "--q-max", "2", "--r-max", "7"]) == 2
        capsys.readouterr()

    def test_scan_unwritable_cache(self, tmp_path, capsys):
        code = main([
            "scan", "--q-max", "5", "--r-max", "7",
            "--cache", str(tmp_path / "missing" / "c.jsonl"),
        ])
        assert code == 2
        assert "c.jsonl" in capsys.readouterr().err

    def test_signature_methods(self, capsys):
        assert main(["signature", "--torus", "3", "7", "--method", "count"]) == 0
        assert capsys.readouterr().out.strip() == "-8"
        assert main(["signature", "--torus", "3", "7", "--method", "seifert"]) == 0
        assert capsys.readouterr().out.strip() == "-8"
        assert main(["signature", "--torus", "3", "7"]) == 0
        out = capsys.readouterr().out
        assert "count    -8" in out and "seifert  -8" in out

    def test_signature_rejects_links(self, capsys):
        assert main(["signature", "--torus", "4", "6", "--method", "both"]) == 2
        capsys.readouterr()

    def test_signature_dimension_cap(self, capsys):
        assert main(["signature", "--torus", "26", "401", "--method", "seifert"]) == 2
        err = capsys.readouterr().err
        assert "dimension" in err

    def test_signature_both_past_the_cap(self, capsys):
        assert main(["signature", "--torus", "26", "401"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "count    -5212",
            "seifert  skipped (dimension 10000 > limit 600)",
        ]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main([]) == 2
        capsys.readouterr()
