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
import exotwist.scan
from exotwist.arith import Triple
from exotwist.cache import FORMULA_VERSION, InvariantCache
from exotwist.certify import CSV_HEADER, Certificate, certify
from exotwist.cli import main
from exotwist.errors import ConsistencyError, PreconditionError
from exotwist.milnor import invariants
from exotwist.scan import ScanConfig, run_scan, scan_certificates


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
        real = exotwist.scan.knot_signature_seifert
        monkeypatch.setattr(
            exotwist.scan, "knot_signature_seifert",
            lambda q, r, **kw: real(q, r, **kw) + 8,
        )
        with pytest.raises(ConsistencyError, match="Seifert"):
            run_scan(ScanConfig(q_max=7, r_max=11, mode="theorem1", format="csv"))
        assert main(["scan", "--mode", "theorem1", "--q-max", "7", "--r-max", "11"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal defect: ")

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
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
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

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main([]) == 2
        capsys.readouterr()
