"""Append-safety of the shared BENCH_perf.json trajectory file."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.util.benchfile import (
    BENCH_FORMAT,
    append_entry,
    bench_lock,
    host_stamp,
    load_trajectory,
    validate_payload,
)
from repro.util.validation import ValidationError


class TestValidatePayload:
    def test_accepts_minimal_trajectory(self):
        validate_payload({"format": BENCH_FORMAT, "entries": []})
        validate_payload({"format": BENCH_FORMAT, "entries": [{"a": 1}]})

    @pytest.mark.parametrize("payload", [
        [],                                        # not an object
        {},                                        # no format tag
        {"format": "something.else", "entries": []},
        {"format": BENCH_FORMAT},                  # entries missing
        {"format": BENCH_FORMAT, "entries": {}},   # entries not a list
        {"format": BENCH_FORMAT, "entries": [3]},  # entry not an object
    ])
    def test_rejects_schema_drift(self, payload):
        with pytest.raises(ValidationError):
            validate_payload(payload)


class TestAppendEntry:
    def test_creates_and_appends(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        append_entry({"run": 1}, out)
        append_entry({"run": 2}, out)
        payload = load_trajectory(out)
        assert payload["format"] == BENCH_FORMAT
        assert [e["run"] for e in payload["entries"]] == [1, 2]

    def test_quarantines_truncated_file(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        out.write_text('{"format": "repro.bench_perf.v1", "entr')  # truncated
        append_entry({"run": 1}, out)
        payload = load_trajectory(out)
        assert [e["run"] for e in payload["entries"]] == [1]
        assert payload["quarantined"] == "BENCH_perf.json.corrupt"
        corrupt = tmp_path / "BENCH_perf.json.corrupt"
        assert corrupt.read_text().startswith('{"format"')  # evidence kept

    def test_quarantines_foreign_file(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        out.write_text(json.dumps({"something": "else"}))
        append_entry({"run": 1}, out)
        assert (tmp_path / "BENCH_perf.json.corrupt").exists()
        assert [e["run"] for e in load_trajectory(out)["entries"]] == [1]

    def test_strict_mode_raises_instead_of_quarantining(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        out.write_text("not json at all")
        with pytest.raises(ValidationError):
            append_entry({"run": 1}, out, strict=True)
        assert out.read_text() == "not json at all"  # untouched
        assert not (tmp_path / "BENCH_perf.json.corrupt").exists()

    def test_no_partial_writes_left_behind(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        append_entry({"run": 1}, out)
        assert not (tmp_path / "BENCH_perf.json.tmp").exists()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_trajectory(tmp_path / "absent.json")


class TestBenchLock:
    def test_lock_is_reentrant_across_processes_only(self, tmp_path):
        # Single-process sanity: acquire/release leaves the sidecar.
        out = tmp_path / "BENCH_perf.json"
        with bench_lock(out):
            assert (tmp_path / "BENCH_perf.json.lock").exists()
        with bench_lock(out):
            pass

    def test_concurrent_appends_do_not_lose_entries(self, tmp_path):
        # Two appenders racing through the locked read-modify-write:
        # every entry must survive.  (Threads share the GIL, so this
        # exercises the protocol, not true parallelism.)
        import threading

        out = tmp_path / "BENCH_perf.json"
        errors = []

        def worker(tag):
            try:
                for i in range(10):
                    append_entry({"tag": tag, "i": i}, out)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(load_trajectory(out)["entries"]) == 40


class TestHostStamp:
    def test_keys_and_versions(self):
        import numpy
        import scipy

        stamp = host_stamp()
        assert set(stamp) == {"cpu_count", "python", "numpy", "scipy", "git_sha"}
        assert stamp["numpy"] == numpy.__version__
        assert stamp["scipy"] == scipy.__version__

    def test_stamping_does_not_import_scipy(self):
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys\n"
            "from repro.util.benchfile import host_stamp\n"
            "host_stamp()\n"
            "print('scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
