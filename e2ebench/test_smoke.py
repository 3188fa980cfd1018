"""Smoke tests for the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest e2ebench -q

Every workload runs at toy size (``--seconds 1``) in a scratch copy of
the benchmark whose ``src`` links to the real sources, so the recorded
fingerprints and spans never touch the repository's ``.bench_out``.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from layers import PER_LAYER_UNITS, Probes  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from tracer import Patcher  # noqa: E402

import workloads  # noqa: E402


@pytest.fixture()
def checkout(tmp_path: Path) -> Path:
    """A scratch checkout: the benchmark copied, the sources linked."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _run(root: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=str(root), capture_output=True, text=True, timeout=600,
    )


def _result(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_run_emits_every_metric(checkout: Path, workload: str, trace: int):
    done = _run(checkout, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = _result(done)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = E2E_UNITS if trace == 0 else PER_LAYER_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        spans = checkout / ".bench_out" / f"{workload}-seed3-spans.json"
        assert json.loads(spans.read_text())["spans"]


def test_tampered_fingerprint_fails_the_run(checkout: Path):
    assert _run(checkout, "fleet_day", 0).returncode == 0
    store = checkout / ".bench_out" / "fingerprints.json"
    recorded = json.loads(store.read_text())
    assert len(recorded) == 1
    key = next(iter(recorded))
    recorded[key] = "0" * 64
    store.write_text(json.dumps(recorded))
    done = _run(checkout, "fleet_day", 0)
    assert done.returncode == 1
    assert _result(done) == {"correct": False, "attempted": 0, "failed": 0,
                             "metrics": {}}
    assert "fingerprint" in done.stderr


def test_without_sources_it_fails_without_a_result(tmp_path: Path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "fleet_day", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def _measure(workload):
    """Set up and measure a workload in this process, probes installed."""
    patcher = Patcher()
    probes = Probes()

    @contextlib.contextmanager
    def timed():
        clock = SimpleNamespace(wall_s=0.0, adjusted_s=0.0,
                                duration=lambda start, end: end - start)
        start = time.perf_counter()
        yield clock
        clock.wall_s = clock.adjusted_s = time.perf_counter() - start

    workload.setup()
    probes.install(patcher)
    try:
        return workload.measure(timed, probes)
    finally:
        patcher.restore()


@pytest.mark.parametrize("cls", [workloads.PaperFig, workloads.FleetDay])
def test_tampered_simulation_state_trips_the_gate(cls):
    workload = cls(seed=3, seconds=1)
    measured = _measure(workload)
    workload.check(measured)
    datacenter = measured.final["datacenters"][0]
    victim = datacenter.used_machines()[0].allocations[0].vm_id
    datacenter.evict(victim)
    with pytest.raises(workloads.GateError, match="C1"):
        workload.check(measured)


def test_tampered_service_state_trips_the_gate():
    workload = workloads.ServePlace(seed=3, seconds=1)
    try:
        measured = _measure(workload)
        workload.check(measured)
        datacenter = workload.service.datacenter
        datacenter.evict(datacenter.used_machines()[0].allocations[0].vm_id)
        with pytest.raises(workloads.GateError, match="hosted"):
            workload.check(measured)
    finally:
        workload.close()
