"""End-to-end benchmark of the PageRankVM reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload fleet_day --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice, each time in a fresh process, untraced and then traced,
and prints the per-layer metrics, the unattributed time and the tracing
overhead.  The last line of standard output is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run records (and, for traced runs, every span) are written under
``.bench_out/`` in the repository root.  See README.md in this directory for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import HostSpeed
from layers import PER_LAYER_UNITS, Layers, Probes
from tracer import Patcher, Tracer, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
FINGERPRINTS = OUT_DIR / "fingerprints.json"

#: Fresh processes that only set up, besides the measuring process
#: itself; ``setup_s`` is the median of the 1 + SETUP_PROBES samples.
SETUP_PROBES = 2

E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "placements_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "within_limit_share": "ratio",
    "pms_used": "count",
    "energy_kwh": "kWh",
    "peak_rss_mb": "MB",
}

#: The result a run that failed its correctness gate prints.
_FAILED = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", choices=("setup", "untraced"),
        help="run one cold part in this process and print it as JSON: "
             "'setup' the set-up seconds (the extra setup_s samples), "
             "'untraced' the untraced pass of a --trace 1 run",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (a benchmark checkout may carry no ``.git`` at all)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _stamp(src: Path) -> Dict[str, Any]:
    from importlib import metadata

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": _git_sha(ROOT),
        "src_digest": _source_digest(src),
        "bench_digest": _source_digest(HERE),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _raw(start: float, end: float) -> float:
    return end - start


def _run_pass(cls, seed: int, seconds: int, tracer=None, host=None,
              import_span: Tuple[float, float] = (0.0, 0.0),
              ) -> Tuple[float, Any, Any]:
    """Set up, warm up, measure and check one fresh workload object.

    Returns (setup seconds, Measured, Layers or None).  With a tracer,
    the layer wrappers are in place for setup, warm-up and the measured
    phase, and spans are tagged with the phase they ran in.  With a
    started HostSpeed, it is stopped when the measured phase ends, and
    set-up and measured times are taken at the reference host speed.
    ``import_span`` is when importing the program started and ended; it
    counts in the set-up.
    """
    patcher = Patcher()
    probes = Probes()
    layers = Layers(tracer) if tracer is not None else None
    workload = None
    try:
        if layers is not None:
            layers.install(patcher)
            tracer.phase = "setup"
        start = time.perf_counter()
        workload = cls(seed, seconds)
        workload.setup()
        setup_span = (start, time.perf_counter())
        if tracer is not None:
            tracer.phase = "warmup"
        workload.warmup()
        probes.install(patcher)

        clock = SimpleNamespace(wall_s=0.0, adjusted_s=0.0, duration=_raw,
                                slowdown=1.0)

        @contextlib.contextmanager
        def timed():
            probes.reset()
            gc.collect()
            root = contextlib.nullcontext()
            if tracer is not None:
                layers.start_measured()
                tracer.phase = "measured"
                root = tracer.root("measured")
            with root:
                spent = host.spent_s if host is not None else 0.0
                start = time.perf_counter()
                yield clock
                end = time.perf_counter()
            clock.wall_s = end - start
            clock.adjusted_s = clock.wall_s
            if host is not None:
                host.stop()
                clock.wall_s -= host.spent_s - spent
                clock.adjusted_s = host.adjust(start, end)
                clock.duration = host.adjust
                clock.slowdown = host.slowdown(start, end)
            if tracer is not None:
                tracer.phase = "check"

        measured = workload.measure(timed, probes)
        measured.slowdown = clock.slowdown
        patcher.restore()
        workload.check(measured)
        duration = host.adjust if host is not None else _raw
        setup_s = duration(*import_span) + duration(*setup_span)
        return setup_s, measured, layers
    finally:
        patcher.restore()
        if host is not None:
            host.stop()
        close = getattr(workload, "close", None)
        if close is not None:
            close()


class ProbeError(RuntimeError):
    """A probe process failed; the run reports no numbers."""


def _probe(args: argparse.Namespace, kind: str) -> Dict[str, Any]:
    """Run one ``--probe`` in a fresh process and return what it printed."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--probe", kind,
    ]
    done = subprocess.run(
        cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=150
    )
    if done.returncode != 0:
        raise ProbeError(
            f"{kind} probe exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_fingerprint(key: str, fingerprint: Dict[str, Any]) -> str:
    """Record the run's decision fingerprint, or compare it with the one
    an earlier run of the same seed, size and source recorded."""
    from workloads import GateError

    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    OUT_DIR.mkdir(exist_ok=True)
    recorded: Dict[str, str] = {}
    if FINGERPRINTS.is_file():
        recorded = json.loads(FINGERPRINTS.read_text())
    previous = recorded.get(key)
    if previous is not None and previous != digest:
        raise GateError(
            f"decision fingerprint {digest[:16]} differs from the one "
            f"recorded for {key!r} ({previous[:16]})"
        )
    if previous is None:
        recorded[key] = digest
        temp = FINGERPRINTS.with_suffix(".tmp")
        temp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
        os.replace(temp, FINGERPRINTS)
    return digest


def _windows(latencies: List[float], most: int) -> List[List[float]]:
    """The run's samples in at most ``most`` consecutive time windows of
    1000 samples or more each."""
    count = min(most, max(1, len(latencies) // 1000))
    size = len(latencies) / count
    return [
        latencies[round(i * size):round((i + 1) * size)]
        for i in range(count)
    ]


def _end_to_end(measured, setup_samples: List[float]) -> Dict[str, float]:
    # Latency grows as a fleet fills.  Per window, the p50 is averaged
    # over the run, as throughput is, and the p90 is the median window's,
    # so the last seconds do not decide it.  A workload whose latency
    # does not drift takes a single window.
    windows = _windows(measured.latencies_ms, measured.windows)
    return {
        "setup_s": statistics.median(setup_samples),
        "placements_per_s": measured.placements / measured.adjusted_s,
        "latency_p50_ms": statistics.fmean(
            percentile(w, 50) for w in windows
        ),
        "latency_p90_ms": statistics.median(
            percentile(w, 90) for w in windows
        ),
        "within_limit_share": measured.quality["within_limit_share"],
        "pms_used": measured.quality["pms_used"],
        "energy_kwh": measured.quality["energy_kwh"],
        "peak_rss_mb": _peak_rss_mb(),
    }


def _emit(args, stamp, metrics, units, measured, extra) -> None:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "attempted": measured.attempted,
        "failed": measured.failed,
        "measured_wall_s": measured.wall_s,
        "measured_adjusted_s": measured.adjusted_s,
        "latency_samples": len(measured.latencies_ms),
    }
    record.update(extra)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"measured_wall_s {measured.wall_s:.4f}  "
          f"adjusted_s {measured.adjusted_s:.4f}  "
          f"host_slowdown {measured.slowdown:.3f}  "
          f"latency_samples {len(measured.latencies_ms)}  "
          f"attempted {measured.attempted}  failed {measured.failed}")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:14.6g} {units[key]}")
    print(json.dumps({
        "correct": True,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": record["metrics"],
    }))


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    args = _parse(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources at {src}/repro; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Cold setup includes importing the program, as a user's process
    # pays it.  The probe processes run before this process imports
    # anything, so each of them, and this process's own pass, starts
    # equally cold.
    probe_samples: List[float] = []
    untraced: Dict[str, Any] = {}
    try:
        if args.probe is None and args.trace == 0:
            probe_samples = [
                float(_probe(args, "setup")["setup_s"])
                for _ in range(SETUP_PROBES)
            ]
        elif args.probe is None:
            untraced = _probe(args, "untraced")
    except ProbeError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        print(json.dumps(_FAILED))
        return 1
    # Every untraced pass samples the host's speed from here on; the
    # traced pass does not, so that its spans hold only program time.
    host = HostSpeed() if args.trace == 0 or args.probe else None
    try:
        if host is not None:
            host.start()
        return _measure(args, src, host, probe_samples, untraced, started)
    finally:
        if host is not None:
            host.stop()


def _measure(args, src: Path, host: Optional[HostSpeed],
             probe_samples: List[float], untraced: Dict[str, Any],
             started: float) -> int:
    import_start = time.perf_counter()
    import workloads

    import_span = (import_start, time.perf_counter())
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"e2ebench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe == "setup":
        start = time.perf_counter()
        workload = cls(args.seed, args.seconds)
        workload.setup()
        end = time.perf_counter()
        host.stop()
        elapsed = host.adjust(*import_span) + host.adjust(start, end)
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        print(json.dumps({"setup_s": elapsed}))
        return 0

    stamp = _stamp(src)
    key = (f"{args.workload} seed={args.seed} seconds={args.seconds} "
           f"src={stamp['src_digest']} bench={stamp['bench_digest']}")
    try:
        if args.trace == 0 or args.probe == "untraced":
            setup_s, measured, _ = _run_pass(cls, args.seed, args.seconds,
                                             host=host,
                                             import_span=import_span)
            fingerprint = _check_fingerprint(key, measured.fingerprint)
            if args.probe == "untraced":
                print(json.dumps({"wall_s": measured.wall_s,
                                  "fingerprint": fingerprint}))
                return 0
            metrics = _end_to_end(measured, [setup_s] + probe_samples)
            extra = {"setup_samples_s": [setup_s] + probe_samples,
                     "host_slowdown": measured.slowdown}
            units = E2E_UNITS
        else:
            tracer = Tracer()
            _, measured, layers = _run_pass(cls, args.seed, args.seconds,
                                            tracer=tracer)
            fingerprint = _check_fingerprint(key, measured.fingerprint)
            metrics = layers.metrics(
                measured.wall_s, untraced["wall_s"], measured.counters
            )
            units = PER_LAYER_UNITS
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
            spans.write_text(json.dumps({
                "columns": ["name", "start", "end", "parent", "request",
                            "size", "phase"],
                "spans": tracer.spans,
            }))
            extra = {"spans_file": spans.name, "spans": len(tracer.spans),
                     "untraced_wall_s": untraced["wall_s"]}
    except workloads.GateError as error:
        print(f"e2ebench: correctness gate failed: {error}", file=sys.stderr)
        print(json.dumps(_FAILED))
        return 1
    extra.update(fingerprint=fingerprint,
                 process_wall_s=time.perf_counter() - started)
    _emit(args, stamp, metrics, units, measured, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
