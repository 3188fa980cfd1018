"""Append-safe access to the BENCH_perf.json trajectory file.

The perf harness and the scale sweep both append entries to one shared
JSON file, sometimes from concurrent CI jobs.  This module makes those
appends safe:

* writers take an exclusive advisory lock on a ``.lock`` sidecar (via
  ``fcntl`` where available) so two appenders cannot interleave a
  read-modify-write;
* the payload is schema-validated on load, so a truncated or foreign
  file is rejected up front instead of silently replaced;
* the rewrite goes through a temp file + ``os.replace`` so readers never
  observe a half-written trajectory;
* a file that fails validation is quarantined (renamed with a
  ``.corrupt`` suffix) rather than overwritten, preserving the evidence.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.util.validation import ValidationError

try:  # POSIX only; the sweep still works (unlocked) elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "BENCH_FORMAT",
    "bench_lock",
    "validate_payload",
    "load_trajectory",
    "append_entry",
    "latest_entry",
    "host_stamp",
]

BENCH_FORMAT = "repro.bench_perf.v1"


def host_stamp() -> Dict[str, object]:
    """Where an entry was measured: cores, library versions (read from
    package metadata, importing neither) and, as ``git_sha``, ``git
    describe --always --dirty`` of the checkout (so an entry recorded
    on uncommitted changes says so)."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count() or 1, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_sha": sha,
    }


@contextlib.contextmanager
def bench_lock(out: Path) -> Iterator[None]:
    """Exclusive advisory lock scoped to one trajectory file.

    Locks a ``.lock`` sidecar rather than the file itself so the atomic
    ``os.replace`` of the payload never invalidates the held lock.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = out.with_name(out.name + ".lock")
    with open(lock_path, "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def validate_payload(payload: object, source: str = "payload") -> None:
    """Check the trajectory schema; raises ``ValidationError`` on drift.

    The schema is deliberately shallow — a format tag plus a list of
    dict entries — because entries grow new keys every time the harness
    gains a phase.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{source}: expected a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format") != BENCH_FORMAT:
        raise ValidationError(
            f"{source}: unrecognized bench format {payload.get('format')!r} "
            f"(expected {BENCH_FORMAT!r})"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise ValidationError(
            f"{source}: 'entries' must be a list, got "
            f"{type(entries).__name__}"
        )
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"{source}: entry {i} must be an object, got "
                f"{type(entry).__name__}"
            )


def load_trajectory(out: Path) -> Dict[str, object]:
    """Load and validate a trajectory file.

    Raises:
        ValidationError: when the file is not valid JSON or does not
            match the trajectory schema.
    """
    try:
        payload = json.loads(out.read_text())
    except json.JSONDecodeError as error:
        raise ValidationError(f"{out}: not valid JSON ({error})") from error
    validate_payload(payload, source=str(out))
    return payload


def latest_entry(
    out: Path, phase: Optional[str] = None
) -> Optional[Dict[str, object]]:
    """The newest entry of a trajectory, optionally filtered by phase.

    Returns None for a missing file or when no entry matches — the CI
    smoke jobs use this to assert a phase actually recorded something.

    Raises:
        ValidationError: when the file exists but fails validation.
    """
    if not out.exists():
        return None
    entries: List[Dict[str, object]] = load_trajectory(out)["entries"]
    if phase is not None:
        entries = [e for e in entries if e.get("phase") == phase]
    return entries[-1] if entries else None


def _quarantine(out: Path) -> Path:
    """Move a corrupt trajectory aside, returning the quarantine path."""
    corrupt = out.with_name(out.name + ".corrupt")
    os.replace(out, corrupt)
    return corrupt


def append_entry(
    entry: Dict[str, object], out: Path, strict: bool = False
) -> None:
    """Append one entry under the file lock; atomic rewrite.

    A corrupt existing file is quarantined to ``<name>.corrupt`` and a
    fresh trajectory started (the default, so an interrupted CI write
    can never wedge every later benchmark run); ``strict=True`` raises
    instead, for callers that must not lose history silently.

    Raises:
        ValidationError: in strict mode, when the existing file fails
            validation.
    """
    with bench_lock(out):
        if out.exists():
            try:
                payload = load_trajectory(out)
            except ValidationError:
                if strict:
                    raise
                quarantined = _quarantine(out)
                payload = {
                    "format": BENCH_FORMAT,
                    "entries": [],
                    "quarantined": str(quarantined.name),
                }
        else:
            payload = {"format": BENCH_FORMAT, "entries": []}
        entries: List[Dict[str, object]] = payload["entries"]
        entries.append(entry)
        tmp = out.with_name(out.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, out)
