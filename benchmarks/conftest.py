"""Shared benchmark configuration.

Every figure bench regenerates its paper artifact and prints it, so a
``pytest benchmarks/ --benchmark-only`` run reads like the paper's
evaluation section.  Scale is controlled by ``REPRO_BENCH_SCALE``:

* ``small`` (default) — a faithful scaled-down grid that preserves each
  figure's shape and finishes in minutes;
* ``paper`` — the paper's grid (1000-3000 VMs, 100 repetitions).  On a
  2-CPU host, run serially, one repetition of the four simulation
  policies took 1.7-3.5 s at 1000 VMs and 5.8-9.6 s at 3000 VMs once
  the score tables existed (3.0-5.0 s and 9.1-11.8 s for a fresh
  process's first repetition, tables included), so the simulation grid
  of Figures 3/5/6/7 takes about an hour on one core for both traces.
  The testbed grid (Figures 4/8) was not timed.
"""

import os

import pytest

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")

if SCALE == "paper":
    SIM_GRID = dict(n_vms_list=(1000, 2000, 3000), repetitions=100)
    TESTBED_GRID = dict(n_jobs_list=(100, 200, 300), repetitions=100)
else:
    SIM_GRID = dict(n_vms_list=(200, 400, 600), repetitions=3)
    TESTBED_GRID = dict(
        n_jobs_list=(100, 200, 300), repetitions=3, duration_s=2 * 3600.0
    )


@pytest.fixture(scope="session")
def sim_grid():
    """Simulation grid (Figures 3/5/6/7) at the configured scale."""
    return dict(SIM_GRID)


@pytest.fixture(scope="session")
def testbed_grid():
    """Testbed grid (Figures 4/8) at the configured scale."""
    return dict(TESTBED_GRID)


@pytest.fixture
def emit(capsys):
    """Print a figure/table to the real terminal from inside a test."""

    def _emit(text):
        with capsys.disabled():
            print()
            print(text)

    return _emit
