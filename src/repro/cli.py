"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``rank``      — build a toy-world score table and print the ranking.
* ``simulate``  — run the EC2 simulation for one or more policies.
* ``testbed``   — run the GENI testbed emulation.
* ``figures``   — regenerate one of the paper's figures as a text table.
* ``exact``     — solve a small random instance exactly and report
  heuristic gaps.
* ``graph``     — build (and cache) profile graphs for EC2 PM shapes;
  ``graph build`` exercises the frontier BFS and the on-disk graph
  cache directly.
* ``bench``     — performance measurements outside the full harness;
  ``bench sweep --pms N`` runs the columnar scale sweep (allocate +
  simulate at N PMs).
* ``perf``      — trajectory analysis; ``perf check`` gates the latest
  BENCH_perf.json entry of each phase against per-phase baselines
  (median of recent history) and fails on statistically significant
  degradation.
* ``lint``      — run the domain-aware static linter (PRV rules) over
  source trees; ``--format json|sarif`` emits machine-readable output
  and ``--strict-suppressions`` fails on stale ``# prv: disable``
  comments.
* ``sanitize``  — lockstep twin-execution divergence sanitizer;
  ``sanitize run --twin soa`` drives the seed scan on the object
  datacenter and the struct-of-arrays substrate from one seed and
  bisects to the first diverging event on mismatch.
* ``audit``     — replay a saved artifact (score table or placements)
  against the MIP constraints (1)-(11); ``--format json|sarif`` emits
  machine-readable reports, as for ``lint``.
* ``serve``     — placement-as-a-service: ``serve run`` exposes the
  ASGI app over HTTP (uvicorn required), ``serve loadgen`` measures
  p50/p99 latency and placements/s through the in-process client, and
  ``serve chaos`` replays a fault schedule against a live service,
  asserting every request resolves to exactly one outcome.

All commands take ``--seed`` and print deterministic output for a given
seed, so CLI runs are as reproducible as library calls.  Every command
that builds score tables or profile graphs keeps the graphs in the
on-disk cache named by ``$REPRO_TABLE_CACHE`` (none when it is unset).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    from repro.analysis.sanitize import TWIN_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PageRankVM reproduction toolkit (ICDCS 2018)",
        epilog="Set REPRO_TABLE_CACHE=DIR to keep built profile graphs "
               "in DIR across runs and worker processes; every command "
               "that builds score tables or graphs loads them from it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser(
        "rank", help="rank the toy-world profiles with Algorithm 1"
    )
    rank.add_argument("--capacity", type=int, default=4,
                      help="per-core capacity of the toy PM (default 4)")
    rank.add_argument("--cores", type=int, default=4,
                      help="number of cores (default 4)")
    rank.add_argument("--damping", type=float, default=0.85)
    rank.add_argument("--direction", choices=("forward", "reverse"),
                      default="forward")
    rank.add_argument("--top", type=int, default=10,
                      help="how many top profiles to print")

    simulate = sub.add_parser(
        "simulate", help="run the EC2 trace-driven simulation"
    )
    simulate.add_argument("--vms", type=int, default=200)
    simulate.add_argument("--trace", choices=("planetlab", "google"),
                          default="planetlab")
    simulate.add_argument("--policies", nargs="+",
                          default=["PageRankVM", "CompVM", "FFDSum", "FF"])
    simulate.add_argument("--repetitions", type=int, default=3)
    simulate.add_argument("--seed", type=int, default=2018)
    simulate.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the (policy, repetition) grid; "
             "0 means one per CPU.  Results are bit-identical to "
             "--workers 1 (default)")
    simulate.add_argument(
        "--audit", action="store_true",
        help="validate every run's final placements against the MIP "
             "constraints (1)-(11) inside the worker that produced them")
    simulate.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject a deterministic fault schedule: comma-separated "
             "key=value pairs, e.g. 'pm-crash=2,pm-downtime=1800,"
             "vm-flap=3,mig-fail=0.1' (keys: pm-crash, pm-downtime, "
             "vm-flap, flap-downtime, monitor-drop, drop-duration, "
             "mig-fail, restart-fail, latency)")
    simulate.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="atomic JSON checkpoint recording every finished "
             "(policy, repetition) cell as it completes; enables --resume")
    simulate.add_argument(
        "--resume", action="store_true",
        help="skip cells already recorded in --checkpoint; the combined "
             "output is bit-identical to an uninterrupted run")
    simulate.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per grid cell before it is recorded as a failed "
             "cell instead of aborting the grid (default 3)")
    simulate.add_argument(
        "--cell-timeout", type=float, default=None, metavar="S",
        help="per-cell wall-clock timeout in seconds "
             "(parallel runs only; default: no timeout)")

    testbed = sub.add_parser("testbed", help="run the GENI testbed emulation")
    testbed.add_argument("--jobs", type=int, default=200)
    testbed.add_argument("--policies", nargs="+",
                         default=["PageRankVM", "CompVM", "FFDSum", "FF"])
    testbed.add_argument("--hours", type=float, default=1.0)
    testbed.add_argument("--seed", type=int, default=2018)

    figures = sub.add_parser(
        "figures", help="regenerate a paper figure as a text table"
    )
    figures.add_argument("figure",
                         choices=("fig3", "fig4", "fig5", "fig6", "fig7",
                                  "fig8"))
    figures.add_argument("--trace", choices=("planetlab", "google"),
                         default="planetlab")
    figures.add_argument("--repetitions", type=int, default=3)
    figures.add_argument("--scale", type=int, nargs="+",
                         default=[200, 400, 600],
                         help="grid of VM (or job) counts")
    figures.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the simulation grid; 0 means one per "
             "CPU (simulation figures only)")

    exact = sub.add_parser(
        "exact", help="solve a small random instance exactly"
    )
    exact.add_argument("--vms", type=int, default=8)
    exact.add_argument("--pms", type=int, default=5)
    exact.add_argument("--seed", type=int, default=2018)

    graph = sub.add_parser(
        "graph", help="build (and cache) profile graphs"
    )
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    graph_build = graph_sub.add_parser(
        "build", help="construct the profile graph for EC2 PM shapes"
    )
    graph_build.add_argument(
        "--pm", nargs="+", default=["M3"], metavar="SHAPE",
        help="EC2 PM shape names to build graphs for (default: M3)")
    graph_build.add_argument(
        "--strategy", choices=("balanced", "all"), default="balanced",
        help="successor strategy (default: balanced, as in the EC2 "
             "simulations)")
    graph_build.add_argument(
        "--mode", choices=("reachable", "full"), default="reachable")
    graph_build.add_argument(
        "--node-limit", type=int, default=1_000_000,
        help="abort once the graph would exceed this many nodes")

    bench = sub.add_parser(
        "bench", help="performance measurements outside the full harness"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_sweep = bench_sub.add_parser(
        "sweep",
        help="columnar scale sweep: allocate + simulate at each --pms size",
    )
    bench_sweep.add_argument(
        "--pms", type=int, nargs="+", metavar="N",
        default=[480, 5_000, 50_000, 100_000],
        help="datacenter sizes to measure (default: 480 5000 50000 100000)")
    bench_sweep.add_argument(
        "--quick", action="store_true",
        help="simulate a 2h horizon instead of the paper's 24h day")
    bench_sweep.add_argument(
        "--out", metavar="FILE", default=None,
        help="append the sweep entry to this BENCH trajectory file")

    perf = sub.add_parser(
        "perf", help="BENCH_perf.json trajectory analysis"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_check = perf_sub.add_parser(
        "check",
        help="gate the latest entry per phase against its own history",
    )
    perf_check.add_argument(
        "--file", metavar="FILE", default="BENCH_perf.json",
        help="trajectory file to check (default: BENCH_perf.json)")
    perf_check.add_argument(
        "--window", type=int, default=8, metavar="K",
        help="baseline = median of up to K prior entries (default: 8)")
    perf_check.add_argument(
        "--tolerance", type=float, default=0.30, metavar="F",
        help="relative degradation always tolerated (default: 0.30)")
    perf_check.add_argument(
        "--sigma", type=float, default=3.0, metavar="S",
        help="extra allowance in robust (MAD-based) standard "
             "deviations of the baseline window (default: 3.0)")
    perf_check.add_argument(
        "--min-history", type=int, default=3, metavar="N",
        help="prior comparable entries needed before a metric's gate "
             "arms (default: 3)")
    perf_check.add_argument(
        "--phase", action="append", default=None, metavar="PHASE",
        help="check only this phase (repeatable; default: all known)")

    lint = sub.add_parser(
        "lint", help="run the domain-aware static linter (PRV rules)"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="finding output format (default: text); sarif emits SARIF "
             "2.1.0 for GitHub code-scanning annotations")
    lint.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the formatted findings to FILE instead of stdout")
    lint.add_argument(
        "--strict-suppressions", action="store_true",
        help="fail (exit 1) when a '# prv: disable=' comment names a "
             "rule that never fires on its line")

    sanitize = sub.add_parser(
        "sanitize",
        help="lockstep twin-execution divergence sanitizer",
    )
    sanitize_sub = sanitize.add_subparsers(
        dest="sanitize_command", required=True
    )
    sanitize_run = sanitize_sub.add_parser(
        "run",
        help="run a twin pair from one seed and compare decision streams",
    )
    sanitize_run.add_argument(
        "--twin", choices=TWIN_NAMES, default="soa",
        help="twin pair: soa (seed scan on the object datacenter vs "
             "struct-of-arrays), kernel (DAG-sweep vs iterative rank "
             "kernel); default: soa")
    sanitize_run.add_argument(
        "--pms", type=int, default=480, metavar="N",
        help="M3 fleet size (default: 480, the paper's scale)")
    sanitize_run.add_argument(
        "--quick", action="store_true",
        help="simulate a 2h horizon instead of the paper's 24h day")
    sanitize_run.add_argument("--seed", type=int, default=0)
    sanitize_run.add_argument(
        "--max-ulps", type=int, default=None, metavar="N",
        help="float-stream tolerance override in units-in-the-last-"
             "place (default: the twin's documented bound)")
    sanitize_run.add_argument(
        "--dump", metavar="FILE", default=None,
        help="write the full JSON report (including any divergence and "
             "its reproducing op prefix) to FILE")

    audit = sub.add_parser(
        "audit", help="audit a saved artifact against constraints (1)-(11)"
    )
    audit.add_argument("artifact",
                       help="a JSON artifact: a score table written by "
                            "ScoreTable.save or placements written by "
                            "repro.analysis.save_placements")
    audit.add_argument("--verbose", action="store_true",
                       help="print every violation, not just the summary")
    audit.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (json/sarif move the human summary to stderr, "
             "matching repro lint)")
    audit.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the rendered report to FILE instead of stdout")

    serve = sub.add_parser(
        "serve", help="placement-as-a-service (ASGI app, loadgen, chaos)"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    serve_run = serve_sub.add_parser(
        "run", help="serve the placement app over HTTP (requires uvicorn)"
    )
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=int, default=8080)
    serve_load = serve_sub.add_parser(
        "loadgen", help="drive load through the in-process app and "
                        "record p50/p99 latency + placements/s"
    )
    serve_load.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: N workers back-to-back; open: fixed-rate arrivals")
    serve_load.add_argument("--requests", type=int, default=200)
    serve_load.add_argument("--concurrency", type=int, default=8,
                            help="in-flight requests (closed loop)")
    serve_load.add_argument("--rate", type=float, default=500.0,
                            help="arrivals per second (open loop)")
    serve_load.add_argument(
        "--out", metavar="FILE", default=None,
        help="append a 'serve' phase entry to this BENCH_perf.json")
    serve_load.add_argument(
        "--hot-swap-at", type=int, default=None, metavar="N",
        help="after N completed requests, rebuild the score tables for "
             "the current catalog and hot-swap them (content-equal) into "
             "the live service; the decision digest must match a no-swap "
             "control run")
    serve_chaos = serve_sub.add_parser(
        "chaos", help="replay a fault schedule against a live service and "
                      "assert every request reaches exactly one outcome"
    )
    serve_chaos.add_argument(
        "--faults", metavar="SPEC", default="pm-crash=2",
        help="PR 3 fault spec replayed against the fleet "
             "(same syntax as simulate --faults)")
    serve_chaos.add_argument(
        "--corrupt", metavar="START:END", action="append", default=None,
        help="score-table corruption window in seconds (repeatable); "
             "default 100:200")
    serve_chaos.add_argument(
        "--stall", metavar="START:END", action="append", default=None,
        help="handler stall window (requests shed on deadline); "
             "default 250:280")
    serve_chaos.add_argument(
        "--transient", metavar="START:END", action="append", default=None,
        help="transient-fault window (retries, then shed); default none")
    serve_chaos.add_argument("--requests", type=int, default=120)
    serve_chaos.add_argument("--horizon", type=float, default=600.0)
    serve_chaos.add_argument("--pms", type=int, default=8,
                             help="toy fleet size (the drill is toy-only)")
    serve_chaos.add_argument("--seed", type=int, default=0)
    for sp in (serve_run, serve_load):
        sp.add_argument(
            "--fleet", choices=("toy", "ec2"), default="toy",
            help="toy: 4x4-core PMs (instant); ec2: the paper's M3 fleet")
        sp.add_argument("--pms", type=int, default=None,
                        help="fleet size (default: 8 toy / 480 ec2)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--queue-depth", type=int, default=64,
                        help="admission queue depth (429 past this)")
        sp.add_argument("--batch-max", type=int, default=16,
                        help="most requests coalesced into one batch")
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_rank(args) -> int:
    from repro.core.graph import build_profile_graph
    from repro.core.pagerank import profile_pagerank
    from repro.core.profile import MachineShape, ResourceGroup, VMType

    shape = MachineShape(
        groups=(
            ResourceGroup(name="cpu", capacities=(args.capacity,) * args.cores),
        )
    )
    vm_types = (
        VMType(name="vm2", demands=((1, 1),)),
        VMType(name="vm4", demands=((1,) * min(4, args.cores),)),
    )
    graph = build_profile_graph(shape, vm_types, mode="full")
    result = profile_pagerank(
        graph, damping=args.damping, vote_direction=args.direction
    )
    print(f"profiles: {graph.n_nodes}, edges: {graph.n_edges}, "
          f"iterations: {result.iterations}")
    print(f"{'profile':24s} {'score':>10s} {'BPRU':>7s}")
    for node in result.ranking()[: args.top]:
        profile = list(graph.profiles[node][0])
        print(f"{str(profile):24s} {result.scores[node]:10.6f} "
              f"{result.bpru[node]:7.3f}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.experiments.config import ExperimentConfig, WorkloadSpec
    from repro.experiments.runner import RetryPolicy, run_experiment
    from repro.faults.spec import parse_fault_spec

    faults = parse_fault_spec(args.faults) if args.faults else None
    faults_active = faults is not None and faults.active
    retry = None
    if args.retries is not None or args.cell_timeout is not None:
        retry_kwargs = {}
        if args.retries is not None:
            retry_kwargs["max_attempts"] = args.retries
        if args.cell_timeout is not None:
            retry_kwargs["cell_timeout_s"] = args.cell_timeout
        retry = RetryPolicy(**retry_kwargs)

    config = ExperimentConfig(
        n_vms=args.vms,
        datacenter=(("M3", max(8, args.vms // 2)), ("C3", max(2, args.vms // 8))),
        workload=WorkloadSpec(trace=args.trace),
        policies=tuple(args.policies),
        repetitions=args.repetitions,
        seed=args.seed,
    )
    results = run_experiment(
        config,
        workers=args.workers or None,
        audit=args.audit,
        faults=faults,
        retry=retry,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    any_degraded = any(
        run.degraded
        for runs in results.runs.values()
        for run in runs
    )
    header = f"{'policy':12s} {'PMs':>8s} {'kWh':>10s} {'migr':>8s} {'SLO':>8s}"
    if faults_active:
        header += f" {'down_s':>10s} {'lost':>6s}"
    if any_degraded:
        header += f" {'degraded':>9s}"
    print(header)
    degraded_notes = []
    for policy in config.policies:
        runs = results.runs.get(policy, [])
        if not runs:
            print(f"{policy:12s} (no successful runs)")
            continue
        pms = results.summarize("pms_used")[policy].median
        kwh = results.summarize("energy_kwh")[policy].median
        migr = results.summarize("migrations")[policy].median
        slo = results.summarize("slo_violations")[policy].median
        row = (f"{policy:12s} {pms:8.1f} {kwh:10.1f} {migr:8.1f} "
               f"{100 * slo:7.2f}%")
        if faults_active:
            resilience = [r.resilience for r in runs if r.resilience is not None]
            if resilience:
                down = float(np.median([m.vm_downtime_s for m in resilience]))
                lost = float(np.median([m.placements_lost for m in resilience]))
                row += f" {down:10.1f} {lost:6.1f}"
        n_degraded = sum(1 for r in runs if r.degraded)
        if any_degraded:
            row += f" {n_degraded:5d}/{len(runs):<3d}"
        if n_degraded:
            reasons = sorted(
                {r.degraded_reason for r in runs if r.degraded_reason}
            )
            degraded_notes.append(
                f"  {policy}: {n_degraded} run(s) fell back to FFDSum "
                f"({'; '.join(reasons) or 'reason unavailable'})"
            )
        print(row)
    if degraded_notes:
        print("degraded runs:")
        for note in degraded_notes:
            print(note)
    for failure in results.failed_cells:
        print(f"failed cell {failure.policy}/{failure.repetition}: "
              f"{failure.status} after {failure.attempts} attempt(s) "
              f"— {failure.message}")
    return 0


def _cmd_testbed(args) -> int:
    from repro.experiments.figures import make_testbed_policy
    from repro.testbed.experiment import TestbedConfig, TestbedExperiment

    config = TestbedConfig(duration_s=args.hours * 3600.0, seed=args.seed)
    print(f"{'policy':12s} {'instances':>10s} {'migr':>8s} {'SLO':>8s}")
    for name in args.policies:
        policy, selector = make_testbed_policy(name, config)
        result = TestbedExperiment(policy, selector, config).run(args.jobs)
        print(f"{name:12s} {result.instances_used_peak:10d} "
              f"{result.migrations:8d} "
              f"{100 * result.slo_violation_rate:7.2f}%")
    return 0


def _cmd_figures(args) -> int:
    from repro.experiments import figures as fig

    grid = tuple(args.scale)
    if args.figure in ("fig4", "fig8"):
        kwargs = dict(n_jobs_list=grid, repetitions=args.repetitions)
        if args.figure == "fig4":
            pms, migrations = fig.figure4_testbed(**kwargs)
            print(pms.text)
            print()
            print(migrations.text)
        else:
            print(fig.figure8_testbed_slo(**kwargs).text)
        return 0
    maker = {
        "fig3": fig.figure3_pms_used,
        "fig5": fig.figure5_energy,
        "fig6": fig.figure6_migrations,
        "fig7": fig.figure7_slo,
    }[args.figure]
    figure = maker(
        args.trace,
        n_vms_list=grid,
        repetitions=args.repetitions,
        workers=args.workers or None,
    )
    print(figure.text)
    print(f"ordering (best first): {' < '.join(figure.ordering())}")
    return 0


def _cmd_exact(args) -> int:
    from repro.core.profile import MachineShape, ResourceGroup, VMType
    from repro.model.analytic import PlacementInstance, solution_from_policy
    from repro.model.branch_bound import BranchAndBound
    from repro.baselines import FirstFitPolicy

    shape = MachineShape(
        groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),)
    )
    vm_types = (
        VMType(name="vm1", demands=((1,),)),
        VMType(name="vm2", demands=((1, 1),)),
        VMType(name="vm4", demands=((1, 1, 1, 1),)),
    )
    rng = np.random.default_rng(args.seed)
    vms = tuple(
        vm_types[int(rng.integers(len(vm_types)))] for _ in range(args.vms)
    )
    instance = PlacementInstance(
        vms=vms, pms=tuple(shape for _ in range(args.pms))
    )
    exact = BranchAndBound().solve(instance)
    if not exact.feasible:
        print("instance infeasible (not enough PMs)")
        return 1
    print(f"optimum: {exact.cost:.0f} PMs "
          f"({exact.nodes_explored} nodes, "
          f"proof {'complete' if exact.optimal else 'budget-limited'})")
    heuristic = solution_from_policy(instance, FirstFitPolicy())
    if heuristic is not None:
        print(f"FF heuristic: {heuristic.total_cost(instance):.0f} PMs")
    return 0


def _cmd_graph(args) -> int:
    import time

    from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape
    from repro.core.graph import SuccessorStrategy
    from repro.core.graph_cache import cache_events, load_or_build_profile_graph

    strategy = {
        "balanced": SuccessorStrategy.BALANCED,
        "all": SuccessorStrategy.ALL_PLACEMENTS,
    }[args.strategy]
    print(f"{'shape':8s} {'nodes':>10s} {'edges':>10s} {'seconds':>9s} "
          f"{'source':>7s}")
    for pm_name in args.pm:
        shape = ec2_pm_shape(pm_name)
        before = cache_events()["hits"]
        start = time.perf_counter()
        built = load_or_build_profile_graph(
            shape,
            EC2_VM_TYPES,
            strategy=strategy,
            mode=args.mode,
            node_limit=args.node_limit,
        )
        elapsed = time.perf_counter() - start
        source = "cache" if cache_events()["hits"] > before else "built"
        print(f"{pm_name:8s} {built.n_nodes:10d} {built.n_edges:10d} "
              f"{elapsed:9.2f} {source:>7s}")
    return 0


def _cmd_bench(args) -> int:
    import json
    from datetime import datetime, timezone
    from pathlib import Path

    from repro.experiments.sweep import run_sweep
    from repro.util import benchfile

    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "phase": "scale_sweep",
        "quick": args.quick,
        "pms": sorted(args.pms),
        **benchfile.host_stamp(),
    }
    entry.update(run_sweep(args.pms, quick=args.quick))
    if args.out is not None:
        benchfile.append_entry(entry, Path(args.out))
    print(json.dumps(entry, indent=2, sort_keys=True))
    return 0


def _cmd_perf(args) -> int:
    from pathlib import Path

    from repro.analysis.perf import check_trajectory, entry_phase
    from repro.util import benchfile
    from repro.util.validation import ValidationError

    path = Path(args.file)
    # An absent or empty trajectory is a fresh clone, not a failed gate:
    # say so and exit 0 so CI can call the gate unconditionally.  (The
    # library-level check_trajectory still raises for a missing file —
    # a *programmatic* caller asking to gate nothing is a
    # misconfiguration; only the CLI treats it as informational.)
    if not path.exists():
        print(
            f"perf check: {path} does not exist yet — nothing to gate. "
            "Record entries with the perf harness, 'repro bench sweep "
            "--out' or 'repro serve loadgen --out' to start a trajectory."
        )
        return 0
    try:
        entries = benchfile.load_trajectory(path)["entries"]
    except ValidationError as error:
        print(f"perf check: {error}")
        return 2
    if not entries:
        print(
            f"perf check: {path} has no entries yet — nothing to gate. "
            "Record entries with the perf harness or a bench/loadgen "
            "--out run."
        )
        return 0
    try:
        report = check_trajectory(
            path,
            window=args.window,
            tolerance=args.tolerance,
            sigma=args.sigma,
            min_history=args.min_history,
            phases=args.phase,
        )
    except ValidationError as error:
        print(f"perf check: {error}")
        return 2
    wanted = tuple(args.phase) if args.phase else None
    recorded_phases = {entry_phase(entry) for entry in entries}
    for phase in sorted(recorded_phases):
        if wanted is not None and phase not in wanted:
            continue
        if all(
            bool(entry.get("quick", False))
            for entry in entries
            if entry_phase(entry) == phase
        ):
            print(
                f"perf check: phase {phase!r} has only quick entries — "
                "gated against quick history only; record a full run to "
                "arm the full-run baselines"
            )
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis.lint import RULES, UNUSED_SUPPRESSION, lint_paths
    from repro.analysis.sarif import render_json, render_sarif

    if args.list_rules:
        width = max(len(rule.name) for rule in RULES)
        for rule in RULES:
            print(f"{rule.code}  {rule.name:{width}s}  {rule.summary}")
        return 0
    findings = lint_paths(args.paths)
    rule_findings = [f for f in findings if f.code != UNUSED_SUPPRESSION]
    stale = [f for f in findings if f.code == UNUSED_SUPPRESSION]
    if args.format == "json":
        rendered = render_json(findings)
    elif args.format == "sarif":
        rendered = render_sarif(findings)
    else:
        rendered = "\n".join(f.render() for f in findings)
    if args.output is not None:
        Path(args.output).write_text(rendered + "\n")
    elif rendered:
        print(rendered)
    scanned = ", ".join(str(p) for p in args.paths)
    summary_stream = sys.stderr if args.format != "text" else sys.stdout
    failed = bool(rule_findings) or (args.strict_suppressions and stale)
    if findings:
        stale_note = f", {len(stale)} stale suppression(s)" if stale else ""
        print(
            f"repro lint: {len(rule_findings)} finding(s){stale_note} "
            f"in {scanned}",
            file=summary_stream,
        )
    else:
        print(f"repro lint: clean ({scanned})", file=summary_stream)
    return 1 if failed else 0


def _cmd_sanitize(args) -> int:
    from pathlib import Path

    from repro.analysis.sanitize import SanitizeScenario, run_twin

    scenario = SanitizeScenario(
        n_pms=args.pms,
        duration_s=7_200.0 if args.quick else 86_400.0,
        seed=args.seed,
    )
    report = run_twin(args.twin, scenario, max_ulps=args.max_ulps)
    print(report.render())
    if args.dump is not None:
        Path(args.dump).write_text(report.to_json() + "\n")
    return 0 if report.ok else 1


def _cmd_audit(args) -> int:
    import json
    from pathlib import Path

    from repro.analysis.invariants import (
        PLACEMENTS_FORMAT,
        audit_score_table,
        audit_solution,
        load_placements,
    )
    from repro.analysis.sarif import render_audit_json, render_audit_sarif
    from repro.core.score_table import ScoreTable

    try:
        payload = json.loads(Path(args.artifact).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"repro audit: cannot read {args.artifact}: {error}")
        return 2
    fmt = payload.get("format")
    if fmt == "repro.score_table.v1":
        report = audit_score_table(ScoreTable.load(args.artifact))
    elif fmt == PLACEMENTS_FORMAT:
        instance, solution = load_placements(args.artifact)
        report = audit_solution(instance, solution)
    else:
        print(f"repro audit: unrecognized artifact format {fmt!r}")
        return 2
    if args.format == "json":
        rendered = render_audit_json(report, args.artifact)
    elif args.format == "sarif":
        rendered = render_audit_sarif(report, args.artifact)
    else:
        lines = (
            [str(v) for v in report.violations] if args.verbose else []
        )
        rendered = "\n".join(lines + [report.summary()])
    if args.output is not None:
        Path(args.output).write_text(
            rendered if rendered.endswith("\n") else rendered + "\n"
        )
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    # Mirror repro lint: machine formats keep stdout parseable and move
    # the human summary to stderr.
    if args.format != "text":
        print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


def _parse_windows(values, default):
    windows = []
    for value in (values if values is not None else default):
        start, _, end = value.partition(":")
        windows.append((float(start), float(end)))
    return tuple(windows)


def _cmd_serve(args) -> int:
    import json
    from datetime import datetime, timezone
    from pathlib import Path

    from repro.serve import (
        ChaosSpec,
        build_app,
        build_ec2_service,
        build_toy_service,
        run_chaos_drill,
        run_closed_loop,
        run_open_loop,
    )

    def make_service():
        if args.fleet == "ec2":
            counts = {"M3": args.pms if args.pms is not None else 480}
            return build_ec2_service(counts, seed=args.seed)
        return build_toy_service(
            n_pms=args.pms if args.pms is not None else 8,
            seed=args.seed,
        )

    if args.serve_command == "run":
        try:
            import uvicorn
        except ImportError:
            print(
                "repro serve run needs uvicorn (pip install uvicorn); "
                "the app itself has no dependency on it — use "
                "repro.serve.ASGITestClient for in-process serving",
                file=sys.stderr,
            )
            return 2
        app = build_app(
            make_service(),
            max_depth=args.queue_depth,
            batch_max=args.batch_max,
        )
        uvicorn.run(app, host=args.host, port=args.port)
        return 0

    if args.serve_command == "loadgen":
        service = make_service()
        app = build_app(
            service,
            max_depth=args.queue_depth,
            batch_max=args.batch_max,
        )
        after_request = None
        swaps_done = [0]
        if args.hot_swap_at is not None:
            from repro.serve.fleet import swap_catalog

            def after_request(completed: int) -> None:
                # One equal-content swap, mid-run: rebuild the tables for
                # the current catalog and hot-swap the live service onto
                # them.  The decision stream must be digest-identical to
                # a no-swap control run.
                if completed == args.hot_swap_at and swaps_done[0] == 0:
                    swap_catalog(service, service.vm_type_catalog)
                    swaps_done[0] += 1

        if args.mode == "closed":
            report = run_closed_loop(
                app,
                n_requests=args.requests,
                concurrency=args.concurrency,
                seed=args.seed,
                after_request=after_request,
            )
        else:
            report = run_open_loop(
                app,
                n_requests=args.requests,
                rate_rps=args.rate,
                seed=args.seed,
                after_request=after_request,
            )
        digest = service.decision_digest
        pms = len(service.datacenter.machines)
        service.close()
        payload = report.as_dict()
        payload["decision_digest"] = digest
        if args.hot_swap_at is not None:
            payload["hot_swaps"] = swaps_done[0]
        print(json.dumps(payload, indent=2, sort_keys=True))
        if args.out is not None:
            from repro.serve import record_report

            recorded_at = datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            )
            extra = {"seed": args.seed, "decision_digest": digest}
            if args.hot_swap_at is not None:
                extra["hot_swaps"] = swaps_done[0]
            record_report(
                report,
                Path(args.out),
                fleet=args.fleet,
                recorded_at=recorded_at,
                pms=pms,
                extra=extra,
            )
        return 0

    # chaos
    from repro.faults.spec import parse_fault_spec

    spec = ChaosSpec(
        faults=parse_fault_spec(args.faults),
        table_corruptions=_parse_windows(args.corrupt, ["100:200"]),
        handler_stalls=_parse_windows(args.stall, ["250:280"]),
        transients=_parse_windows(args.transient, []),
        horizon_s=args.horizon,
        n_requests=args.requests,
        n_pms=args.pms,
        seed=args.seed,
    )
    report = run_chaos_drill(spec, strict=False)
    print(report.describe())
    return 0 if report.ok else 1


_COMMANDS = {
    "rank": _cmd_rank,
    "simulate": _cmd_simulate,
    "testbed": _cmd_testbed,
    "figures": _cmd_figures,
    "exact": _cmd_exact,
    "graph": _cmd_graph,
    "bench": _cmd_bench,
    "perf": _cmd_perf,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
    "audit": _cmd_audit,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
