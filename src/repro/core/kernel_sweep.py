"""Exact DAG-sweep rank kernel and incremental (delta) re-solve.

The profile graph is a DAG by construction — every edge ``P_a -> P_b``
adds a VM with positive total demand, so total usage strictly grows
along edges — which makes the vote-transition matrix ``A`` *nilpotent*:
``A^(L+1) = 0`` where ``L`` is the longest placement chain.  Algorithm
1's normalized fixed point therefore has an exact finite form.  Write
the iterated map of :func:`~repro.core.pagerank.profile_pagerank` as

    pr  <-  N((1 - d)/n + d * A @ pr),        N = L1 normalization.

A fixed point satisfies ``T * pr = (1 - d)/n + d * A @ pr`` where
``T = 1 - d * S`` and ``S`` is the rank mass sitting on *transition
sinks* (out-degree-0 columns contribute nothing to ``A @ pr``, so the
pre-normalization total is ``(1 - d) + d * (1 - S)``).  Substituting
``theta = d / T`` and rescaling gives

    pr = w(theta) / ||w(theta)||_1,
    w(theta) = (I - theta * A)^{-1} @ 1 = sum_k theta^k * A^k @ 1,

and nilpotence truncates the Neumann series after ``L`` terms: ``w``
solves *exactly* in one pass over topological levels of the CSR —

    x[i] = 1 + theta * sum_{j -> i} x[j] / outdeg[j]

— no epsilon, no iteration cap.  The only loose end is the scalar
self-consistency ``theta = d / (1 - d * S(theta))``; it is solved by a
fixed-point iteration whose every evaluation costs one O(E) sweep,
converges to machine precision in a handful of sweeps (warm-startable
via ``theta_hint``), and falls back to the iterative
:func:`~repro.core.pagerank.profile_pagerank` in the (never observed)
case it does not.  Degenerate dampings are pinned to the iterative
code's own fixed points: ``d == 0`` is the uniform vector and
``d == 1`` is the *zero* vector (nilpotence drains all mass, the
iterative loop skips normalization at total 0 and converges on the
zero vector).

Verification contract
---------------------
Comparing sweep and iterative vectors entry-wise is meaningless at the
iterative path's default ``epsilon=1e-10`` (tiny entries carry huge
relative error), so the documented contract is a *fixed-point
residual*: one warm-started refinement step of ``profile_pagerank``
from the sweep vector must move no entry by more than
:data:`SWEEP_MAX_ULPS` units-in-the-last-place
(:func:`sweep_residual_ulps` measures it, ``verify=True`` asserts it).

Delta re-solve
--------------
:func:`resweep_delta` re-ranks a graph grown by
:func:`~repro.core.graph.extend_profile_graph` without a cold solve:
``theta`` is recovered in closed form from the previous result, the
previous ``w`` is reconstructed from its normalized ranks, and the
first sweep is restricted to the *invalidation cone* — the transition
descendants of the changed sources and the new nodes
(:func:`invalidation_cone`); nodes outside the cone keep provably
correct values.  The scalar ``theta`` couples every node, so any
follow-up refinement sweeps run full — the delta's headline win is
skipping the BFS graph rebuild and warm-starting ``theta``, not
skipping sweeps (DESIGN.md section 3.15).

:data:`KERNEL_CODE_VERSION` stamps every rank-derived cache key (graph
npz cache, experiment table cache) so a
kernel change can never serve stale scores.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.graph import GraphDelta, ProfileGraph
from repro.core.pagerank import (
    PageRankResult,
    compute_bpru,
    profile_pagerank,
    transition_kernel,
)
from repro.util.validation import require

__all__ = [
    "KERNEL_CODE_VERSION",
    "SWEEP_MAX_ULPS",
    "ulp_distance",
    "sweep_profile_pagerank",
    "sweep_residual_ulps",
    "recovered_theta",
    "invalidation_cone",
    "resweep_delta",
]

#: Generation stamp of the rank kernel; part of every cache key that
#: embeds rank-derived data (graph npz cache, experiment table
#: cache).  Bump whenever kernel output could
#: change.
KERNEL_CODE_VERSION = 1

#: Documented fixed-point-residual bound: one warm-started refinement
#: iteration of ``profile_pagerank`` from the sweep vector moves no
#: entry further than this many units-in-the-last-place.  Sized for the
#: whole damping range [0, 1) — residuals grow as damping approaches 1
#: (theta blows up and rank mass spreads over many magnitudes); at the
#: paper's d=0.85 the observed residual is single-digit ulps.
SWEEP_MAX_ULPS = 4096

#: Hard cap on theta fixed-point sweeps before falling back to the
#: iterative kernel; the iteration needs single digits in practice.
_THETA_MAX_SWEEPS = 128

#: Relative convergence tolerance on theta (a few float64 ulps).
_THETA_RTOL = 5e-16


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise distance of two float64 arrays in ulps.

    The vectorized counterpart of
    :func:`repro.util.floatguard.ulp_diff`: each float maps to an
    integer whose ordering matches the reals (both zeros to 0), and the
    distance is the absolute difference of the mapped values.  Inputs
    must be finite.
    """
    def ordered(values: np.ndarray) -> np.ndarray:
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        return np.where(bits >= 0, bits, np.int64(-(2 ** 63)) - bits)

    return np.abs(ordered(a) - ordered(b))


class _SweepSchedule(NamedTuple):
    """Per-direction level schedule of the transition DAG.

    ``levels`` entries are ``(dst_nodes, src_flat, w_flat, starts)``:
    the level's in-edge targets, the concatenated transition sources,
    the matching ``1/outdeg`` vote weights and the ``reduceat`` segment
    offsets.  ``sink_mask`` flags transition out-degree-0 nodes (the
    ``S`` mass of the module docstring).
    """

    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    sink_mask: np.ndarray


def _sweep_schedule(graph: ProfileGraph, direction: str) -> _SweepSchedule:
    """The (cached) level-synchronous sweep schedule for a direction."""
    require(
        direction in ("forward", "reverse"),
        f"vote_direction must be 'forward' or 'reverse', got {direction!r}",
    )

    def build() -> _SweepSchedule:
        src, dst = graph.edge_arrays()
        totals = graph.total_units_array()
        n = graph.n_nodes
        # Transition edges follow the vote direction; the topological
        # key orders destinations so every transition source lands in a
        # strictly earlier level.
        if direction == "forward":
            ts, td, key = src, dst, totals
        else:
            ts, td, key = dst, src, -totals
        out_deg = (
            np.bincount(ts, minlength=n).astype(np.int64)
            if ts.size
            else np.zeros(n, dtype=np.int64)
        )
        sink_mask = out_deg == 0
        levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        if ts.size:
            weights = 1.0 / np.maximum(out_deg, 1).astype(float)
            # Group edges by destination inside destination level; the
            # stable lexsort keeps each destination's segment contiguous.
            order = np.lexsort((td, key[td]))
            ts_o, td_o = ts[order], td[order]
            w_o = weights[ts_o]
            seg_mask = np.empty(td_o.size, dtype=bool)
            seg_mask[0] = True
            np.not_equal(td_o[1:], td_o[:-1], out=seg_mask[1:])
            seg_starts = np.nonzero(seg_mask)[0]
            dst_nodes = td_o[seg_starts]
            bounds = np.nonzero(np.diff(key[dst_nodes]))[0] + 1
            seg_ends = np.append(seg_starts[1:], td_o.size)
            for segment in np.split(
                np.arange(dst_nodes.size), bounds
            ):
                lo = int(seg_starts[segment[0]])
                hi = int(seg_ends[segment[-1]])
                levels.append(
                    (
                        dst_nodes[segment],
                        ts_o[lo:hi],
                        w_o[lo:hi],
                        seg_starts[segment] - lo,
                    )
                )
        return _SweepSchedule(levels=levels, sink_mask=sink_mask)

    return graph.memo(f"sweep_schedule:{direction}", build)


def _sweep(x: np.ndarray, schedule: _SweepSchedule, theta: float) -> None:
    """One exact resolvent sweep: ``x = 1 + theta * A_hat @ x`` levelwise.

    Every in-edge target is fully overwritten and in-degree-0 nodes keep
    their (correct) value 1, so the same buffer can be swept repeatedly
    for different ``theta`` without re-initialization.
    """
    for dst_nodes, src_flat, w_flat, starts in schedule.levels:
        x[dst_nodes] = 1.0 + theta * np.add.reduceat(
            x[src_flat] * w_flat, starts
        )


def _theta_next(
    x: np.ndarray, schedule: _SweepSchedule, damping: float
) -> float:
    """The self-consistency update ``d / (1 - d * S(x))``."""
    total = float(x.sum())
    sink_mass = float(x[schedule.sink_mask].sum()) / total
    denominator = 1.0 - damping * sink_mass
    require(
        denominator > 0.0,
        f"degenerate normalization total {denominator} in theta solve",
    )
    return damping / denominator


def _theta_coefficients(
    graph: ProfileGraph, direction: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Polynomial coefficients of the theta self-consistency, memoized.

    ``w(theta) = sum_k theta^k A^k 1`` makes the total and sink masses
    polynomials in theta with graph-constant coefficients
    ``t_k = 1' A^k 1`` and ``s_k = sinks' A^k 1``.  Nilpotence
    terminates the matvec recursion exactly (the iterates are
    non-negative, so the zero vector is hit without cancellation), and
    the coefficients are computed once per (graph, direction) — after
    which *any* damping's theta resolves by scalar root-finding with no
    sweeps at all.
    """

    def build() -> Tuple[np.ndarray, np.ndarray]:
        kernel = transition_kernel(graph, direction)
        sink_mask = _sweep_schedule(graph, direction).sink_mask
        v = np.ones(graph.n_nodes, dtype=float)
        totals = [float(v.sum())]
        sinks = [float(v[sink_mask].sum())]
        for _ in range(graph.n_nodes):
            v = kernel.matvec(v)
            if not v.any():
                break
            totals.append(float(v.sum()))
            sinks.append(float(v[sink_mask].sum()))
        return np.asarray(totals), np.asarray(sinks)

    return graph.memo(f"theta_coefficients:{direction}", build)


def _mass_ratio(
    totals: np.ndarray, sinks: np.ndarray, theta: float
) -> float:
    """``S(theta)``, evaluated stably on either side of theta == 1.

    For theta <= 1 both polynomials run through Horner directly; above 1
    the shared ``theta^L`` factors out and Horner runs in ``1/theta``,
    so no intermediate ever overflows even for damping near 1.
    """
    if theta <= 1.0:
        numerator = denominator = 0.0
        for k in range(totals.size - 1, -1, -1):
            numerator = numerator * theta + sinks[k]
            denominator = denominator * theta + totals[k]
    else:
        inverse = 1.0 / theta
        numerator = denominator = 0.0
        for k in range(totals.size):
            numerator = numerator * inverse + sinks[k]
            denominator = denominator * inverse + totals[k]
    return numerator / denominator


def _solve_theta(
    totals: np.ndarray, sinks: np.ndarray, damping: float
) -> float:
    """Root of ``theta (1 - d S(theta)) - d`` on ``[d, d/(1-d)]``.

    ``g`` is <= 0 at the left end (``S >= 0``) and >= 0 at the right
    (``S <= 1``), so bisection to the last representable bit is exact,
    deterministic and — each evaluation being two scalar Horner passes —
    effectively free next to a sweep.
    """

    def g(theta: float) -> float:
        ratio = _mass_ratio(totals, sinks, theta)
        return theta * (1.0 - damping * ratio) - damping

    lo, hi = damping, damping / (1.0 - damping)
    if g(lo) >= 0.0:
        return lo
    if g(hi) <= 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _zero_rank_result(graph: ProfileGraph) -> PageRankResult:
    """The iterative kernel's exact fixed point at ``damping == 1``.

    With no teleport mass, nilpotence drains the whole vector to exact
    zero; the iterative loop skips normalization at total 0 and then
    converges on the zero vector, so the closed form pins the same
    answer.
    """
    zeros = np.zeros(graph.n_nodes, dtype=float)
    return PageRankResult(
        graph=graph,
        raw=zeros,
        bpru=compute_bpru(graph),
        scores=zeros.copy(),
        iterations=0,
        converged=True,
    )


def _finish(
    graph: ProfileGraph,
    x: np.ndarray,
    bpru: Optional[np.ndarray],
    sweeps: int,
) -> PageRankResult:
    raw = x / float(x.sum())
    if bpru is None:
        bpru = compute_bpru(graph)
    return PageRankResult(
        graph=graph,
        raw=raw,
        bpru=bpru,
        scores=raw * bpru,
        iterations=sweeps,
        converged=True,
    )


def _solve(
    graph: ProfileGraph,
    schedule: _SweepSchedule,
    x: np.ndarray,
    theta: float,
    damping: float,
    sweeps: int,
    first_sweep: Optional[Callable[[float], None]] = None,
) -> Optional[PageRankResult]:
    """Drive theta to self-consistency; None when the sweep cap is hit.

    The scalar equation is ``theta = f(theta) = d / (1 - d * S(theta))``
    where every evaluation of ``f`` is one O(E) sweep.  Plain
    fixed-point iteration is not a contraction for damping near 1 (the
    sink mass grows with theta), so the solver runs the secant method
    on ``f(theta) - theta`` — superlinear in a handful of sweeps — and
    degrades any out-of-bounds secant step to a plain ``f`` step.
    ``first_sweep`` lets the delta path substitute a cone-restricted
    partial sweep for the first full evaluation.
    """
    state = {"first": first_sweep, "sweeps": sweeps}

    def evaluate(current: float) -> float:
        if state["first"] is not None:
            state["first"](current)
            state["first"] = None
        else:
            _sweep(x, schedule, current)
        state["sweeps"] += 1
        return _theta_next(x, schedule, damping)

    # theta* = d / (1 - d * S) with S in [0, 1] lives in this interval.
    hi = damping / (1.0 - damping) if damping < 1.0 else float("inf")
    t0 = theta
    f0 = evaluate(t0)
    if f0 == t0:
        return _finish(graph, x, None, state["sweeps"])
    t1 = min(max(f0, damping), hi)
    while state["sweeps"] < _THETA_MAX_SWEEPS:
        f1 = evaluate(t1)
        if f1 == t1 or abs(f1 - t1) <= _THETA_RTOL * abs(t1):
            if f1 != t1:
                # Within an ulp of self-consistent: one last sweep so
                # the vector matches the reported theta exactly.
                _sweep(x, schedule, f1)
                state["sweeps"] += 1
            return _finish(graph, x, None, state["sweeps"])
        denominator = (f1 - t1) - (f0 - t0)
        if denominator != 0.0:  # prv: disable=PRV002 -- exact-zero guard before division, not a tolerance check
            step = t1 - (f1 - t1) * (t1 - t0) / denominator
        else:
            step = f1
        if not (damping <= step <= hi) or not np.isfinite(step):
            step = f1
        t0, f0 = t1, f1
        t1 = step
    return None


def sweep_profile_pagerank(
    graph: ProfileGraph,
    damping: float = 0.85,
    vote_direction: str = "forward",
    verify: bool = False,
    max_ulps: int = SWEEP_MAX_ULPS,
) -> PageRankResult:
    """Algorithm 1's fixed point via the exact DAG sweep.

    Returns the same :class:`~repro.core.pagerank.PageRankResult` as
    :func:`~repro.core.pagerank.profile_pagerank` — ``iterations``
    counts O(E) level sweeps instead of power iterations (one, once the
    per-graph theta coefficients are memoized), and ``converged`` is
    always True: the sweep is exact and the theta scalar bisects to the
    last representable bit.

    Args:
        graph: the profile graph G.
        damping: the damping factor d (paper uses 0.85).
        vote_direction: ``"forward"`` or ``"reverse"`` (see
            :mod:`repro.core.pagerank`).
        verify: when True, assert the fixed-point residual contract
            (:func:`sweep_residual_ulps` within ``max_ulps``).
        max_ulps: the residual bound ``verify`` asserts.
    """
    require(0.0 <= damping <= 1.0, f"damping must be in [0,1], got {damping}")
    require(graph.n_nodes > 0, "graph has no nodes")
    if damping == 1.0:  # prv: disable=PRV002 -- the d=1 degenerate case is the exact literal, not a computed float
        result = _zero_rank_result(graph)
    else:
        schedule = _sweep_schedule(graph, vote_direction)
        totals, sinks = _theta_coefficients(graph, vote_direction)
        theta = _solve_theta(totals, sinks, damping)
        x = np.ones(graph.n_nodes, dtype=float)
        _sweep(x, schedule, theta)
        result = _finish(graph, x, None, sweeps=1)
    if verify:
        moved = sweep_residual_ulps(result, damping, vote_direction)
        require(
            moved <= max_ulps,
            f"sweep kernel residual {moved} ulps exceeds bound {max_ulps}",
        )
    return result


def sweep_residual_ulps(
    result: PageRankResult, damping: float, vote_direction: str = "forward"
) -> int:
    """Fixed-point residual of a rank vector, in ulps.

    One warm-started refinement iteration of the iterative kernel from
    ``result.raw``; the return value is the largest per-entry movement
    in units-in-the-last-place.  An exact fixed point would move only
    by the iteration's own float rounding, so this is the documented
    sweep-vs-iterative agreement measure (:data:`SWEEP_MAX_ULPS`).
    """
    refined = profile_pagerank(
        result.graph,
        damping=damping,
        vote_direction=vote_direction,
        max_iterations=1,
        warm_start=result.raw,
    )
    return int(ulp_distance(result.raw, refined.raw).max())


def recovered_theta(result: PageRankResult, damping: float,
                    vote_direction: str = "forward") -> float:
    """The theta scalar a previous solve converged to, in closed form.

    ``theta = d / (1 - d * S)`` where ``S`` is the normalized rank mass
    on transition sinks — recoverable from any rank vector without
    having recorded theta.
    """
    require(0.0 <= damping < 1.0, "theta is defined for damping in [0,1)")
    schedule = _sweep_schedule(result.graph, vote_direction)
    sink_mass = float(result.raw[schedule.sink_mask].sum())
    total = float(result.raw.sum())
    require(total > 0.0, "rank vector carries no mass")
    denominator = 1.0 - damping * (sink_mass / total)
    require(denominator > 0.0, "degenerate sink mass in theta recovery")
    return damping / denominator


def invalidation_cone(
    graph: ProfileGraph,
    delta: GraphDelta,
    vote_direction: str = "forward",
) -> np.ndarray:
    """Boolean mask of nodes whose rank a delta can change.

    The cone is the transition-descendant closure of the changed
    sources and the new nodes: every node outside it has an identical
    in-edge multiset (and identical upstream values) before and after
    the extension, so its resolvent value ``x`` is provably unchanged
    at fixed theta.  One pass over the level schedule computes it.
    """
    schedule = _sweep_schedule(graph, vote_direction)
    cone = np.zeros(graph.n_nodes, dtype=bool)
    cone[list(delta.changed_sources)] = True
    cone[delta.base_nodes:] = True
    for dst_nodes, src_flat, _, starts in schedule.levels:
        reached = np.logical_or.reduceat(cone[src_flat], starts)
        cone[dst_nodes[reached]] = True
    return cone


def _partial_sweep(
    x: np.ndarray,
    schedule: _SweepSchedule,
    cone: np.ndarray,
    theta: float,
) -> None:
    """One sweep recomputing only the invalidation cone's entries."""
    for dst_nodes, src_flat, w_flat, starts in schedule.levels:
        selected = cone[dst_nodes]
        if not selected.any():
            continue
        counts = np.diff(np.append(starts, src_flat.size))
        keep = np.repeat(selected, counts)
        kept_counts = counts[selected]
        starts_r = np.zeros(kept_counts.size, dtype=np.int64)
        np.cumsum(kept_counts[:-1], out=starts_r[1:])
        x[dst_nodes[selected]] = 1.0 + theta * np.add.reduceat(
            x[src_flat[keep]] * w_flat[keep], starts_r
        )


def resweep_delta(
    graph: ProfileGraph,
    old_result: PageRankResult,
    delta: GraphDelta,
    damping: float = 0.85,
    vote_direction: str = "forward",
) -> PageRankResult:
    """Re-rank an extended graph from the previous solve.

    ``graph`` must be the extension of ``old_result.graph`` described
    by ``delta`` (node ids of the base graph preserved, new nodes
    appended).  Theta is recovered in closed form, the previous
    resolvent vector is reconstructed from its normalized ranks, and
    the first sweep is restricted to :func:`invalidation_cone`;
    refinement sweeps (theta couples all nodes) run full.  BPRU is
    recomputed outright — the reverse DP is a cheap O(E) pass.
    """
    require(
        graph.n_nodes >= delta.base_nodes
        and delta.base_nodes == old_result.graph.n_nodes,
        "delta does not connect the old result to the extended graph",
    )
    require(0.0 <= damping <= 1.0, f"damping must be in [0,1], got {damping}")
    if damping == 1.0:  # prv: disable=PRV002 -- the d=1 degenerate case is the exact literal, not a computed float
        return _zero_rank_result(graph)
    if damping == 0.0 or not np.any(old_result.raw):  # prv: disable=PRV002 -- d=0 is the exact uniform-rank literal
        # Uniform / degenerate previous vectors carry no reusable
        # structure; the cold sweep is already minimal.
        return sweep_profile_pagerank(
            graph, damping=damping, vote_direction=vote_direction
        )
    schedule = _sweep_schedule(graph, vote_direction)
    theta = recovered_theta(old_result, damping, vote_direction)
    # Any transition in-degree-0 node has x == 1 exactly, which anchors
    # the reconstruction w = raw / raw[anchor].
    old_schedule = _sweep_schedule(old_result.graph, vote_direction)
    in_cone_edges = np.zeros(old_result.graph.n_nodes, dtype=bool)
    for dst_nodes, _, _, _ in old_schedule.levels:
        in_cone_edges[dst_nodes] = True
    anchors = np.nonzero(~in_cone_edges)[0]
    require(anchors.size > 0, "DAG without an in-degree-0 node")
    anchor_value = float(old_result.raw[anchors[0]])
    require(anchor_value > 0.0, "anchor carries no rank mass")
    x = np.ones(graph.n_nodes, dtype=float)
    x[: delta.base_nodes] = old_result.raw / anchor_value
    cone = invalidation_cone(graph, delta, vote_direction)

    def first_sweep(current_theta: float) -> None:
        _partial_sweep(x, schedule, cone, current_theta)

    result = _solve(
        graph, schedule, x, theta, damping, sweeps=0, first_sweep=first_sweep
    )
    if result is None:  # pragma: no cover - theta always converges
        result = sweep_profile_pagerank(
            graph, damping=damping, vote_direction=vote_direction
        )
    return result
