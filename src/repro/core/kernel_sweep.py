"""Exact DAG-sweep rank kernel.

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
solves *exactly* in one pass over the graph's level order
(:meth:`~repro.core.graph.ProfileGraph.level_order`) —

    x[i] = 1 + theta * sum_{j -> i} x[j] / outdeg[j]

— no epsilon, no iteration cap.  The only loose end is the scalar
self-consistency ``theta = d / (1 - d * S(theta))``.  ``S(theta)`` is a
ratio of two polynomials in theta whose coefficients are graph
constants (:func:`_theta_coefficients`), so theta bisects to the last
representable bit with no sweeps at all, and one sweep at that theta
yields the vector.  Degenerate dampings are pinned to the iterative
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

:data:`KERNEL_CODE_VERSION` stamps every rank-derived cache key (graph
npz cache, experiment table cache) so a
kernel change can never serve stale scores.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.graph import ProfileGraph
from repro.core.pagerank import (
    PageRankResult,
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


def _sweep(graph: ProfileGraph, direction: str, theta: float) -> np.ndarray:
    """One exact resolvent sweep: ``x = 1 + theta * A_hat @ x`` levelwise.

    ``x`` starts as all ones: nodes without vote sources keep their
    (correct) value 1 and the rest are overwritten level by level in
    the graph's level order, over in-edges forward and out-edges in
    reverse.  The vote weights are gathered into that edge order once.
    """
    order = graph.level_order()
    segments = order.into if direction == "forward" else order.out
    weights = graph.memo(
        f"sweep_weights:{direction}",
        lambda: transition_kernel(graph, direction).weights[segments.others],
    )
    x, sources = np.ones(graph.n_nodes, dtype=float), segments.others
    for nodes, edges, starts in segments.levels():
        x[nodes] = 1.0 + theta * np.add.reduceat(
            x[sources[edges]] * weights[edges], starts
        )
    return x


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
        v = np.ones(graph.n_nodes, dtype=float)
        totals = [float(v.sum())]
        sinks = [float(v[kernel.sinks].sum())]
        for _ in range(graph.n_nodes):
            v = kernel.matvec(v)
            if not v.any():
                break
            totals.append(float(v.sum()))
            sinks.append(float(v[kernel.sinks].sum()))
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
        # The iterative kernel's exact fixed point: with no teleport
        # mass, nilpotence drains the whole vector to exact zero; the
        # iterative loop skips normalization at total 0 and then
        # converges on the zero vector, so the closed form pins the
        # same answer.
        raw, sweeps = np.zeros(graph.n_nodes, dtype=float), 0
    else:
        totals, sinks = _theta_coefficients(graph, vote_direction)
        theta = _solve_theta(totals, sinks, damping)
        x = _sweep(graph, vote_direction, theta)
        raw, sweeps = x / float(x.sum()), 1
    result = PageRankResult.discounted(graph, raw, sweeps, converged=True)
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
