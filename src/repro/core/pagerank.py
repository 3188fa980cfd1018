"""Algorithm 1: PageRank scores over the profile graph, with BPRU discount.

Faithful to the paper's pseudocode:

1. initialize ``PR(P_i) = 1/N`` and ``Aux(P_i) = 0``;
2. iterate: every node pushes ``PR(P_i) / |S(P_i)|`` to each successor's
   auxiliary variable, then ``PR(P_i) = (1-d)/N + d * Aux(P_i)``, then the
   vector is L1-normalized; repeat until the maximum per-node change drops
   below ``epsilon``;
3. finally each score is multiplied by the node's BPRU — the *Best
   Possible Resource Utilization* — the maximum utilization among the
   endpoints (sinks) of paths containing the profile, which discounts
   profiles that can never develop into the best profile.

Vote direction — a paper-internal contradiction, resolved empirically
---------------------------------------------------------------------
The paper's pseudocode pushes votes *along* placement edges
(``P_a -> P_b`` when ``P_b = P_a + VM``), so near-full profiles
accumulate rank.  That literal reading contradicts the paper's own
worked examples: it ranks the dead-end profile [4,3,3,3] *above*
[3,3,2,2] and [4,4,2,2] *above* [3,3,3,3], the opposite of what
Sections III/V.A claim.  Pushing votes in the *reverse* direction
reproduces all three worked examples — but collapses end-to-end: the
best profile becomes a rank *source* with minimal score, the allocator
spreads instead of consolidating, and the evaluation's headline (fewest
PMs) inverts.  The forward direction reproduces the evaluation figures.
We therefore default to ``vote_direction="forward"`` (faithful to the
pseudocode *and* the evaluation) and keep ``"reverse"`` for the worked
examples; DESIGN.md section 3.3b discusses the contradiction, and the
ablation bench ``benchmarks/test_ablation_vote_direction.py``
quantifies both.

:func:`expected_final_utilization` additionally implements the paper's
*stated* semantic ("the probability of a PM fully utilizing its
resources") exactly — the expected terminal utilization of a uniform
random placement walk — as an alternative scoring for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.graph import ProfileGraph
from repro.util.validation import require

__all__ = [
    "PageRankResult",
    "TransitionKernel",
    "transition_kernel",
    "profile_pagerank",
    "compute_bpru",
    "expected_final_utilization",
]


class TransitionKernel:
    """The vote-propagation step of Algorithm 1 as a sparse matvec.

    One power iteration computes ``aux[dst] = sum_{src -> dst}
    pr[src] / out_degree[src]`` as one weighted ``np.bincount`` over
    the CSR rows from the graph's level order arrays; it adds each
    row's products in stored order from 0.0, as a CSR matvec does.
    ``weights`` holds each node's vote weight ``1/out_degree`` and
    ``sinks`` flags out-degree 0.  Kernels are memoized on the graph
    per vote direction.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, out_degree: np.ndarray
    ):
        n = len(out_degree)
        self.sinks = out_degree == 0
        self.weights = 1.0 / np.maximum(out_degree, 1).astype(float)
        self._rows = np.repeat(np.arange(n), np.diff(indptr))
        self._indices = indices
        self._data = self.weights[indices]

    def matvec(self, pr: np.ndarray) -> np.ndarray:
        """One vote-propagation step: the auxiliary vector for ``pr``."""
        return np.bincount(self._rows, self._data * pr[self._indices], len(pr))


def transition_kernel(
    graph: ProfileGraph, vote_direction: str = "forward"
) -> TransitionKernel:
    """The (cached) transition kernel of a graph for a vote direction."""
    require(
        vote_direction in ("forward", "reverse"),
        f"vote_direction must be 'forward' or 'reverse', got {vote_direction!r}",
    )

    def build() -> TransitionKernel:
        # A row lists a node's vote sources: its in-edges (the CSC
        # arrays) forward, its successors (the CSR) in reverse.
        order = graph.level_order()
        out_degree, in_degree = np.diff(graph.indptr), np.diff(order.in_indptr)
        if vote_direction == "forward":
            return TransitionKernel(order.in_indptr, order.in_indices, out_degree)
        return TransitionKernel(graph.indptr, graph.indices, in_degree)

    return graph.memo(f"transition_kernel:{vote_direction}", build)


@dataclass(frozen=True)
class PageRankResult:
    """Output of Algorithm 1 for every node of a profile graph.

    Attributes:
        graph: the input graph (scores index into its node ids).
        raw: normalized PageRank before BPRU discounting (line 17 output).
        bpru: best possible resource utilization per node, in [0, 1].
        scores: final scores, ``raw * bpru`` (line 19).
        iterations: number of power iterations until convergence.
        converged: False when ``max_iterations`` was hit first.
    """

    graph: ProfileGraph
    raw: np.ndarray
    bpru: np.ndarray
    scores: np.ndarray
    iterations: int
    converged: bool

    @classmethod
    def discounted(
        cls, graph: ProfileGraph, raw: np.ndarray, iterations: int,
        converged: bool,
    ) -> "PageRankResult":
        """Line 19: the result whose scores are ``raw`` times BPRU."""
        bpru = compute_bpru(graph)
        return cls(graph, raw, bpru, raw * bpru, iterations, converged)

    def score_of(self, node: int) -> float:
        """Final (BPRU-discounted) score of a node id."""
        return float(self.scores[node])

    def ranking(self) -> List[int]:
        """Node ids sorted by final score, best first."""
        return list(np.argsort(-self.scores, kind="stable"))


def compute_bpru(graph: ProfileGraph) -> np.ndarray:
    """Best Possible Resource Utilization of every node.

    ``bpru(P) = utilization(P)`` when P is a sink, else the maximum BPRU
    over P's successors — i.e. the best utilization reachable at the end
    of any placement path through P.  Computed by a reverse-topological
    dynamic program over the DAG, memoized on the graph (the vector is
    rank-kernel independent, so iterative and sweep solves share it);
    the returned array is read-only.
    """

    def build() -> np.ndarray:
        bpru = graph.utilization_array().copy()
        # Sweep levels in descending total usage; within a level every
        # node's successors are already final, so one reduceat handles
        # the whole level.
        out = graph.level_order().out
        for nodes, edges, starts in out.levels():
            best = np.maximum.reduceat(bpru[out.others[edges]], starts)
            bpru[nodes] = np.maximum(bpru[nodes], best)
        bpru.setflags(write=False)
        return bpru

    return graph.memo("bpru", build)


def expected_final_utilization(graph: ProfileGraph) -> np.ndarray:
    """Expected terminal utilization of a uniform random placement walk.

    ``efu(P) = utilization(P)`` when P is a sink, else the mean EFU over
    P's successors.  This is the exact value of the paper's *stated*
    ranking semantic — "the probability of a PM of fully utilizing its
    resources after accommodating a given VM" — under uniformly random
    future placements: profiles with a saturated dimension (which can
    never fill their other dimensions) score low, balanced near-full
    profiles score high.  Used as the ``"expected-utilization"`` scoring
    ablation; the default scoring remains Algorithm 1.
    """
    values = graph.utilization_array().copy()
    out_degree = np.diff(graph.indptr)
    out = graph.level_order().out
    for nodes, edges, starts in out.levels():
        sums = np.add.reduceat(values[out.others[edges]], starts)
        values[nodes] = sums / out_degree[nodes]
    return values


def profile_pagerank(
    graph: ProfileGraph,
    damping: float = 0.85,
    epsilon: float = 1e-10,
    max_iterations: int = 10_000,
    vote_direction: str = "forward",
    warm_start: Optional[np.ndarray] = None,
) -> PageRankResult:
    """Run Algorithm 1 on a profile graph.

    Args:
        graph: the profile graph G.
        damping: the damping factor d (paper uses 0.85).
        epsilon: convergence threshold on the max per-node score change.
        max_iterations: hard iteration cap; the result records whether it
            was hit (``converged=False``) instead of raising, because a
            near-converged table is still usable for placement.
        vote_direction: ``"forward"`` (default — the literal pseudocode
            reading, which also reproduces the paper's evaluation) or
            ``"reverse"`` (reproduces the paper's worked quality
            examples); see the module docstring.
        warm_start: optional initial rank vector (L1-normalized before
            use) instead of the uniform start.  The sweep kernel's
            verifier (:func:`repro.core.kernel_sweep.sweep_residual_ulps`)
            starts one refinement iteration from the sweep vector; a
            near-converged table restart also lands here.

    Returns:
        A :class:`PageRankResult`; ``scores`` are the Profile-PageRank
        table values used by Algorithm 2.
    """
    require(0.0 <= damping <= 1.0, f"damping must be in [0,1], got {damping}")
    require(epsilon > 0, f"epsilon must be positive, got {epsilon}")
    n = graph.n_nodes
    require(n > 0, "graph has no nodes")

    kernel = transition_kernel(graph, vote_direction)

    if warm_start is not None:
        pr = np.asarray(warm_start, dtype=float).copy()
        require(
            pr.shape == (n,),
            f"warm_start must have shape ({n},), got {pr.shape}",
        )
        total = pr.sum()
        if total > 0:
            pr /= total
    else:
        pr = np.full(n, 1.0 / n, dtype=float)
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        aux = kernel.matvec(pr)
        new_pr = (1.0 - damping) / n + damping * aux
        total = new_pr.sum()
        if total > 0:
            new_pr /= total
        delta = float(np.max(np.abs(new_pr - pr)))
        pr = new_pr
        if delta < epsilon:
            converged = True
            break

    return PageRankResult.discounted(graph, pr, iterations, converged)
