"""The paper's primary contribution: PageRank-based VM placement.

Public surface:

* :mod:`repro.core.profile` — resource groups, machine shapes, VM types and
  canonical usage profiles (Section III.A / IV of the paper).
* :mod:`repro.core.permutations` — enumeration of the canonically-distinct
  ways a VM's permutable demands can be placed (anti-collocation).
* :mod:`repro.core.graph` — the profile graph G (Algorithm 1, line 1).
* :mod:`repro.core.interning` — packed storage width for usage profiles.
* :mod:`repro.core.graph_cache` — content-keyed on-disk graph cache.
* :mod:`repro.core.pagerank` — Algorithm 1: PageRank + BPRU discounting.
* :mod:`repro.core.score_table` — the Profile-PageRank score table.
* :mod:`repro.core.placement` — Algorithm 2: the PageRankVM allocator.
* :mod:`repro.core.migration` — PageRank-based eviction selection.
"""

from repro.core.profile import (
    MachineShape,
    Profile,
    Quantizer,
    ResourceGroup,
    VMType,
)
from repro.core.graph import ProfileGraph, SuccessorStrategy, build_profile_graph
from repro.core.graph_cache import graph_cache_key, load_or_build_profile_graph
from repro.core.interning import packed_dtype_for
from repro.core.pagerank import PageRankResult, profile_pagerank
from repro.core.score_table import ScoreTable, build_score_table
from repro.core.placement import PageRankVMPolicy
from repro.core.migration import PageRankMigrationSelector

__all__ = [
    "ResourceGroup",
    "MachineShape",
    "VMType",
    "Profile",
    "Quantizer",
    "ProfileGraph",
    "SuccessorStrategy",
    "build_profile_graph",
    "graph_cache_key",
    "load_or_build_profile_graph",
    "packed_dtype_for",
    "PageRankResult",
    "profile_pagerank",
    "ScoreTable",
    "build_score_table",
    "PageRankVMPolicy",
    "PageRankMigrationSelector",
]
