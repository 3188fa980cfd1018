"""Property tests: the KD-tree snap equals a brute-force L1 scan.

The oracle below is the scan the score table used before it grew an
index: every row's L1 distance to the query, then the lowest score among
the rows at the minimum distance.  It lives only here, as the reference
the indexed snap must reproduce bit for bit — through both the single
(:meth:`ScoreTable.score_or_snap`) and the batched
(:meth:`ScoreTable.score_or_snap_many`) entry points, on random shapes
and tables, and on queries built to sit at the same distance from
several rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import MachineShape, ResourceGroup
from repro.core.score_table import ScoreTable


def oracle_snap(matrix, scores, flat):
    """Lowest score among the rows L1-nearest to ``flat`` (full scan)."""
    distances = np.abs(matrix - np.asarray(flat, dtype=float)).sum(axis=1)
    return float(scores[distances == distances.min()].min())


def _usage(shape, flat):
    usage, start = [], 0
    for group in shape.groups:
        width = len(group.capacities)
        usage.append(tuple(int(v) for v in flat[start:start + width]))
        start += width
    return tuple(usage)


@st.composite
def shapes(draw):
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return MachineShape(
        groups=tuple(
            ResourceGroup(name=f"g{i}", capacities=(4,) * width)
            for i, width in enumerate(widths)
        )
    )


def _flat_width(shape):
    return sum(len(group.capacities) for group in shape.groups)


def _table(shape, rows, scores):
    return ScoreTable(
        shape,
        dict(zip((_usage(shape, row) for row in rows), map(float, scores))),
    )


def _check(shape, rows, scores, queries):
    matrix = np.asarray(rows, dtype=float)
    score_vector = np.asarray(scores, dtype=float)
    expected = [oracle_snap(matrix, score_vector, q) for q in queries]
    usages = [_usage(shape, q) for q in queries]
    single = _table(shape, rows, scores)
    assert [single.score_or_snap(u) for u in usages] == expected
    batched = _table(shape, rows, scores)
    assert batched.score_or_snap_many(usages) == expected


@st.composite
def random_tables(draw):
    """A table of distinct lattice rows and queries around the lattice."""
    shape = draw(shapes())
    width = _flat_width(shape)
    vectors = st.lists(st.integers(0, 4), min_size=width, max_size=width)
    rows = draw(
        st.lists(vectors, min_size=1, max_size=40, unique_by=tuple)
    )
    # Few distinct score values, so tied rows often tie in score too.
    scores = draw(
        st.lists(
            st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
            min_size=len(rows), max_size=len(rows),
        )
    )
    queries = draw(
        st.lists(
            st.lists(st.integers(0, 6), min_size=width, max_size=width),
            min_size=1, max_size=12,
        )
    )
    return shape, rows, scores, queries


@st.composite
def tied_tables(draw):
    """A query with several rows placed exactly at its nearest distance.

    Rows ``query +- radius * e_i`` for at least two signed axes tie at
    ``radius``; every other row is kept strictly farther away.
    """
    shape = draw(shapes())
    width = _flat_width(shape)
    radius = draw(st.integers(1, 3))
    query = draw(
        st.lists(st.integers(radius, 6), min_size=width, max_size=width)
    )
    axes = [(i, sign) for i in range(width) for sign in (1, -1)]
    chosen = draw(
        st.lists(st.sampled_from(axes), min_size=2, max_size=len(axes),
                 unique=True)
    )
    tied = []
    for axis, sign in chosen:
        row = list(query)
        row[axis] += sign * radius
        tied.append(row)
    far = draw(
        st.lists(
            st.lists(st.integers(0, 9), min_size=width, max_size=width),
            max_size=20,
        )
    )
    far = [
        row for row in far
        if sum(abs(a - b) for a, b in zip(row, query)) > radius
    ]
    rows = list({tuple(row): None for row in tied + far})
    scores = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=len(rows), max_size=len(rows),
        )
    )
    return shape, [list(row) for row in rows], scores, query, len(tied)


class TestTreeSnapMatchesScan:
    @given(random_tables())
    @settings(max_examples=150, deadline=None)
    def test_random_tables(self, case):
        shape, rows, scores, queries = case
        _check(shape, rows, scores, queries)

    @given(tied_tables())
    @settings(max_examples=150, deadline=None)
    def test_rows_tied_at_the_nearest_distance(self, case):
        shape, rows, scores, query, n_tied = case
        matrix = np.asarray(rows, dtype=float)
        distances = np.abs(matrix - np.asarray(query, dtype=float)).sum(axis=1)
        assert int((distances == distances.min()).sum()) == n_tied >= 2
        _check(shape, rows, scores, [query])
