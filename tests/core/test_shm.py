"""Lifecycle of the zero-copy shared-memory data plane.

What must hold, and what this suite pins:

* **content keying** — one key, one segment: republishing a key reuses
  the mapping instead of copying, attachers see the very bytes the
  owner wrote, and a key/segment mismatch is rejected.
* **refcounting** — handles are counted per process; the mapping (and,
  for the owner, the /dev/shm file) is torn down exactly when the last
  handle closes, and never earlier.
* **read-only artifacts** — attached arrays refuse writes; corruption
  of a shared table cannot start in a consumer.
* **crash safety** — a SIGKILLed attacher (the chaos-kill failure mode
  of the worker pools) leaks nothing: after the owner's close, /dev/shm
  holds no ``repro_shm_`` segments.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import shm


@pytest.fixture(autouse=True)
def _clean_plane():
    """Every test starts and ends with an empty per-process registry."""
    shm.release_all()
    yield
    shm.release_all()
    assert shm.list_shm_segments() == []


def _arrays():
    return {
        "matrix": np.arange(12, dtype=np.float64).reshape(3, 4),
        "ids": np.arange(3, dtype=np.int64),
    }


class TestPublishAttach:
    def test_roundtrip_bytes_and_meta(self):
        with shm.publish("t.rt", _arrays(), meta={"kind": "test", "n": 3}) as owner:
            with shm.attach("t.rt") as reader:
                np.testing.assert_array_equal(
                    reader.arrays["matrix"], owner.arrays["matrix"]
                )
                np.testing.assert_array_equal(
                    reader.arrays["ids"], np.arange(3)
                )
                assert reader.meta == {"kind": "test", "n": 3}
                # Same-process attach checks out the owner's mapping, so
                # the reader inherits ownership (one unlink, not two).
                assert reader.owner is True
        assert owner.owner is True

    def test_attached_arrays_are_read_only(self):
        with shm.publish("t.ro", _arrays()):
            with shm.attach("t.ro") as reader:
                assert not reader.arrays["matrix"].flags.writeable
                with pytest.raises(ValueError):
                    reader.arrays["matrix"][0, 0] = 99.0

    def test_publish_same_key_reuses_segment(self):
        a = shm.publish("t.reuse", _arrays())
        before = shm.stats().reused
        b = shm.publish("t.reuse", _arrays())
        assert shm.stats().reused == before + 1
        assert b.name == a.name
        assert shm.attach_count("t.reuse") == 2
        a.close()
        b.close()

    def test_foreign_key_rejected(self):
        # No segment under this key at all.
        with pytest.raises(FileNotFoundError):
            shm.attach("t.never-published")

    def test_missing_then_present(self):
        with shm.publish("t.mp", _arrays()):
            bundle = shm.attach("t.mp")
            bundle.close()


class TestRefcounts:
    def test_handles_counted_and_torn_down_at_zero(self):
        key = "t.refs"
        owner = shm.publish(key, _arrays())
        assert shm.attach_count(key) == 1
        r1 = shm.attach(key)
        r2 = shm.attach(key)
        assert shm.attach_count(key) == 3
        r1.close()
        assert shm.attach_count(key) == 2
        # Closing is idempotent: a double close drops nothing extra.
        r1.close()
        assert shm.attach_count(key) == 2
        r2.close()
        assert shm.attach_count(key) == 1
        # The segment file survives while any handle is live.
        assert shm.list_shm_segments() != []
        owner.close()
        assert shm.attach_count(key) == 0
        assert shm.list_shm_segments() == []

    def test_owner_close_before_attachers(self):
        # Owner drops first: attachers keep a live mapping (their views
        # stay readable) and the name disappears once the last closes.
        key = "t.owner-first"
        owner = shm.publish(key, _arrays())
        reader = shm.attach(key)
        owner.close()
        np.testing.assert_array_equal(
            reader.arrays["matrix"], _arrays()["matrix"]
        )
        reader.close()
        assert shm.list_shm_segments() == []

    def test_stats_counters_move(self):
        before = shm.stats()
        published, attached, detached = (
            before.published, before.attached, before.detached,
        )
        with shm.publish("t.stats", _arrays()):
            with shm.attach("t.stats"):
                pass
        after = shm.stats()
        assert after.published == published + 1
        assert after.attached == attached + 1
        assert after.detached >= detached + 2
        assert set(after.as_dict()) == {
            "published", "reused", "attached", "detached", "unlinked",
        }


class TestScoreTableArtifacts:
    def test_share_attach_scores_identical(self, toy_table):
        bundle = shm.share_score_table(toy_table)
        try:
            attached, reader = shm.attach_score_table(bundle.key)
            try:
                for usage, score in list(toy_table.items())[:16]:
                    assert attached.score_or_snap(usage) == score
                assert attached.damping == toy_table.damping
            finally:
                del attached
                reader.close()
        finally:
            bundle.close()

    def test_attached_table_is_frozen(self, toy_table):
        bundle = shm.share_score_table(toy_table)
        try:
            attached, reader = shm.attach_score_table(bundle.key)
            try:
                matrix, _, scores = attached._snap_structures()
                assert not matrix.flags.writeable
                assert not scores.flags.writeable
                with pytest.raises(ValueError):
                    scores[0] = 1.0
            finally:
                del attached, matrix, scores
                reader.close()
        finally:
            bundle.close()


    def test_exact_lookup_materializes_in_place(self, toy_table):
        # The lazy exact-lookup dict must build *over* the attached
        # segment: same matrix object before and after, still read-only
        # — the zero-copy contract from_flat_arrays round-trips rely on.
        bundle = shm.share_score_table(toy_table)
        try:
            attached, reader = shm.attach_score_table(bundle.key)
            try:
                matrix = attached._flat_matrix
                assert attached._scores is None
                assert dict(attached.items()) == dict(toy_table.items())
                assert attached._flat_matrix is matrix
                assert not matrix.flags.writeable
            finally:
                del attached, matrix
                reader.close()
        finally:
            bundle.close()

    def test_attached_table_snaps_like_its_publisher(self, toy_table):
        # Over-capacity and out-of-order usages are off the table: both
        # sides snap them, the attached side through a tree built over
        # the read-only shared matrix without copying it.
        off_table = [
            ((0, 1, 1, 5),), ((3, 2, 1, 0),), ((6, 6, 6, 6),),
            ((0, 0, 0, 5),), ((1, 3, 0, 2),),
        ]
        bundle = shm.share_score_table(toy_table)
        try:
            attached, reader = shm.attach_score_table(bundle.key)
            matrix = attached._flat_matrix
            try:
                assert all(attached.score(u) is None for u in off_table)
                expected = [toy_table.score_or_snap(u) for u in off_table]
                assert attached.score_or_snap_many(off_table) == expected
                attached._snap_cache.clear()
                assert [attached.score_or_snap(u) for u in off_table] == (
                    expected
                )
                assert np.shares_memory(attached._snap_tree.data, matrix)
                assert not matrix.flags.writeable
            finally:
                del attached, matrix
                reader.close()
        finally:
            bundle.close()


class TestCrashSafety:
    def test_sigkilled_attacher_leaks_nothing(self):
        # The chaos-kill failure mode: a forked worker attaches, then
        # dies mid-flight with SIGKILL (no atexit, no finally).  The
        # owner must still be able to read its data and tear the
        # segment down completely.
        key = "t.kill"
        owner = shm.publish(key, _arrays())
        context = multiprocessing.get_context("fork")
        ready = context.Event()

        def victim():
            bundle = shm.attach(key)
            assert bundle.arrays["ids"].sum() == 3
            ready.set()
            time.sleep(60)  # killed long before this returns

        process = context.Process(target=victim, daemon=True)
        process.start()
        assert ready.wait(timeout=10)
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)
        assert process.exitcode == -signal.SIGKILL
        # The owner's mapping is unaffected by the victim's death...
        np.testing.assert_array_equal(owner.arrays["ids"], np.arange(3))
        owner.close()
        # ...and nothing lingers in /dev/shm afterwards.
        assert shm.list_shm_segments() == []


def test_rss_mb_reads_proc():
    rss = shm.rss_mb(os.getpid())
    assert rss is not None and rss > 1.0
    assert shm.rss_mb(2**30) is None  # no such pid
