"""Unit tests for :mod:`repro.parallel` (pool, sharding, obs merging)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.parallel import (
    WorkerPool,
    as_pool,
    fork_available,
    get_shared,
    in_worker,
    resolve_workers,
    shard_bounds,
)
from repro.relation import Relation

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


# ---------------------------------------------------------------------------
# Module-level tasks (pool payloads must be picklable by reference)
# ---------------------------------------------------------------------------


def _double(x):
    return 2 * x


def _shared_scale(x):
    return get_shared()["scale"] * x


def _count_and_square(x):
    obs.count("pool_test.tasks")
    obs.record("pool_test.item", value=x)
    return x * x


def _nested_parallelism(_):
    inner = WorkerPool(4)
    return in_worker(), inner.parallel, inner.map(_double, [1, 2, 3])


def _crash(x):
    raise RuntimeError(f"task {x} failed")


# ---------------------------------------------------------------------------
# Shard bounds
# ---------------------------------------------------------------------------


class TestShardBounds:
    def test_partitions_cover_and_order(self):
        for n_rows in (1, 7, 100, 1013):
            for n_shards in (1, 2, 3, 8):
                bounds = shard_bounds(n_rows, n_shards)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_rows
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start  # contiguous, in order

    def test_balanced_within_one_row(self):
        sizes = [e - s for s, e in shard_bounds(103, 4)]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1

    def test_min_rows_caps_shard_count(self):
        assert shard_bounds(7, 3, min_rows=4) == [(0, 7)]
        assert len(shard_bounds(100, 8, min_rows=25)) == 4

    def test_empty_relation(self):
        assert shard_bounds(0, 4) == [(0, 0)]

    def test_more_shards_than_rows(self):
        bounds = shard_bounds(2, 5)
        assert bounds[-1][1] == 2
        assert all(e >= s for s, e in bounds)


class TestShardRelation:
    def test_views_not_copies(self, city_relation):
        bounds = shard_bounds(city_relation.n_rows, 3)
        shards = [city_relation.slice_rows(*bound) for bound in bounds]
        base = city_relation.codes("City")
        for (start, stop), shard in zip(bounds, shards):
            assert shard.n_rows == stop - start
            assert np.shares_memory(shard.codes("City"), base)
            assert np.array_equal(shard.codes("City"), base[start:stop])

    def test_slice_rows_bounds_checked(self, city_relation):
        from repro.relation import RelationError

        with pytest.raises(RelationError):
            city_relation.slice_rows(-1, 3)
        with pytest.raises(RelationError):
            city_relation.slice_rows(0, city_relation.n_rows + 1)
        with pytest.raises(RelationError):
            city_relation.slice_rows(5, 3)


# ---------------------------------------------------------------------------
# Worker resolution and pool coercion
# ---------------------------------------------------------------------------


class TestResolveWorkers:
    def test_defaults(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestAsPool:
    def test_none_and_serial_counts_collapse(self):
        assert as_pool(None) is None
        assert as_pool(1) is None

    def test_pool_passthrough(self):
        pool = WorkerPool(2)
        assert as_pool(pool) is pool

    def test_int_builds_pool(self):
        pool = as_pool(4)
        assert isinstance(pool, WorkerPool)
        assert pool.workers == 4


# ---------------------------------------------------------------------------
# Mapping
# ---------------------------------------------------------------------------


class TestWorkerPoolSerial:
    def test_serial_pool_is_not_parallel(self):
        assert not WorkerPool(1).parallel

    def test_serial_map_preserves_order_and_shared(self):
        pool = WorkerPool(1)
        assert pool.map(_double, [3, 1, 2]) == [6, 2, 4]
        out = pool.map(_shared_scale, [1, 2], shared={"scale": 10})
        assert out == [10, 20]
        assert get_shared() is None  # restored after the call

    def test_single_item_runs_inline(self):
        assert WorkerPool(8).map(_double, [21]) == [42]


@needs_fork
class TestWorkerPoolParallel:
    def test_map_matches_serial(self):
        items = list(range(40))
        assert WorkerPool(4).map(_double, items) == [2 * x for x in items]

    def test_map_reads_fork_inherited_shared(self):
        out = WorkerPool(2).map(_shared_scale, [1, 2, 3], shared={"scale": 7})
        assert out == [7, 14, 21]

    def test_nested_pools_degrade_to_serial(self):
        flags = WorkerPool(2).map(_nested_parallelism, [0, 1])
        for was_worker, inner_parallel, inner_result in flags:
            assert was_worker is True
            assert inner_parallel is False  # no fork bombs
            assert inner_result == [2, 4, 6]
        assert not in_worker()  # parent flag untouched

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match=r"task \d failed"):
            WorkerPool(2).map(_crash, [0, 1])

    def test_shards_for_respects_min_rows(self):
        pool = WorkerPool(4, min_shard_rows=50)
        assert pool.shards_for(80) == [(0, 80)]
        assert len(pool.shards_for(400)) == 4


# ---------------------------------------------------------------------------
# Observability merging (the process-safe counters satellite)
# ---------------------------------------------------------------------------


@needs_fork
class TestObsMerging:
    def test_worker_counters_merge_with_worker_tags(self):
        with obs.tracing(obs.MemorySink()) as sink:
            out = WorkerPool(2).map(_count_and_square, [1, 2, 3, 4])
        assert out == [1, 4, 9, 16]
        report = obs.ObsReport.from_events(sink.events)
        assert report.counter("pool_test.tasks") == 4
        assert report.n_workers >= 1
        assert all(isinstance(w, int) for w in report.workers)

    def test_merged_events_render_worker_line(self):
        with obs.tracing(obs.MemorySink()) as sink:
            WorkerPool(2).map(_count_and_square, [1, 2, 3, 4])
        report = obs.ObsReport.from_events(sink.events)
        text = report.render()
        assert "worker process" in text

    def test_untraced_run_emits_nothing(self):
        out = WorkerPool(2).map(_count_and_square, [5, 6])
        assert out == [25, 36]  # no sink: capture is off, no crash


class TestObsReport:
    def test_counter_default_and_n_events(self):
        report = obs.ObsReport.from_events([])
        assert report.counter("missing") == 0
        assert report.counter("missing", default=7) == 7
        assert report.n_events == 0
        assert report.n_workers == 0

    def test_merge_events_noop_when_disabled(self):
        # Not inside obs.tracing: merging must be a silent no-op.
        obs.merge_events([{"type": "counter", "name": "x", "delta": 1}])

    def test_merge_events_tags_without_clobbering(self):
        events = [
            {"type": "counter", "name": "a", "delta": 1},
            {"type": "counter", "name": "a", "delta": 1, "worker": 99},
        ]
        with obs.tracing(obs.MemorySink()) as sink:
            obs.merge_events(events, worker=7)
        tags = [e.get("worker") for e in sink.events]
        assert tags == [7, 99]  # setdefault: explicit tags survive
        assert obs.worker_ids(sink.events) == (7, 99)
