"""Tests for DynLP-style incremental slide planning and serving.

Covers the packed pair keys of ``repro.pipeline.window``,
``repro.pipeline.dynlp`` (window diffs, the affected-vertex computation,
slide planning) and the incremental mode of
:class:`~repro.pipeline.incremental.SlidingWindowDetector` — including
the bitwise incremental-vs-full identity and the rule that a degraded
slide recomputes in full rather than serving stale labels.
"""

import types

import numpy as np
import pytest

from repro import GLPEngine, obs
from repro.errors import PipelineError
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.dynlp import (
    WindowDiff,
    affected_vertices,
    compute_window_diff,
    diff_endpoint_vertices,
    map_previous_vertices,
    plan_slide,
)
from repro.pipeline.incremental import (
    IncrementalWindowBuilder,
    SlidingWindowDetector,
)
from repro.pipeline.seeds import SeedStore
from repro.pipeline.transactions import (
    TRANSACTION_DTYPE,
    TransactionStream,
    TransactionStreamConfig,
)
from repro.pipeline.window import (
    MAX_PACKED_USERS,
    PRODUCT_MASK,
    pack_pairs,
    unpack_pairs,
)
from repro.resilience import FaultPlan, inject


@pytest.fixture(scope="module")
def stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=800,
            num_products=400,
            num_days=12,
            transactions_per_day=400,
            num_rings=3,
            ring_size=6,
            seed=33,
        )
    )


@pytest.fixture(scope="module")
def slide_fixture(stream):
    """(previous window, slide diff, current window) over days 0..8."""
    builder = IncrementalWindowBuilder(stream)
    for day in range(8):
        builder.add_day(day)
    previous = builder.build()
    diff = builder.slide()
    current = builder.build()
    return previous, diff, current


def processed_edges(detection):
    return sum(s.processed_edges for s in detection.lp_result.iterations)


class TestPackPairs:
    def test_roundtrip(self):
        users = np.array([0, 3, 3, 2**30], dtype=np.int64)
        products = np.array([5, 0, 7, PRODUCT_MASK], dtype=np.int64)
        unpacked_users, unpacked_products = unpack_pairs(
            pack_pairs(users, products)
        )
        assert np.array_equal(unpacked_users, users)
        assert np.array_equal(unpacked_products, products)

    def test_user_overflow_rejected(self):
        with pytest.raises(PipelineError):
            pack_pairs(
                np.array([MAX_PACKED_USERS]), np.array([0])
            )

    def test_largest_valid_user_stays_positive(self):
        # The guard exists because ids past the limit shift into the
        # int64 sign bit; the largest admissible id must not.
        keys = pack_pairs(
            np.array([MAX_PACKED_USERS - 1]), np.array([1])
        )
        assert int(keys[0]) > 0
        users, products = unpack_pairs(keys)
        assert int(users[0]) == MAX_PACKED_USERS - 1
        assert int(products[0]) == 1

    def test_product_overflow_rejected(self):
        with pytest.raises(PipelineError):
            pack_pairs(np.array([0]), np.array([PRODUCT_MASK + 1]))


class TestComputeWindowDiff:
    @staticmethod
    def _tables(counts):
        keys = np.array(sorted(counts), dtype=np.int64)
        values = np.array(
            [counts[k] for k in sorted(counts)], dtype=np.float64
        )
        return keys, values

    def test_matches_dict_reference(self):
        before = {key: 1.0 for key in range(0, 100, 2)}
        after = dict(before)
        for key in range(0, 20, 2):  # removed
            del after[key]
        for key in range(1, 21, 2):  # added
            after[key] = 2.0
        for key in range(20, 40, 2):  # reweighted
            after[key] = 3.0

        diff = compute_window_diff(
            *self._tables(before), *self._tables(after)
        )
        assert set(diff.added_keys.tolist()) == set(after) - set(before)
        assert set(diff.removed_keys.tolist()) == set(before) - set(after)
        assert set(diff.reweighted_keys.tolist()) == {
            key
            for key in set(before) & set(after)
            if before[key] != after[key]
        }
        assert diff.num_pairs_before == len(before)
        assert diff.num_pairs_after == len(after)
        assert diff.num_changed == 30

    def test_identical_tables_empty_diff(self):
        counts = {key: float(key % 3 + 1) for key in range(50)}
        diff = compute_window_diff(
            *self._tables(counts), *self._tables(counts)
        )
        assert diff.num_changed == 0
        assert diff.change_ratio == 0.0

    def test_change_ratio_of_emptied_window(self):
        diff = WindowDiff(
            added_keys=np.empty(0, dtype=np.int64),
            removed_keys=np.array([1, 2], dtype=np.int64),
            reweighted_keys=np.empty(0, dtype=np.int64),
            num_pairs_before=2,
            num_pairs_after=0,
        )
        assert diff.change_ratio == 1.0


class TestBuilderDiff:
    def test_slide_diff_matches_dict_reference(self, stream):
        def reference(start, num_days):
            counts = {}
            txns = stream.window_transactions(start, num_days)
            for user, product in zip(txns["user"], txns["product"]):
                key = (int(user) << 32) | int(product)
                counts[key] = counts.get(key, 0) + 1
            return counts

        builder = IncrementalWindowBuilder(stream)
        for day in range(5):
            builder.add_day(day)
        diff = builder.slide()
        before, after = reference(0, 5), reference(1, 5)
        assert set(diff.added_keys.tolist()) == set(after) - set(before)
        assert set(diff.removed_keys.tolist()) == set(before) - set(after)
        assert set(diff.reweighted_keys.tolist()) == {
            key
            for key in set(before) & set(after)
            if before[key] != after[key]
        }
        assert builder.last_diff is diff

    def test_snapshot_restores_last_diff(self, stream):
        builder = IncrementalWindowBuilder(stream)
        for day in range(3):
            builder.add_day(day)
        first = builder.slide()
        snapshot = builder.snapshot()
        builder.slide()
        assert builder.last_diff is not first
        builder.restore(snapshot)
        assert builder.last_diff is first

    @staticmethod
    def _slide_matching_full_diff(builder):
        """Slide once; assert the touched-pair diff equals the diff of the
        full before/after tables, field for field."""
        before = builder.snapshot()
        diff = builder.slide()
        after = builder.snapshot()
        full = compute_window_diff(
            before["pair_keys"], before["pair_counts"],
            after["pair_keys"], after["pair_counts"],
        )
        for field in ("added_keys", "removed_keys", "reweighted_keys"):
            got, want = getattr(diff, field), getattr(full, field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert diff.num_pairs_before == full.num_pairs_before
        assert diff.num_pairs_after == full.num_pairs_after
        return diff

    @pytest.mark.parametrize("seed", [0, 3])
    def test_touched_pair_diff_equals_full_diff(self, seed):
        """Every slide of the e2e benchmark's 65-day stream."""
        stream = TransactionStream(
            TransactionStreamConfig(num_days=65, seed=seed)
        )
        builder = IncrementalWindowBuilder(stream)
        for day in range(14):
            builder.add_day(day)
        slides = 0
        while max(builder.days) < stream.config.num_days - 1:
            self._slide_matching_full_diff(builder)
            slides += 1
        assert slides == 51

    def test_crafted_slides_match_full_diff(self):
        # Day 0's pair (1, 2) comes back on day 2 with the same count, and
        # day 3 is empty.
        days = [[(1, 2), (3, 4)], [(5, 6), (5, 6)], [(1, 2)], []]
        config = types.SimpleNamespace(
            num_users=10, num_products=10, num_days=len(days)
        )

        def window_transactions(start, num_days):
            pairs = [pair for day in days[start:start + num_days]
                     for pair in day]
            transactions = np.zeros(len(pairs), dtype=TRANSACTION_DTYPE)
            if pairs:
                transactions["user"], transactions["product"] = zip(*pairs)
            return transactions

        builder = IncrementalWindowBuilder(types.SimpleNamespace(
            config=config, window_transactions=window_transactions
        ))
        builder.add_day(0)
        builder.add_day(1)

        diff = self._slide_matching_full_diff(builder)
        assert diff.removed_keys.tolist() == pack_pairs([3], [4]).tolist()
        assert diff.num_added == diff.num_reweighted == 0
        assert (diff.num_pairs_before, diff.num_pairs_after) == (3, 2)

        diff = self._slide_matching_full_diff(builder)  # adds the empty day
        assert diff.removed_keys.tolist() == pack_pairs([5], [6]).tolist()
        assert diff.num_added == diff.num_reweighted == 0
        assert (diff.num_pairs_before, diff.num_pairs_after) == (2, 1)


class TestBuilderOverflowGuard:
    """Regression: user ids at or past ``MAX_PACKED_USERS`` shift into the
    packed int64 key's sign bit and wrap, silently merging distinct
    (user, product) pairs.  The builder must refuse such streams up
    front."""

    @staticmethod
    def _stub(num_users, num_products=10):
        config = types.SimpleNamespace(
            num_users=num_users, num_products=num_products
        )
        return types.SimpleNamespace(config=config)

    def test_oversized_user_space_rejected(self):
        with pytest.raises(PipelineError, match="packed"):
            IncrementalWindowBuilder(self._stub(MAX_PACKED_USERS + 1))

    def test_boundary_user_space_accepted(self):
        # Ids are < num_users, so num_users == MAX_PACKED_USERS is the
        # largest stream the packing can carry.
        builder = IncrementalWindowBuilder(self._stub(MAX_PACKED_USERS))
        assert builder.num_pairs == 0

    def test_oversized_product_space_rejected(self):
        with pytest.raises(PipelineError):
            IncrementalWindowBuilder(self._stub(10, PRODUCT_MASK + 1))


class TestAffectedSet:
    def test_map_empty_input(self, slide_fixture):
        previous, _, current = slide_fixture
        mapped = map_previous_vertices(
            np.empty(0, dtype=np.int64), previous, current
        )
        assert mapped.size == 0

    def test_map_preserves_global_ids(self, slide_fixture):
        previous, _, current = slide_fixture
        vertices = np.array([0, previous.num_users], dtype=np.int64)
        prev_globals = {
            int(previous.users[0]),
            int(previous.products[0]),
        }
        mapped = map_previous_vertices(vertices, previous, current)
        got = set()
        for vertex in mapped:
            if vertex < current.num_users:
                got.add(int(current.users[vertex]))
            else:
                got.add(int(current.products[vertex - current.num_users]))
        assert got <= prev_globals

    def test_diff_endpoints_in_range(self, slide_fixture):
        _, diff, current = slide_fixture
        endpoints = diff_endpoint_vertices(diff, current)
        assert endpoints.size > 0
        assert endpoints.min() >= 0
        assert endpoints.max() < current.graph.num_vertices
        users, _ = diff.endpoint_ids()
        got_users = {
            int(current.users[v])
            for v in endpoints
            if v < current.num_users
        }
        assert got_users <= set(users.tolist())

    def test_frontier_subset_and_disjoint_from_labels(
        self, slide_fixture, stream
    ):
        previous, diff, current = slide_fixture
        seeds = SeedStore(stream.blacklist()).window_seeds(current)
        labeled = np.array(sorted(seeds), dtype=np.int64)
        affected = affected_vertices(
            diff,
            previous,
            current,
            residual_frontier=np.arange(
                previous.graph.num_vertices, dtype=np.int64
            ),
            labeled_vertices=labeled,
        )
        assert np.all(np.isin(affected.frontier, affected.candidates))
        assert np.intersect1d(affected.frontier, labeled).size == 0
        assert affected.num_affected <= affected.num_candidates

    def test_no_labels_means_empty_frontier(self, slide_fixture):
        previous, diff, current = slide_fixture
        affected = affected_vertices(
            diff,
            previous,
            current,
            residual_frontier=np.arange(10, dtype=np.int64),
            labeled_vertices=np.empty(0, dtype=np.int64),
        )
        assert affected.num_affected == 0


class TestPlanSlide:
    @staticmethod
    def _seeds(stream, current):
        return SeedStore(stream.blacklist()).window_seeds(current)

    def test_unsupported_engine_falls_back(self, slide_fixture, stream):
        previous, diff, current = slide_fixture
        plan = plan_slide(
            diff,
            previous,
            current,
            residual_frontier=np.arange(10, dtype=np.int64),
            seeds=self._seeds(stream, current),
            engine_supported=False,
        )
        assert plan.mode == "full"
        assert plan.reason == "unsupported-engine"
        assert not plan.incremental

    def test_missing_residual_falls_back(self, slide_fixture, stream):
        previous, diff, current = slide_fixture
        plan = plan_slide(
            diff,
            previous,
            current,
            residual_frontier=None,
            seeds=self._seeds(stream, current),
        )
        assert plan.reason == "no-residual"

    def test_cutover_zero_forces_full(self, slide_fixture, stream):
        previous, diff, current = slide_fixture
        plan = plan_slide(
            diff,
            previous,
            current,
            residual_frontier=np.arange(
                previous.graph.num_vertices, dtype=np.int64
            ),
            seeds=self._seeds(stream, current),
            cutover_ratio=0.0,
        )
        assert plan.mode == "full"
        assert plan.reason == "cutover"
        assert plan.num_affected > 0

    def test_permissive_cutover_goes_incremental(
        self, slide_fixture, stream
    ):
        previous, diff, current = slide_fixture
        plan = plan_slide(
            diff,
            previous,
            current,
            residual_frontier=np.arange(
                previous.graph.num_vertices, dtype=np.int64
            ),
            seeds=self._seeds(stream, current),
            cutover_ratio=1.0,
        )
        assert plan.incremental
        assert plan.reason == "ok"
        assert plan.frontier is not None
        assert plan.num_affected == plan.frontier.size
        assert 0.0 <= plan.affected_ratio <= 1.0

    def test_bad_cutover_ratio_rejected(self, slide_fixture, stream):
        previous, diff, current = slide_fixture
        with pytest.raises(PipelineError):
            plan_slide(
                diff,
                previous,
                current,
                residual_frontier=np.arange(10, dtype=np.int64),
                seeds=self._seeds(stream, current),
                cutover_ratio=1.5,
            )


class TestIncrementalServing:
    @staticmethod
    def _make(stream, **kwargs):
        return SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine(frontier="auto")), **kwargs
        )

    def test_bitwise_identity_with_fewer_edges(self, stream):
        full = self._make(stream)
        inc = self._make(stream, incremental=True, cutover_ratio=1.0)
        full.start(0, 8)
        inc.start(0, 8)
        # The cold start has no previous detection to re-converge from.
        assert inc.last_plan.reason == "cold"
        for _ in range(2):
            _, full_det = full.slide()
            _, inc_det = inc.slide()
            assert inc.last_plan.incremental
            assert inc.last_plan.reason == "ok"
            assert (
                inc_det.lp_result.labels_hash()
                == full_det.lp_result.labels_hash()
            )
            assert processed_edges(inc_det) < processed_edges(full_det)

    def test_cutover_slide_still_identical(self, stream):
        full = self._make(stream)
        forced = self._make(stream, incremental=True, cutover_ratio=0.0)
        full.start(0, 8)
        forced.start(0, 8)
        _, full_det = full.slide()
        _, forced_det = forced.slide()
        assert forced.last_plan.mode == "full"
        assert forced.last_plan.reason == "cutover"
        assert (
            forced_det.lp_result.labels_hash()
            == full_det.lp_result.labels_hash()
        )

    def test_dense_engine_plans_full(self, stream):
        # A dense-mode engine cannot accept an initial frontier; the plan
        # must say so instead of silently serving a different schedule.
        detector = SlidingWindowDetector(
            stream,
            ClusterDetector(GLPEngine()),
            incremental=True,
        )
        detector.start(0, 8)
        detector.slide()
        assert detector.last_plan.mode == "full"
        assert detector.last_plan.reason == "unsupported-engine"

    def test_diff_and_plan_metrics_recorded(self, stream):
        inc = self._make(stream, incremental=True, cutover_ratio=1.0)
        with obs.observe() as session:
            inc.start(0, 8)
            inc.slide()
        entries = session.metrics.to_dict()["metrics"]
        names = {entry["name"] for entry in entries}
        assert "pipeline_window_diff_pairs_total" in names
        assert "pipeline_window_diff_ratio" in names
        assert "pipeline_incremental_total" in names
        assert "pipeline_affected_vertices" in names
        diff = inc.builder.last_diff
        kinds = {
            entry["labels"].get("kind"): entry["value"]
            for entry in entries
            if entry["name"] == "pipeline_window_diff_pairs_total"
        }
        assert kinds["added"] == diff.num_added
        assert kinds["removed"] == diff.num_removed
        assert kinds["reweighted"] == diff.num_reweighted

    def test_injected_oom_recomputes_full_not_stale(self, stream):
        """A device fault mid-incremental-slide must degrade the engine,
        never the answer: the fallback reruns the full warm detection."""
        reference = self._make(stream)
        inc = self._make(stream, incremental=True, cutover_ratio=1.0)
        reference.start(0, 8)
        inc.start(0, 8)
        reference.slide()
        inc.slide()  # clean slide establishes the residual frontier
        _, ref_det = reference.slide()
        with obs.observe():
            with inject(FaultPlan.parse("oom@2x999999")):
                _, inc_det = inc.slide()
        # The plan went incremental, but the degraded detection matches
        # the clean full recompute bit for bit.
        assert inc.last_plan.incremental
        assert (
            inc_det.lp_result.labels_hash()
            == ref_det.lp_result.labels_hash()
        )
