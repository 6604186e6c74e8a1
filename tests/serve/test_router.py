"""CellRouter: dispatch, isolation, per-cell hot-swap, merged stats."""

from __future__ import annotations

import pytest

from repro.errors import (ServiceClosedError, ServiceError,
                          UnknownCellError)
from repro.serve import CellConfig, CellRouter, RouterStats


@pytest.fixture()
def two_cell_router(pipeline_result, constant_model):
    """Two cells over the shared registry; cell value == predicted
    group, so any cross-cell misroute is visible in the result."""

    registry = pipeline_result.registry
    width = registry.features_count
    router = CellRouter(CellConfig(max_wait_us=200))
    router.add_cell("cell-a", constant_model(0, width), registry)
    router.add_cell("cell-b", constant_model(1, width), registry)
    yield router, pipeline_result.tasks, width
    router.close()


class TestRegistry:
    def test_cells_listed_in_order(self, two_cell_router):
        router, _tasks, _width = two_cell_router
        assert router.cells == ("cell-a", "cell-b")

    def test_duplicate_cell_rejected(self, two_cell_router,
                                     constant_model):
        router, _tasks, width = two_cell_router
        with pytest.raises(ValueError, match="already registered"):
            router.add_cell("cell-a", constant_model(9, width),
                            router.service("cell-a").registry)

    def test_unknown_cell_raises(self, two_cell_router):
        router, tasks, _width = two_cell_router
        router.start()
        with pytest.raises(UnknownCellError, match="cell-z"):
            router.submit("cell-z", tasks[0])
        # Routed errors are service errors, so callers can catch one
        # family for the whole serving stack.
        assert issubclass(UnknownCellError, ServiceError)

    def test_dynamic_registration_goes_live(self, two_cell_router,
                                            pipeline_result,
                                            constant_model):
        router, tasks, width = two_cell_router
        router.start()
        router.add_cell("cell-c", constant_model(7, width),
                        pipeline_result.registry)
        request = router.classify("cell-c", tasks[0], timeout=5)
        assert request.ok and request.group == 7
        assert request.cell == "cell-c"


class TestDispatch:
    def test_routes_to_owning_cell(self, two_cell_router):
        router, tasks, _width = two_cell_router
        router.start()
        for i in range(60):
            cell = "cell-a" if i % 2 == 0 else "cell-b"
            request = router.classify(cell, tasks[i % len(tasks)],
                                      timeout=5)
            assert request.ok
            assert request.group == (0 if cell == "cell-a" else 1)
            assert request.cell == cell

    def test_per_cell_hot_swap_isolated(self, two_cell_router,
                                        constant_model):
        """Swapping cell-b's model must not touch cell-a's serving."""

        router, tasks, width = two_cell_router
        router.start()
        router.publish("cell-b", constant_model(5, width), clone=False)
        a = router.classify("cell-a", tasks[0], timeout=5)
        b = router.classify("cell-b", tasks[0], timeout=5)
        assert (a.group, a.version) == (0, 1)
        assert (b.group, b.version) == (5, 2)
        assert router.model_version("cell-a") == 1
        assert router.model_version("cell-b") == 2

    def test_interleaved_stream_with_per_cell_swaps_zero_misroutes(
            self, two_cell_router, constant_model):
        """The tentpole criterion: interleave two cells' streams, hot-swap
        each cell mid-stream, and verify every request was classified by
        its own cell's model (value families never cross)."""

        router, tasks, width = two_cell_router
        router.start()
        # Value families: cell-a ∈ {10, 11}, cell-b ∈ {20, 21}.
        router.publish("cell-a", constant_model(10, width), clone=False)
        router.publish("cell-b", constant_model(20, width), clone=False)

        def interleave(n):
            out = []
            for i in range(n):
                cell = "cell-a" if i % 2 == 0 else "cell-b"
                out.append((cell, router.submit(cell,
                                                tasks[i % len(tasks)])))
            return out

        phase1 = interleave(200)
        for cell, request in phase1:
            assert request.wait(10), "request dropped"
        # Per-cell swaps land while phase-2 requests are in flight.
        phase2 = interleave(100)
        router.publish("cell-a", constant_model(11, width), clone=False)
        router.publish("cell-b", constant_model(21, width), clone=False)
        phase3 = interleave(200)

        families = {"cell-a": {10, 11}, "cell-b": {20, 21}}
        for cell, request in phase1 + phase2 + phase3:
            assert request.wait(10), "request dropped"
            assert request.group in families[cell], "cross-cell misroute"
        # Phase 1 drained before the swap; phase 3 was submitted after
        # it — both pin the exact serving version per cell.
        for cell, request in phase1:
            assert request.group == (10 if cell == "cell-a" else 20)
        for cell, request in phase3:
            assert request.group == (11 if cell == "cell-a" else 21)
        assert router.model_version("cell-a") == 3
        assert router.model_version("cell-b") == 3


class TestLifecycle:
    def test_submit_after_close_raises(self, pipeline_result,
                                       constant_model):
        registry = pipeline_result.registry
        router = CellRouter(CellConfig(max_wait_us=200))
        router.add_cell("a", constant_model(0, registry.features_count),
                        registry)
        router.start()
        router.close()
        with pytest.raises(ServiceClosedError):
            router.submit("a", pipeline_result.tasks[0])
        with pytest.raises(ServiceClosedError):
            router.add_cell("b", constant_model(1, registry.features_count),
                            registry)
        with pytest.raises(RuntimeError, match="cannot restart"):
            router.start()

    def test_close_drains_accepted_requests(self, pipeline_result,
                                            constant_model):
        registry = pipeline_result.registry
        router = CellRouter(CellConfig(max_wait_us=200))
        router.add_cell("a", constant_model(0, registry.features_count),
                        registry)
        with router:
            requests = [router.submit("a", pipeline_result.tasks[0])
                        for _ in range(40)]
        assert all(r.ok for r in requests)

    def test_context_manager_round_trip(self, pipeline_result,
                                        constant_model):
        registry = pipeline_result.registry
        router = CellRouter(CellConfig(max_wait_us=200))
        router.add_cell("a", constant_model(2, registry.features_count),
                        registry)
        with router as entered:
            assert entered is router
            assert router.classify("a", pipeline_result.tasks[0]).group == 2


class TestStats:
    def test_merged_stats(self, two_cell_router):
        router, tasks, _width = two_cell_router
        router.start()
        for i in range(30):
            router.classify("cell-a", tasks[i % len(tasks)], timeout=5)
        for i in range(20):
            router.classify("cell-b", tasks[i % len(tasks)], timeout=5)
        stats = router.stats()
        assert isinstance(stats, RouterStats)
        assert set(stats.cells) == {"cell-a", "cell-b"}
        assert stats.cells["cell-a"].completed == 30
        assert stats.cells["cell-b"].completed == 20
        assert stats.requests == 50
        assert stats.completed == 50
        assert stats.pending == 0
        assert stats.swaps == 0
        # Version 1 served in both cells: the merged view sums counts.
        assert stats.versions_served == {1: 50}
        payload = stats.to_dict()
        assert payload["completed"] == 50
        assert payload["cells"]["cell-b"]["completed"] == 20
        assert stats.largest_batch >= 1
