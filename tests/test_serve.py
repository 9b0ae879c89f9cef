"""The multi-tenant serving layer: queue, scheduler, service.

Concurrency-sensitive behaviour (cancellation ordering, install-after-
evict) is tested deterministically with ``compile_workers=0``: requests
queue up but nothing compiles until the test drains the queue itself
via :meth:`~repro.serve.scheduler.BackgroundCompiler.run_queued` — so
"the compile finished after the tenant was evicted" is a statement the
test *constructs*, not a race it hopes to win.
"""

import collections
import os
import sys
import threading
import time

import pytest

from repro.baselines import tuned_inliner
from repro.interp.profiles import ProfileStore
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.obs import Observability
from repro.serve import (
    AdmissionDenied,
    BackgroundCompiler,
    CompileQueue,
    CompileRequest,
    ServiceConfig,
    TenantSpec,
    VMService,
)
from repro.serve.profiles import SharedProfileAggregator, share_by_class_prefix

from tests.helpers import shapes_program


def _request(method_name="f"):
    """A dummy request; never executed, only queued/cancelled."""

    class _Method:
        qualified_name = "T.%s" % method_name

    return CompileRequest(engine=None, method=_Method())


# ----------------------------------------------------------------------
# Queue mechanics
# ----------------------------------------------------------------------


class TestCompileQueue:
    def test_fifo_order(self):
        queue = CompileQueue(capacity=4)
        first, second = _request("a"), _request("b")
        assert queue.submit(first)
        assert queue.submit(second)
        assert queue.pop(timeout=0) is first
        assert queue.pop(timeout=0) is second
        assert queue.pop(timeout=0) is None

    def test_bounded_submit_rejects_when_full(self):
        queue = CompileQueue(capacity=2)
        assert queue.submit(_request())
        assert queue.submit(_request())
        assert not queue.submit(_request())
        assert len(queue) == 2

    def test_close_drains_and_cancels(self):
        queue = CompileQueue(capacity=4)
        pending = [_request("a"), _request("b")]
        for request in pending:
            queue.submit(request)
        drained = queue.close()
        assert drained == pending
        assert all(request.cancelled for request in drained)
        assert not queue.submit(_request())  # closed queue rejects
        assert queue.pop(timeout=0) is None

    def test_scheduler_counts_backpressure(self):
        compiler = BackgroundCompiler(workers=0, queue_capacity=1)
        assert compiler.submit(_request())
        overflow = _request()
        assert not compiler.submit(overflow)
        assert compiler.rejected == 1
        assert overflow.outcome == "rejected"
        assert overflow.done.is_set()


# ----------------------------------------------------------------------
# Engine + scheduler, deterministic (workers=0)
# ----------------------------------------------------------------------


def _async_engine(service, **jit):
    jit.setdefault("hot_threshold", 2)
    return Engine(
        shapes_program(),
        JitConfig(compile_mode="async", **jit),
        tuned_inliner(0.5),
        compile_service=service,
    )


class TestBackgroundCompilation:
    def test_async_values_equal_sync(self):
        sync = Engine(
            shapes_program(), JitConfig(hot_threshold=2), tuned_inliner(0.5)
        )
        expected = [sync.run_iteration("Main", "run").value for _ in range(6)]

        with BackgroundCompiler(workers=0) as service:
            engine = _async_engine(service)
            values = []
            for _ in range(6):
                values.append(engine.run_iteration("Main", "run").value)
                service.run_queued()
        assert values == expected
        assert engine.async_installs > 0
        # Every compilation flowed through the queue: nothing compiled
        # synchronously on the application thread.
        assert engine.compilation_count == engine.async_installs
        assert service.completed == engine.async_installs

    def test_interpretation_continues_while_queued(self):
        # Nothing drains the queue, so the engine never sees compiled
        # code — and must keep producing correct values interpreted.
        sync = Engine(shapes_program(), JitConfig(compile_enabled=False))
        expected = [sync.run_iteration("Main", "run").value for _ in range(4)]
        with BackgroundCompiler(workers=0) as service:
            engine = _async_engine(service)
            values = [
                engine.run_iteration("Main", "run").value for _ in range(4)
            ]
            assert values == expected
            assert engine.compilation_count == 0
            assert service.depth > 0
            assert len(engine.pending_compiles()) == service.depth

    def test_duplicate_requests_are_deduped(self):
        with BackgroundCompiler(workers=0) as service:
            engine = _async_engine(service)
            for _ in range(5):
                engine.run_iteration("Main", "run")
            # The pending marker keeps one request per method in flight.
            methods = [r.describe() for r in engine.pending_compiles()]
            assert len(methods) == len(set(methods))

    def test_queued_method_is_not_requested_again(self, monkeypatch):
        """A hot call of a method whose compile is queued makes no
        ``_should_compile`` or ``_request_compile`` call: the dispatch
        sees the pending marker first."""
        calls = []
        for name in ("_dispatch", "_should_compile", "_request_compile"):
            original = getattr(Engine, name)

            def counted(engine, method, *args, _name=name,
                        _original=original):
                calls.append((_name, method))
                return _original(engine, method, *args)

            monkeypatch.setattr(Engine, name, counted)
        with BackgroundCompiler(workers=0) as service:
            engine = _async_engine(service)
            for _ in range(3):
                engine.run_iteration("Main", "run")
            queued = {request.method for request in engine.pending_compiles()}
            depth = service.depth
            assert queued
            del calls[:]
            for _ in range(3):
                engine.run_iteration("Main", "run")
            assert service.depth == depth
        on_queued = collections.Counter(
            name for name, method in calls if method in queued
        )
        assert on_queued["_dispatch"] > 0
        assert on_queued["_should_compile"] == 0
        assert on_queued["_request_compile"] == 0

    def test_cancelled_before_drain_never_installs(self):
        with BackgroundCompiler(workers=0) as service:
            engine = _async_engine(service)
            for _ in range(3):
                engine.run_iteration("Main", "run")
            pending = engine.pending_compiles()
            assert pending
            for request in pending:
                request.cancel()
            service.run_queued()
            assert engine.compilation_count == 0
            assert engine.async_cancelled == len(pending)
            assert service.cancelled == len(pending)
            assert all(r.outcome == "cancelled" for r in pending)

    def test_background_cycles_never_charge_iterations(self):
        def async_run():
            with BackgroundCompiler(workers=0) as service:
                engine = _async_engine(service)
                cycles = []
                for _ in range(6):
                    cycles.append(
                        engine.run_iteration("Main", "run").total_cycles
                    )
                    service.run_queued()
            return engine, cycles

        engine, cycles = async_run()
        # Compile cycles land in the background ledger, never in an
        # iteration: once warm, iterations cost exactly the same even
        # though compilations happened in between.
        assert engine.background_compile_cycles > 0
        assert cycles[-1] == cycles[-2]
        sync = Engine(
            shapes_program(), JitConfig(hot_threshold=2), tuned_inliner(0.5)
        )
        for _ in range(6):
            sync.run_iteration("Main", "run")
        assert sync.background_compile_cycles == 0
        # Deterministic: the whole cycle trace replays exactly.
        _, replay = async_run()
        assert replay == cycles

    def test_real_worker_thread_end_to_end(self):
        sync = Engine(
            shapes_program(), JitConfig(hot_threshold=2), tuned_inliner(0.5)
        )
        expected = [sync.run_iteration("Main", "run").value for _ in range(6)]
        with BackgroundCompiler(workers=1) as service:
            engine = _async_engine(service)
            values = []
            for _ in range(6):
                values.append(engine.run_iteration("Main", "run").value)
                assert engine.drain_compiles(timeout=10.0)
            assert values == expected
            assert engine.async_installs > 0


# ----------------------------------------------------------------------
# Admission and service lifecycle
# ----------------------------------------------------------------------


def _spec(name, **kw):
    kw.setdefault("benchmark", "avrora")
    kw.setdefault("iterations", 3)
    kw.setdefault("inliner", lambda: tuned_inliner(0.1))
    return TenantSpec(name, **kw)


class TestAdmission:
    def test_service_full(self):
        config = ServiceConfig(max_tenants=1, compile_workers=0)
        with VMService(config) as service:
            service.admit(_spec("a"))
            with pytest.raises(AdmissionDenied, match="full"):
                service.admit(_spec("b"))
            assert service.admission.denied == 1

    def test_duplicate_name(self):
        with VMService(ServiceConfig(compile_workers=0)) as service:
            service.admit(_spec("a"))
            with pytest.raises(AdmissionDenied, match="already admitted"):
                service.admit(_spec("a"))

    def test_quota_exceeding_budget(self):
        config = ServiceConfig(compile_workers=0, cache_budget=1000)
        with VMService(config) as service:
            with pytest.raises(AdmissionDenied, match="exceeds"):
                service.admit(_spec("a", quota=2000))

    def test_bad_merge_policy(self):
        with VMService(ServiceConfig(compile_workers=0)) as service:
            with pytest.raises(AdmissionDenied, match="merge"):
                service.admit(_spec("a", merge="majority"))

    def test_spec_requires_exactly_one_program_source(self):
        with pytest.raises(ValueError):
            TenantSpec("a")
        with pytest.raises(ValueError):
            TenantSpec("a", program=object(), benchmark="avrora")


class TestService:
    def test_sync_and_async_fleets_bit_identical(self):
        def fleet(mode):
            config = ServiceConfig(
                compile_workers=2, compile_mode=mode, hot_threshold=5
            )
            with VMService(config) as service:
                for index, benchmark in enumerate(
                    ["avrora", "scalap", "fop", "kiama"]
                ):
                    service.admit(_spec(
                        "t%d" % index, benchmark=benchmark, iterations=4,
                    ))
                report = service.run(concurrent=(mode == "async"))
                state = {
                    tenant.name: (list(tenant.outcomes), tenant.output)
                    for tenant in service.tenants.values()
                }
            return report, state

        sync_report, sync_state = fleet("sync")
        async_report, async_state = fleet("async")
        assert async_state == sync_state
        assert async_report.total_iterations == 16
        assert 0.0 < async_report.fairness <= 1.0
        assert async_report.queue_stats["submitted"] > 0

    def test_eviction_cancels_pending_and_drops_cache(self):
        config = ServiceConfig(
            compile_workers=0, compile_mode="async", hot_threshold=2
        )
        with VMService(config) as service:
            tenant = service.admit(_spec("victim", iterations=4))
            other = service.admit(_spec("bystander", iterations=4))
            service.run(concurrent=False)
            assert tenant.state == "done"
            # Warm both tenants again so requests re-queue, then evict
            # one before anything compiles.
            # (run() drained the queue at the end; force fresh work.)
            queued = service.scheduler.submitted
            assert queued > 0

        # Deterministic replay of the eviction race: queue requests
        # with workers=0, evict, then drain — the dequeued requests
        # must come out cancelled, and the cache must hold no bytes
        # for the evicted tenant.
        config = ServiceConfig(
            compile_workers=0, compile_mode="async", hot_threshold=2
        )
        with VMService(config) as service:
            tenant = service.admit(_spec("victim", iterations=3))
            tenant.run_workload()  # queues compiles, nothing drains
            pending = tenant.engine.pending_compiles()
            assert pending
            service.evict("victim")
            assert tenant.state in ("evicted", "done")
            assert tenant.evicted
            service.scheduler.run_queued()
            assert all(r.outcome == "cancelled" for r in pending)
            assert tenant.engine.compilation_count == 0
            assert service.cache.tenant_size(tenant.tenant_id) == 0

    def test_report_shape(self):
        config = ServiceConfig(compile_workers=0, compile_mode="sync")
        with VMService(config) as service:
            service.admit(_spec("only", iterations=2))
            report = service.run(concurrent=False)
        data = report.as_dict()
        assert data["mode"] == "sync"
        assert data["total_iterations"] == 2
        assert data["queue"] == {"mode": "sync"}
        assert data["tenants"][0]["name"] == "only"
        assert data["tenants"][0]["state"] == "done"

    def test_serve_metrics_flow(self):
        obs = Observability()
        config = ServiceConfig(
            compile_workers=0, compile_mode="async", hot_threshold=2
        )
        with VMService(config, obs=obs) as service:
            service.admit(_spec("a", iterations=4))
            service.run(concurrent=False)
        metrics = obs.metrics
        assert metrics.value("serve.tenants.admitted") == 1
        assert metrics.value("compile.queue.submitted") > 0
        assert metrics.value("compile.queue.completed") > 0
        assert metrics.get("compile.queue.wait_ms") is not None
        assert obs.flight.of_kind("serve.admit")


# ----------------------------------------------------------------------
# Profile pooling
# ----------------------------------------------------------------------


class TestProfilePooling:
    def test_shared_tenants_pool_isolated_tenants_dont(self):
        aggregator = SharedProfileAggregator()
        sharing = aggregator.store_for_tenant(merge="shared")
        private = aggregator.store_for_tenant(merge="isolated")
        program = shapes_program()
        method = program.lookup_method("Main", "total")

        sharing.of(method).invocations += 5
        assert aggregator.global_profile(method.qualified_name).invocations == 5
        private.of(method).invocations += 7
        # The isolated tenant's writes never reached the pool...
        assert aggregator.global_profile(method.qualified_name).invocations == 5
        # ...and its reads never see it.
        assert private.maybe_of(method).invocations == 7
        # The sharing tenant's compiler reads the pooled count.
        assert sharing.maybe_of(method).invocations == 5

    def test_share_predicate_restricts_pooling(self):
        aggregator = SharedProfileAggregator(
            share=share_by_class_prefix("Lib")
        )
        store = aggregator.store_for_tenant(merge="shared")
        program = shapes_program()
        main = program.lookup_method("Main", "total")
        store.of(main).invocations += 3
        assert aggregator.global_profile(main.qualified_name).invocations == 0

    def test_hotness_stays_tenant_local(self):
        # Compile triggers must reflect one tenant's own traffic: the
        # pooled invocation count must not leak into hotness.
        aggregator = SharedProfileAggregator()
        busy = aggregator.store_for_tenant(merge="shared")
        idle = aggregator.store_for_tenant(merge="shared")
        program = shapes_program()
        method = program.lookup_method("Main", "total")
        busy.of(method).invocations += 100
        idle.of(method)  # materialize, no traffic
        assert busy.hotness(method) == 100
        assert idle.hotness(method) == 0

    def test_snapshot_overlays_pooled_profiles(self):
        aggregator = SharedProfileAggregator()
        a = aggregator.store_for_tenant(merge="shared")
        b = aggregator.store_for_tenant(merge="shared")
        program = shapes_program()
        method = program.lookup_method("Main", "total")
        a.of(method).invocations += 4
        b.of(method).invocations += 9
        snap = a.snapshot()
        # The snapshot sees the fleet's pooled total, frozen.
        assert snap.maybe_of(method).invocations == 13
        a.of(method).invocations += 1
        assert snap.maybe_of(method).invocations == 13

    def test_snapshots_under_concurrent_writers(self):
        """Stress: more writer threads than cores record into tenants
        sharing one aggregator while this thread snapshots. Dicts resize
        mid-copy all the time; no exception may escape and no snapshot
        may hold a live profile object."""

        class _Method:
            def __init__(self, qualified_name):
                self.qualified_name = qualified_name

        methods = [_Method("Lib.m%d" % i) for i in range(40)]
        aggregator = SharedProfileAggregator()
        obs = Observability()
        stores = [
            aggregator.store_for_tenant(merge="shared", obs=obs)
            for _ in range((os.cpu_count() or 1) + 2)
        ]
        own = aggregator.store_for_tenant(merge="shared", obs=obs)
        own.of(methods[0]).invocations += 1
        stop = threading.Event()
        errors = []

        def write(store, seed):
            try:
                step = seed
                while not stop.is_set():
                    step += 1
                    profile = store.of(methods[step % len(methods)])
                    profile.invocations += 1
                    profile.branch(step % 997).record(step & 1)
                    profile.record_backedge(step % 991)
                    profile.record_callsite(step % 983)
                    profile.receiver(step % 977).record("C%d" % (step % 11))
                    profile.typecheck(step % 971).record(
                        None if step % 5 == 0 else "T%d" % (step % 3)
                    )
            except Exception as error:  # reported by the assert below
                errors.append(error)

        writers = [
            threading.Thread(target=write, args=(store, 7919 * index),
                             daemon=True)
            for index, store in enumerate(stores)
        ]
        snapshots = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for writer in writers:
                writer.start()
            # At least three rounds however slow each one is under load
            # (a first round with a fallback ``merged_copy`` can take
            # the whole second).
            deadline = time.monotonic() + 1.0
            rounds = 0
            while rounds < 3 or time.monotonic() < deadline:
                rounds += 1
                other = stores[len(snapshots) % len(stores)]
                snapshots += [own.snapshot(), other.snapshot()]
                merged = aggregator.merged_copy(methods[1].qualified_name, obs)
                if merged is not None:
                    snapshots.append(merged)
        finally:
            stop.set()
            for writer in writers:
                writer.join(timeout=10)
            sys.setswitchinterval(old_interval)
        assert not any(writer.is_alive() for writer in writers)
        assert errors == []

        def mutable_objects(obj):
            """Every dict and profile object a store or profile holds."""
            if isinstance(obj, ProfileStore):
                for table in (obj._methods, obj._contexts):
                    for profile in table.values():
                        yield from mutable_objects(profile)
                return
            yield from (obj, obj.backedges, obj.callsites)
            for table in (obj.branches, obj.receivers, obj.typechecks):
                yield table
                for site in table.values():
                    yield site
                    if hasattr(site, "counts"):
                        yield site.counts

        live = {
            id(obj)
            for store in stores + [own]
            for obj in mutable_objects(store)
        }
        live.update(
            id(obj)
            for profile in aggregator._global.values()
            for obj in mutable_objects(profile)
        )
        assert len(snapshots) > 2
        for snapshot in snapshots:
            assert not any(
                id(obj) in live for obj in mutable_objects(snapshot)
            )


# ----------------------------------------------------------------------
# CLI smoke (in-process)
# ----------------------------------------------------------------------


class TestServeCli:
    def test_smoke_exits_zero(self, capsys):
        from repro.tools.serve import main

        assert main([
            "--smoke", "--tenants", "4", "--iterations", "3",
            "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "async == sync" in out

    def test_plain_run_reports_fleet(self, capsys):
        from repro.tools.serve import main

        assert main([
            "--tenants", "3", "--iterations", "2", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "tenants=3" in out
