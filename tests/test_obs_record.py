"""One record per fact: the event log and the flight ring agree.

Every fact the VM reports goes through ``Observability.record``, which
writes one event-log point event and one flight record with the same
kind and attributes; only the high-volume ``pass``, ``pass.skipped``,
``iteration`` and ``serve.run`` events stay in the log alone. Sync, OSR
and background compiles share one trigger record, one install path and
one failure path, so a background compile records the sync kinds plus
``mode="async"``. These tests pin both properties on real workloads, the
OSR failure fold of ``build_report``, and a source guard that keeps
every module outside ``repro/obs/`` off the two sinks.
"""

import ast
import os

import pytest

from repro.baselines import tuned_inliner
from repro.bench.suite import get_benchmark
from repro.errors import CompileError
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.lang import compile_source
from repro.obs import Observability
from repro.obs.report import build_report, render_report
from repro.serve.scheduler import BackgroundCompiler
from repro.tools.explain import render
from tests.test_deopt import flip_program, speculative_engine

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Events written to the log alone: one per optimizer pass group run or
#: skipped, or fleet run.
LOG_ONLY = ("pass", "pass.skipped", "serve.run")

#: The compile-outcome kinds every compile mode records.
COMPILE_KINDS = (
    "jit.trigger", "jit.install", "jit.compile_failed",
    "osr.trigger", "osr.install", "osr.compile_failed",
)

#: Room for every record of the runs below: parity needs the whole
#: stream, not the ring's recent tail.
CAPACITY = 1 << 20


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_FLIGHT_DUMP", raising=False)


def point_events(obs):
    return [
        (record["name"], record["attrs"])
        for record in obs.events.records
        if record["type"] == "event" and record["name"] not in LOG_ONLY
    ]


def flight_records(obs):
    assert obs.flight.evicted == 0
    return [(record["kind"], record["attrs"]) for record in obs.flight.records()]


def workload_config(**overrides):
    overrides.setdefault("hot_threshold", 5)
    return JitConfig(
        speculate=True, typespec=True, osr=True, osr_threshold=30,
        **overrides
    )


# ----------------------------------------------------------------------
# (a) the two sinks agree, record for record
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gauss-mix", "jython"])
def test_log_and_ring_agree_on_a_workload(name):
    obs = Observability(flight_capacity=CAPACITY)
    engine = Engine(
        get_benchmark(name).load(), workload_config(), tuned_inliner(0.1),
        obs=obs,
    )
    for _ in range(6):
        engine.run_iteration("Main", "run")
    events = point_events(obs)
    assert events == flight_records(obs)
    kinds = {kind for kind, _ in events}
    assert {
        "jit.trigger", "jit.install", "osr.trigger", "osr.install",
        "osr.enter", "inline.begin",
    } <= kinds


def test_log_and_ring_agree_across_a_deopt():
    obs = Observability(flight_capacity=CAPACITY)
    engine = speculative_engine(flip_program(), obs=obs)
    for index in range(30):
        engine.call("Main", "drive", [1 if index in (10, 20) else 0])
    assert engine.deopt_count >= 1
    events = point_events(obs)
    assert events == flight_records(obs)
    (deopt, *_) = [attrs for kind, attrs in events if kind == "deopt"]
    assert set(deopt) == {"method", "reason", "site", "count", "frames"}
    assert "jit.invalidate" in {kind for kind, _ in events}


# ----------------------------------------------------------------------
# (b) sync and async compiles record the same facts
# ----------------------------------------------------------------------

#: ``Main.run`` and ``Main.spin`` loop (OSR), ``step`` and ``twice`` are
#: hot leaves. ``step``'s whole-method compile and ``spin``'s OSR
#: compile are made to fail, so one run meets every compile outcome.
MIXED_SOURCE = """
object Main {
  def step(x: int): int { return x * 3 + 1; }
  def twice(x: int): int { return x + x; }
  def spin(n: int): int {
    var s: int = 0;
    var i: int = 0;
    while (i < n) { s = s + Main.twice(i); i = i + 1; }
    return s;
  }
  def run(): int {
    var s: int = 0;
    var i: int = 0;
    while (i < 500) { s = s + Main.step(i); i = i + 1; }
    return s + Main.spin(500);
  }
}
"""


def _failing(compile_fn, qualified_name):
    def compile_or_fail(method, *args):
        if method.qualified_name == qualified_name:
            raise CompileError("forced failure of %s" % qualified_name)
        return compile_fn(method, *args)

    return compile_or_fail


def run_mixed(mode):
    """Six iterations of :data:`MIXED_SOURCE`; an async engine drains
    its worker-less queue after every iteration."""
    obs = Observability(flight_capacity=CAPACITY)
    service = BackgroundCompiler(workers=0) if mode == "async" else None
    engine = Engine(
        compile_source(MIXED_SOURCE),
        workload_config(compile_mode=mode),
        tuned_inliner(0.1),
        obs=obs,
        compile_service=service,
    )
    compiler = engine.compiler
    compiler.compile = _failing(compiler.compile, "Main.step")
    compiler.compile_osr = _failing(compiler.compile_osr, "Main.spin")
    values = []
    for _ in range(6):
        values.append(engine.run_iteration("Main", "run").value)
        assert engine.drain_compiles()
    if service is not None:
        service.close()
    return obs, values


def compile_facts(obs):
    return [
        (record["kind"], record["attrs"])
        for record in obs.flight.records()
        if record["kind"] in COMPILE_KINDS
    ]


def test_sync_and_async_compiles_record_the_same_facts():
    sync_obs, sync_values = run_mixed("sync")
    async_obs, async_values = run_mixed("async")
    assert async_values == sync_values
    sync_facts = compile_facts(sync_obs)
    async_facts = compile_facts(async_obs)
    assert all("mode" not in attrs for _, attrs in sync_facts)
    assert all(attrs["mode"] == "async" for _, attrs in async_facts)

    def shapes(facts):
        return {
            (kind, frozenset(attrs) - {"mode"}, attrs["method"],
             attrs.get("bci"))
            for kind, attrs in facts
        }

    assert shapes(async_facts) == shapes(sync_facts)
    assert {kind for kind, _ in sync_facts} == set(COMPILE_KINDS)
    # Both modes fold the same failures, the OSR one with its bci.
    sync_failures = build_report(sync_obs.events.records)["failures"]
    assert sync_failures == build_report(async_obs.events.records)["failures"]
    assert sync_failures[0] == "Main.step"
    assert sync_failures[1].startswith("Main.spin@osr")
    assert not async_obs.flight.of_kind("compile.enqueue")


# ----------------------------------------------------------------------
# stats folds OSR compile failures
# ----------------------------------------------------------------------

LOOP_SOURCE = """
object Main {
  def run(): int {
    var s: int = 0;
    var i: int = 0;
    while (i < 5000) { s = s + i; i = i + 1; }
    return s;
  }
}
"""


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_stats_reports_osr_compile_failures(mode):
    obs = Observability()
    service = BackgroundCompiler(workers=0) if mode == "async" else None
    engine = Engine(
        compile_source(LOOP_SOURCE),
        JitConfig(hot_threshold=10**9, osr=True, osr_threshold=50,
                  compile_mode=mode),
        tuned_inliner(0.1),
        obs=obs,
        compile_service=service,
    )
    engine.compiler.compile_osr = _failing(
        engine.compiler.compile_osr, "Main.run"
    )
    for _ in range(2):
        engine.run_iteration("Main", "run")
        assert engine.drain_compiles()
    if service is not None:
        service.close()
    ((_, bci),) = engine._osr_failed
    assert obs.metrics.value("jit.compile.failures") == 1
    report = build_report(obs.events.records)
    assert report["failures"] == ["Main.run@osr%d" % bci]
    assert "FAILED Main.run@osr%d" % bci in render_report(report)


def test_explain_counts_osr_installs_without_provenance():
    obs = Observability()
    engine = Engine(
        compile_source(LOOP_SOURCE),
        JitConfig(hot_threshold=10**9, osr=True, osr_threshold=50),
        None,
        obs=obs,
    )
    engine.run_iteration("Main", "run")
    assert engine.osr_compilation_count == 1
    assert "1 compilation(s) installed but no inlining provenance" in render(
        obs.flight.records()
    )


# ----------------------------------------------------------------------
# Source guard: only repro/obs/ touches the sinks directly
# ----------------------------------------------------------------------


def _named(node, name):
    """Whether *node* is ``name`` or ``<expr>.name`` (a leading
    underscore ignored, so ``self._flight`` counts)."""
    if isinstance(node, ast.Attribute):
        return node.attr.lstrip("_") == name
    if isinstance(node, ast.Name):
        return node.id.lstrip("_") == name
    return False


def sink_uses(source):
    """``(line, what)`` for every direct sink use in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "enabled"
            and _named(node.value, "flight")
        ):
            found.append((node.lineno, "flight.enabled"))
        if not (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ):
            continue
        target = node.func.value
        if node.func.attr == "record" and _named(target, "flight"):
            found.append((node.lineno, "flight.record"))
        elif node.func.attr == "emit" and _named(target, "events"):
            kind = node.args[0] if node.args else None
            if not (
                isinstance(kind, ast.Constant) and kind.value in LOG_ONLY
            ):
                found.append((node.lineno, "events.emit"))
    return sorted(found)


def test_guard_flags_every_direct_sink_use():
    source = (
        "if obs.flight.enabled:\n"
        "    obs.flight.record('deopt', method=m)\n"
        "self._flight.record('trap')\n"
        "obs.events.emit('jit.install', method=m)\n"
        "obs.events.emit(kind)\n"
        "obs.events.emit('pass', name='gvn')\n"
        "obs.events.emit('serve.run')\n"
        "obs.record('deopt', method=m)\n"
    )
    assert sink_uses(source) == [
        (1, "flight.enabled"),
        (2, "flight.record"),
        (3, "flight.record"),
        (4, "events.emit"),
        (5, "events.emit"),
    ]


def test_only_obs_writes_the_sinks_directly():
    offenders = []
    for directory, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, SRC)
            if module.startswith(os.path.join("repro", "obs") + os.sep):
                continue
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            offenders.extend(
                "%s:%d %s" % (module, line, what)
                for line, what in sink_uses(source)
            )
    assert offenders == []
