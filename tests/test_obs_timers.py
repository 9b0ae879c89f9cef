"""Phase timing: the event log's spans time every compile phase and
every iteration once, and the report folds them into phase totals."""

from repro.baselines import tuned_inliner
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.obs import Observability, build_report
from tests.helpers import shapes_program

SUB_PHASES = ("build", "inline", "optimize", "lower")


def test_engine_records_compile_phases():
    obs = Observability()
    engine = Engine(
        shapes_program(),
        JitConfig(hot_threshold=5),
        inliner=tuned_inliner(0.1),
        seed=0x5EED,
        obs=obs,
    )
    for _ in range(8):
        engine.run_iteration("Main", "run")
    report = build_report(obs.events.records)
    calls = report["phase_calls"]
    assert calls["iteration"] == 8
    assert calls["compile"] == engine.compilation_count >= 1
    for phase in SUB_PHASES:
        assert calls[phase] >= 1, phase
    # Sub-phases nest inside their compile span, so each lies within it
    # and their summed wall time is bounded by the compiles'.
    records = obs.events.records
    begins = {r["span"]: r for r in records if r["type"] == "begin"}
    ends = {r["span"]: r for r in records if r["type"] == "end"}
    for sid, begin in begins.items():
        if begin["name"] in SUB_PHASES:
            parent = begins[begin["parent"]]
            assert parent["name"] == "compile"
            assert parent["ts"] <= begin["ts"]
            assert ends[sid]["ts"] <= ends[parent["span"]]["ts"]
    totals = report["phase_totals"]
    assert sum(totals[phase] for phase in SUB_PHASES) <= totals["compile"]
