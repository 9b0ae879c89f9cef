"""Tests for the differential fuzzing subsystem (:mod:`repro.fuzz`)."""

import importlib
import re

import pytest

import repro.fuzz.oracle as oracle_module
import repro.fuzz.reduce as reduce_module
from repro.backend import pycodegen

# ``repro.opts`` re-exports a ``canonicalize`` *function*, which shadows
# the submodule under ``import repro.opts.canonicalize as ...``.
canon = importlib.import_module("repro.opts.canonicalize")
from repro.bytecode.opcodes import Op
from repro.fuzz import (
    check_program,
    generate_case,
    load_corpus_text,
    program_to_asm,
    run_campaign,
    shrink_case,
)
from repro.fuzz.bisect import bisect_passes
from repro.fuzz.oracle import (
    CACHE_BUDGETS,
    Divergence,
    oracle_config_names,
    run_interpreter,
)
from repro.jit.engine import Engine
from repro.obs import Observability
from repro.tools import explain as explain_cli
from repro.tools import fuzz as fuzz_cli
from tests.helpers import single_method_program

SMOKE_SEEDS = range(100, 115)


class TestGenerator:
    def test_deterministic(self):
        for seed in (3, 11, 0xABCD ^ 5):  # include a minij-mode seed
            first, entry_a = generate_case(seed).build()
            second, entry_b = generate_case(seed).build()
            assert entry_a == entry_b
            assert program_to_asm(first, entry_a) == program_to_asm(
                second, entry_b
            )

    def test_programs_verify_and_run(self):
        # build() verifies; the interpreter must also complete (values
        # or traps, never a host crash).
        for seed in SMOKE_SEEDS:
            program, entry = generate_case(seed).build()
            record = run_interpreter(program, entry, iterations=2)
            assert len(record.outcomes) == 2
            for outcome in record.outcomes:
                assert outcome[0] in ("value", "trap")

    def test_both_modes_reachable(self):
        kinds = {generate_case(seed).kind for seed in range(40)}
        assert kinds == {"bytecode", "minij"}

    def test_minij_mode_builds(self):
        case = generate_case(9, mode="minij")
        program, entry = case.build()
        record = run_interpreter(program, entry, iterations=1)
        assert record.outcomes[0][0] in ("value", "trap")

    def test_shrink_candidates_are_strictly_smaller(self):
        case = generate_case(104)
        assert case.kind == "bytecode"
        size = case.size()
        candidates = list(case.shrink_candidates())
        assert candidates, "a generated case always has shrink moves"
        for candidate in candidates[:80]:
            assert candidate.size() < size


def _seeded_folder_bug(monkeypatch):
    """Break SHL constant folding: drop the JVM's ``& 63`` mask."""
    original = canon._fold_binop

    def broken(op, a, b):
        if op == Op.SHL:
            return a << (b % (1 << 20))  # bounded, but unmasked
        return original(op, a, b)

    monkeypatch.setattr(canon, "_fold_binop", broken)


def _seeded_cycle_drift(monkeypatch):
    """Make the py tier drop one cycle in every merge block."""
    emit = pycodegen._PyCodegen._emit_block

    def drifting(codegen, block, depth):
        emit(codegen, block, depth)
        if len(block.preds) >= 2:
            codegen._line(depth, "_cy -= 1")

    monkeypatch.setattr(pycodegen._PyCodegen, "_emit_block", drifting)


def _counting_loop_program():
    def build(b):
        i = b.alloc_local()
        b.const(0).store(i)
        top, done = b.new_label(), b.new_label()
        b.place(top).load(i).const(7).ge().if_true(done)
        b.load(i).const(1).add().store(i).goto(top)
        b.place(done).load(i).retv()

    return single_method_program(build, params=())


def _shl64_program():
    # 1 << 64 is 1 under masked semantics; a broken folder turns the
    # whole expression into a constant 0 (2**64 wraps).
    return single_method_program(
        lambda b: b.const(1).const(64).shl().retv(), params=()
    )


class TestOracle:
    def test_clean_program_agrees(self):
        program, entry = generate_case(101).build()
        assert check_program(program, entry, ["jit"], iterations=3) is None

    def test_detects_seeded_constant_folding_bug(self, monkeypatch):
        _seeded_folder_bug(monkeypatch)
        program = _shl64_program()
        divergence = check_program(program, ("T", "f"), ["jit"], iterations=3)
        assert divergence is not None
        assert divergence.kind == "outcome"
        assert divergence.expected == ("value", 1)
        assert divergence.actual == ("value", 0)

    def test_all_configs_instantiate(self):
        program, entry = generate_case(102).build()
        assert (
            check_program(program, entry, oracle_config_names(), iterations=3)
            is None
        )


    def test_detects_py_tier_cycle_drift(self, monkeypatch):
        # Every value stays right; only the same configuration re-run
        # on the machine backend sees the missing cycles.
        _seeded_cycle_drift(monkeypatch)
        divergence = check_program(
            _counting_loop_program(), ("T", "f"), ["jit-py"], iterations=4
        )
        assert divergence is not None
        assert divergence.kind == "cycles"
        assert divergence.expected[0] == divergence.actual[0]
        assert divergence.expected[1:] != divergence.actual[1:]
        assert "machine=" in divergence.describe()

    def test_py_tier_cycles_agree(self):
        assert check_program(
            _counting_loop_program(), ("T", "f"),
            ["jit-py", "jit-py-speculate"], iterations=4,
        ) is None

    def test_evict_config_rebinds_and_agrees(self, monkeypatch):
        # Case 1042 compiles more than the 40-unit budget holds: its
        # methods evict each other and recompile, on both backends.
        engines = []

        def recording_engine(*args, **kwargs):
            engines.append(Engine(*args, **kwargs))
            return engines[-1]

        monkeypatch.setattr(oracle_module, "Engine", recording_engine)
        program, entry = generate_case(1042).build()
        assert check_program(program, entry, ["jit-py-evict"]) is None
        py, machine = engines
        assert machine.backend == "machine" and py.py_exec_count > 0
        for engine in engines:
            cache = engine.code_cache
            assert cache.shared.budget == CACHE_BUDGETS["jit-py-evict"]
            assert cache.reinstalls_after_evict > 10
        live = {
            entry.key for shard in py.code_cache.shared._shards
            for entry in shard.values()
        }
        assert set(py._bindings) <= live

    def test_icache_config_moves_cells_off_closures_and_agrees(
        self, monkeypatch
    ):
        # Case 1010 installs past the 400-unit icache on its third
        # install: the penalty turns nonzero, and the link cell that
        # held a callee's closure moves to the dispatcher entry.
        engines, seen = [], []

        def recording_engine(*args, **kwargs):
            engines.append(Engine(*args, **kwargs))
            return engines[-1]

        changed = Engine._code_changed

        def watched(self, *args):
            changed(self, *args)
            if self.backend == "py":
                seen.append((self._penalty, [
                    cell[0].__code__.co_filename.startswith("<pycodegen:")
                    for cell in self._links.values()
                ]))

        monkeypatch.setattr(oracle_module, "Engine", recording_engine)
        monkeypatch.setattr(Engine, "_code_changed", watched)
        program, entry = generate_case(1010).build()
        assert check_program(program, entry, ["jit-py-icache"]) is None
        py, machine = engines
        assert machine.backend == "machine" and py.py_exec_count > 0
        crossed = next(
            index for index, (penalty, _) in enumerate(seen) if penalty
        )
        assert any(any(raw) for _, raw in seen[:crossed])
        assert all(
            penalty and raw and not any(raw) for penalty, raw in seen[crossed:]
        )
        assert py.icache_cycles == machine.icache_cycles > 0


class TestBisect:
    def test_names_the_guilty_stage(self, monkeypatch):
        _seeded_folder_bug(monkeypatch)
        program = _shl64_program()
        report = bisect_passes(program, ("T", "f"), "jit", iterations=3)
        assert report.culprit == "canonicalize/gvn/dce"
        # The lowering-only stage ran clean before the culprit diverged.
        assert report.stages[0] == ("lowering/machine", False)
        assert report.stages[1] == ("canonicalize/gvn/dce", True)

    def test_every_stage_runs_under_the_cache_budget(self, monkeypatch):
        # A jit-py-evict divergence may need eviction to show, so each
        # ladder stage gets the configuration's small shared cache.
        engines = []

        def recording_engine(*args, **kwargs):
            engines.append(Engine(*args, **kwargs))
            return engines[-1]

        monkeypatch.setattr(oracle_module, "Engine", recording_engine)
        program, entry = generate_case(1042).build()
        report = bisect_passes(program, entry, "jit-py-evict")
        assert report.culprit == "config:jit-py-evict"
        assert len(engines) == len(report.stages) == 7
        for engine in engines:
            cache = engine.code_cache
            assert cache.shared.budget == CACHE_BUDGETS["jit-py-evict"]
        assert engines[-1].code_cache.reinstalls_after_evict > 10


class _FakeCase:
    """Minimal case protocol for exercising the shrinker in isolation."""

    def __init__(self, items):
        self.items = list(items)

    def build(self):
        return list(self.items), ("Fake", "main")

    def size(self):
        return len(self.items)

    def shrink_candidates(self):
        for index in range(len(self.items)):
            yield _FakeCase(self.items[:index] + self.items[index + 1 :])


class TestShrinker:
    def test_reduces_to_the_poison_element(self, monkeypatch):
        # The "oracle": diverges iff the poison value 7 is present.
        def fake_check(program, entry, names, iterations, vm_seed):
            if 7 in program:
                return Divergence("jit", "outcome", 0, ("value", 1), ("value", 2))
            return None

        monkeypatch.setattr(reduce_module, "check_program", fake_check)
        case = _FakeCase([1, 2, 7, 3, 4, 5])
        divergence = Divergence("jit", "outcome", 0, ("value", 1), ("value", 2))
        reduced, final, checks = shrink_case(case, divergence)
        assert reduced.items == [7]
        assert final is not None
        assert checks > 0

    def test_respects_budget(self, monkeypatch):
        def fake_check(program, entry, names, iterations, vm_seed):
            return Divergence("jit", "outcome", 0, ("value", 1), ("value", 2))

        monkeypatch.setattr(reduce_module, "check_program", fake_check)
        case = _FakeCase(list(range(50)))
        divergence = Divergence("jit", "outcome", 0, ("value", 1), ("value", 2))
        _, _, checks = shrink_case(case, divergence, budget=10)
        assert checks <= 10

    def test_different_bug_not_chased(self, monkeypatch):
        # Shrinking must not hop from a value divergence to a trap one.
        def fake_check(program, entry, names, iterations, vm_seed):
            if 7 in program:
                return Divergence(
                    "jit", "outcome", 0, ("value", 1), ("trap", "NullPointer")
                )
            return None

        monkeypatch.setattr(reduce_module, "check_program", fake_check)
        case = _FakeCase([1, 7])
        value_divergence = Divergence(
            "jit", "outcome", 0, ("value", 1), ("value", 2)
        )
        reduced, _, _ = shrink_case(case, value_divergence)
        assert reduced.items == [1, 7]  # unchanged: no candidate matched


class TestSerializer:
    def test_roundtrip_is_stable(self):
        for seed in (103, 107):
            program, entry = generate_case(seed).build()
            asm = program_to_asm(program, entry)
            reloaded, reloaded_entry = load_corpus_text(asm)
            assert reloaded_entry == entry
            assert program_to_asm(reloaded, reloaded_entry) == asm

    def test_roundtrip_preserves_semantics(self):
        program, entry = generate_case(108).build()
        reloaded, reloaded_entry = load_corpus_text(
            program_to_asm(program, entry)
        )
        original = run_interpreter(program, entry, iterations=2)
        replayed = run_interpreter(reloaded, reloaded_entry, iterations=2)
        assert original.outcomes == replayed.outcomes
        assert original.output == replayed.output

    def test_header_notes_survive_as_comments(self):
        program, entry = generate_case(103).build()
        asm = program_to_asm(program, entry, notes=["found-by: test"])
        assert "# found-by: test" in asm
        load_corpus_text(asm)  # comments must not break assembly


class TestCampaign:
    def test_smoke(self, tmp_path):
        obs = Observability()
        result = run_campaign(
            master_seed=1,
            runs=4,
            config_names=["jit"],
            corpus_dir=str(tmp_path),
            obs=obs,
            iterations=3,
        )
        assert result.runs_executed == 4
        assert result.findings == []
        events = obs.events.of_name("fuzz.case")
        assert len(events) == 4
        assert all(e["attrs"]["status"] == "agree" for e in events)

    def test_cycle_divergence_keeps_its_kind(self, tmp_path, monkeypatch):
        # Shrinking, re-verification from the reassembled text and the
        # corpus file name all keep the kind; bisection compares
        # against the interpreter, so it names no pass.
        _seeded_cycle_drift(monkeypatch)
        result = run_campaign(
            master_seed=3, runs=3, config_names=["jit-py"],
            corpus_dir=str(tmp_path), iterations=3,
        )
        assert result.findings
        for finding in result.findings:
            assert finding.divergence.kind == "cycles"
            assert finding.reverified
            assert finding.culprit == "config:jit-py"
            assert finding.corpus_path.endswith("_jit_py_cycles.asm")

    def test_time_budget_stops_early(self):
        result = run_campaign(master_seed=2, runs=10_000, time_budget=0.0)
        assert result.stopped_by_budget
        assert result.runs_executed < 10_000


class TestCli:
    def test_clean_campaign_exits_zero(self, capsys):
        code = fuzz_cli.main(
            ["--seed", "1", "--runs", "3", "--configs", "jit",
             "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "divergences=0" in out

    def test_report_written(self, tmp_path, capsys):
        report = tmp_path / "campaign.jsonl"
        code = fuzz_cli.main(
            ["--seed", "1", "--runs", "2", "--configs", "jit",
             "--iterations", "3", "--report", str(report)]
        )
        assert code == 0
        lines = report.read_text().splitlines()
        assert any('"fuzz.campaign"' in line for line in lines)

    def test_flight_dump_explains_the_divergence(self, tmp_path, capsys,
                                                 monkeypatch):
        # A divergence re-runs its shrunk case under the campaign's
        # observability, so the dump holds the compiles behind it.
        _seeded_folder_bug(monkeypatch)
        dump = str(tmp_path / "fuzz-flight.jsonl")
        code = fuzz_cli.main(
            ["--seed", "10", "--runs", "6", "--configs", "jit-incremental",
             "--iterations", "3", "--flight-out", dump]
        )
        assert code == 1
        capsys.readouterr()
        assert explain_cli.main([dump]) == 0
        out = capsys.readouterr().out
        assert "no recorded compilations" not in out
        assert re.search(r"^compile #1 \S+\.\S+", out, re.MULTILINE)

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            fuzz_cli.main(["--configs", "warp-drive"])
