"""The campaign driver behind ``python -m repro.tools.fuzz``.

One campaign = one master seed.  Per-case seeds are drawn from a
``random.Random(master_seed)`` stream, so ``--seed N --runs K`` is
exactly reproducible and any single case can be regenerated from its
logged seed alone.  For each case the driver:

1. generates and builds the program (generator bugs — programs that
   fail to build — are counted, logged and skipped, never fatal);
2. runs the differential oracle across the configuration matrix;
3. on divergence: shrinks the case, bisects the pipeline to name the
   guilty pass, runs the shrunk case's diverging configuration once
   more under the campaign's observability, re-verifies the divergence
   on the *reassembled* serialized text, and (optionally) writes the
   reproducer into the corpus directory.

Progress and findings are recorded through
:meth:`repro.obs.Observability.record` (``fuzz.case`` /
``fuzz.divergence`` / ``fuzz.campaign``), so ``--report out.jsonl``
gives a machine-readable campaign record and ``--flight-out`` a
bounded one; the observed re-run adds the diverging compiles'
provenance to both, for ``python -m repro.tools.explain``.
"""

import time

from repro.fuzz.bisect import bisect_passes
from repro.fuzz.generator import generate_case
from repro.fuzz.oracle import (
    DEFAULT_ITERATIONS,
    check_program,
    oracle_config_names,
    run_config,
)
from repro.fuzz.reduce import shrink_case
from repro.fuzz.serialize import load_corpus_text, program_to_asm
from repro.obs import NULL_OBS


class Finding:
    """One divergence, fully processed."""

    __slots__ = (
        "seed",
        "case_kind",
        "divergence",
        "culprit",
        "asm",
        "reverified",
        "shrink_checks",
        "corpus_path",
    )

    def __init__(self, seed, case_kind, divergence, culprit, asm,
                 reverified, shrink_checks, corpus_path=None):
        self.seed = seed
        self.case_kind = case_kind
        self.divergence = divergence
        self.culprit = culprit
        self.asm = asm
        self.reverified = reverified
        self.shrink_checks = shrink_checks
        self.corpus_path = corpus_path

    def as_dict(self):
        record = {
            "seed": self.seed,
            "case_kind": self.case_kind,
            "culprit": self.culprit,
            "reverified": self.reverified,
            "shrink_checks": self.shrink_checks,
            "corpus_path": self.corpus_path,
        }
        record.update(self.divergence.as_dict())
        return record


class CampaignResult:
    """Aggregate outcome of one fuzzing campaign."""

    __slots__ = (
        "master_seed",
        "runs_requested",
        "runs_executed",
        "generator_errors",
        "findings",
        "elapsed",
        "stopped_by_budget",
    )

    def __init__(self, master_seed, runs_requested):
        self.master_seed = master_seed
        self.runs_requested = runs_requested
        self.runs_executed = 0
        self.generator_errors = 0
        self.findings = []
        self.elapsed = 0.0
        self.stopped_by_budget = False

    @property
    def divergence_count(self):
        return len(self.findings)

    def as_dict(self):
        return {
            "master_seed": self.master_seed,
            "runs_requested": self.runs_requested,
            "runs_executed": self.runs_executed,
            "generator_errors": self.generator_errors,
            "divergences": self.divergence_count,
            "elapsed_seconds": round(self.elapsed, 3),
            "stopped_by_budget": self.stopped_by_budget,
        }


def _case_seeds(master_seed, runs):
    import random

    rng = random.Random(master_seed)
    return [rng.getrandbits(32) for _ in range(runs)]


def _slug(finding):
    kind = finding.divergence.kind
    return "fuzz_seed%d_%s_%s" % (
        finding.seed,
        finding.divergence.config.replace("-", "_"),
        kind,
    )


def run_campaign(
    master_seed=0,
    runs=100,
    time_budget=None,
    config_names=None,
    corpus_dir=None,
    obs=None,
    iterations=DEFAULT_ITERATIONS,
    vm_seed=0x5EED,
    shrink=True,
):
    """Fuzz *runs* programs; returns a :class:`CampaignResult`.

    *time_budget* (seconds) stops the campaign early; *corpus_dir*
    (path or None) receives one ``.asm`` reproducer per finding.
    """
    obs = obs if obs is not None else NULL_OBS
    names = config_names if config_names is not None else oracle_config_names()
    result = CampaignResult(master_seed, runs)
    started = time.monotonic()

    for seed in _case_seeds(master_seed, runs):
        if time_budget is not None and time.monotonic() - started > time_budget:
            result.stopped_by_budget = True
            break
        try:
            case = generate_case(seed)
            program, entry = case.build()
        except Exception as error:
            result.generator_errors += 1
            obs.record("fuzz.generator_error", seed=seed, error=repr(error))
            continue
        result.runs_executed += 1
        divergence = check_program(program, entry, names, iterations, vm_seed)
        if divergence is None:
            obs.record("fuzz.case", seed=seed, kind=case.kind, status="agree")
            continue
        finding = _process_divergence(
            case, divergence, names, iterations, vm_seed, shrink, obs
        )
        result.findings.append(finding)
        if corpus_dir is not None:
            finding.corpus_path = _write_corpus(corpus_dir, finding)
        obs.record("fuzz.divergence", **finding.as_dict())

    result.elapsed = time.monotonic() - started
    obs.record("fuzz.campaign", **result.as_dict())
    return result


def _process_divergence(case, divergence, names, iterations, vm_seed, shrink, obs):
    obs.record(
        "fuzz.case",
        seed=case.seed,
        kind=case.kind,
        status="diverged",
        config=divergence.config,
        detail=divergence.describe(),
    )
    checks = 0
    if shrink:
        case, divergence, checks = shrink_case(
            case, divergence, iterations=iterations, vm_seed=vm_seed
        )
    program, entry = case.build()
    report = bisect_passes(
        program, entry, divergence.config, iterations, vm_seed
    )
    if obs.enabled:
        # Once more under the campaign's observability, so its event
        # log and flight ring hold the compiles (``jit.*``, ``inline.*``)
        # behind the divergence.
        run_config(
            program, entry, divergence.config, iterations, vm_seed, obs=obs
        )
    asm = program_to_asm(
        program,
        entry,
        notes=[
            "found-by: fuzz seed=%d kind=%s" % (case.seed, case.kind),
            "diverges: %s" % divergence.describe(),
            "culprit: %s" % report.culprit,
        ],
    )
    # The corpus must reproduce from its textual form alone, as the
    # same kind of divergence.
    try:
        reloaded, reloaded_entry = load_corpus_text(asm)
        found = check_program(
            reloaded, reloaded_entry, names, iterations, vm_seed
        )
        reverified = found is not None and found.kind == divergence.kind
    except Exception:
        reverified = False
    return Finding(
        case.seed,
        case.kind,
        divergence,
        report.culprit,
        asm,
        reverified,
        checks,
    )


def _write_corpus(corpus_dir, finding):
    import os

    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, _slug(finding) + ".asm")
    with open(path, "w") as handle:
        handle.write(finding.asm)
    return path
