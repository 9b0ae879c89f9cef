"""Multi-tenant serving demo and smoke harness.

Hosts N tenant workloads in one :class:`~repro.serve.service.VMService`
over the shared background-compilation pipeline and prints a service
report (per-tenant throughput, fairness, queue stats).

``--smoke`` is the CI stress entry: it runs the mixed-traffic fleet in
async mode (real worker threads), reruns the identical fleet in forced
sync mode, and fails (exit 1) unless every tenant's outcome list and
printed output are bit-identical across modes — the service-level
differential check for the background pipeline.

Examples::

    python -m repro.tools.serve --tenants 6 --iterations 8
    python -m repro.tools.serve --smoke --flight-out serve-flight.jsonl
    python -m repro.tools.serve --tenants 4 --mode sync
"""

import argparse
import json
import sys

from repro.obs import Observability
from repro.serve import ServiceConfig, TenantSpec, VMService
from repro.tools.common import INLINERS

#: benchmarks cycled through by the mixed-traffic fleet — small/medium
#: programs spanning the suites so tenants stress different code shapes.
MIXED_BENCHMARKS = (
    "avrora", "scalap", "fop", "kiama", "batik",
    "actors", "luindex", "specs", "h2", "scalatest",
)

#: inliner policies cycled across tenants.
MIXED_INLINERS = ("incremental", "greedy", "c2", "none")


def mixed_specs(tenants, iterations, base_seed=0x5EED):
    """A deterministic mixed-traffic fleet of *tenants* specs."""
    specs = []
    for index in range(tenants):
        benchmark = MIXED_BENCHMARKS[index % len(MIXED_BENCHMARKS)]
        inliner = MIXED_INLINERS[index % len(MIXED_INLINERS)]
        specs.append(TenantSpec(
            name="t%02d-%s" % (index, benchmark),
            benchmark=benchmark,
            iterations=iterations,
            inliner=INLINERS[inliner],
            merge="isolated" if index % 5 == 4 else "shared",
            seed=base_seed + index,
        ))
    return specs


def run_fleet(specs, mode, obs, args, concurrent=True):
    """Run one service over *specs*; returns (report, per-tenant state).

    The per-tenant state maps name -> (outcomes, output) — the
    bit-identical surface compared across compile modes.
    """
    config = ServiceConfig(
        max_tenants=max(len(specs), 1),
        compile_workers=args.workers,
        queue_capacity=args.queue_capacity,
        cache_budget=args.cache_budget,
        tenant_quota=args.tenant_quota,
        eviction_policy=args.policy,
        compile_mode=mode,
        hot_threshold=args.hot_threshold,
    )
    with VMService(config, obs=obs) as service:
        for spec in specs:
            service.admit(spec)
        report = service.run(concurrent=concurrent)
        state = {
            tenant.name: (list(tenant.outcomes), tenant.output)
            for tenant in service.tenants.values()
        }
    return report, state


def _diff_fleets(async_state, sync_state):
    """Human-readable divergences between two fleet runs."""
    problems = []
    for name in sorted(async_state):
        async_outcomes, async_output = async_state[name]
        sync_outcomes, sync_output = sync_state[name]
        if async_outcomes != sync_outcomes:
            problems.append(
                "%s: outcomes diverge (async %r... vs sync %r...)"
                % (name, async_outcomes[:3], sync_outcomes[:3])
            )
        if async_output != sync_output:
            problems.append(
                "%s: printed output diverges (%d vs %d lines)"
                % (name, len(async_output), len(sync_output))
            )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--tenants", type=int, default=6,
        help="fleet size for the mixed-traffic workload (default 6)",
    )
    parser.add_argument(
        "--iterations", type=int, default=8,
        help="iterations per tenant (default 8)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="background compile worker threads (default 2)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=64,
        help="compile queue bound (default 64)",
    )
    parser.add_argument(
        "--cache-budget", type=int, default=None,
        help="global code-cache byte budget (default unbounded)",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=None,
        help="per-tenant code-cache byte quota (default unbounded)",
    )
    parser.add_argument(
        "--policy", choices=("lru", "hotness"), default="lru",
        help="cache eviction policy (default lru)",
    )
    parser.add_argument(
        "--hot-threshold", type=int, default=20,
        help="compile threshold for tenant engines (default 20)",
    )
    parser.add_argument(
        "--mode", choices=("sync", "async"), default="async",
        help="compile mode for the plain run (default async)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="differential smoke: async fleet vs identical sync fleet; "
        "exit 1 on any per-tenant outcome/output divergence",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the service report as JSON",
    )
    parser.add_argument(
        "--flight-out", default=None, metavar="PATH",
        help="dump the flight-recorder ring to PATH (JSONL)",
    )
    args = parser.parse_args(argv)

    obs = Observability()
    specs = mixed_specs(args.tenants, args.iterations)

    if args.smoke:
        report, async_state = run_fleet(
            specs, "async", obs, args, concurrent=True
        )
        _, sync_state = run_fleet(
            mixed_specs(args.tenants, args.iterations), "sync", obs, args,
            concurrent=False,
        )
        problems = _diff_fleets(async_state, sync_state)
        if args.flight_out:
            obs.flight.save(args.flight_out)
        print(
            "serve smoke: %d tenants x %d iterations, mode=%s, "
            "throughput=%.1f it/s, fairness=%.3f, queue=%s"
            % (
                args.tenants, args.iterations, report.mode,
                report.throughput, report.fairness,
                report.queue_stats,
            )
        )
        if problems:
            for problem in problems:
                print("DIVERGENCE %s" % problem, file=sys.stderr)
            return 1
        print("serve smoke: async == sync for every tenant")
        return 0

    report, _ = run_fleet(specs, args.mode, obs, args, concurrent=True)
    if args.flight_out:
        obs.flight.save(args.flight_out)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(
            "serve: mode=%s tenants=%d iterations=%d "
            "throughput=%.1f it/s fairness=%.3f"
            % (
                report.mode, len(report.tenants),
                report.total_iterations, report.throughput,
                report.fairness,
            )
        )
        for tenant in report.tenants:
            print(
                "  %-16s %-9s %3d it  %7.1f it/s  compiles=%d "
                "async=%d deopts=%d (%s)"
                % (
                    tenant["name"], tenant["state"],
                    tenant["iterations"], tenant["throughput"],
                    tenant["compilations"], tenant["async_installs"],
                    tenant["deopts"], tenant["merge"],
                )
            )
        queue = report.queue_stats
        if queue.get("mode") == "async":
            print(
                "  queue: submitted=%d completed=%d failed=%d "
                "cancelled=%d rejected=%d"
                % (
                    queue["submitted"], queue["completed"],
                    queue["failed"], queue["cancelled"],
                    queue["rejected"],
                )
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
