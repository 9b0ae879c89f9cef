"""Multi-tenant VM serving: background compilation, shared caches.

The paper's algorithm is designed for the *online* JIT setting —
inlining decisions made incrementally while the program runs. This
package makes that setting real: compilation requests are enqueued on a
bounded :class:`~repro.serve.queue.CompileQueue` and drained by
:class:`~repro.serve.scheduler.BackgroundCompiler` worker threads while
interpretation continues, and a :class:`~repro.serve.service.VMService`
hosts many tenant workloads in one process over a shared, sharded
:class:`~repro.jit.codecache.SharedCodeCache` with per-tenant quotas
and eviction under a global memory budget.

Determinism contract: ``compile_mode="sync"`` (the default) runs every
engine on the classic synchronous compile path, so all the fast paths
stay differential-testable bit-identical against the classic engine; in
async mode per-iteration *values*, *trap kinds* and *printed output*
are still bit-identical (only cycle attribution changes — background
compile cycles are no longer charged to the running iteration).
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDenied,
    ServiceConfig,
    TenantSpec,
)
from repro.serve.profiles import SharedProfileAggregator, TenantProfileStore
from repro.serve.queue import CompileQueue, CompileRequest
from repro.serve.scheduler import BackgroundCompiler
from repro.serve.service import ServiceReport, VMService
from repro.serve.tenant import Tenant

__all__ = [
    "AdmissionController",
    "AdmissionDenied",
    "BackgroundCompiler",
    "CompileQueue",
    "CompileRequest",
    "ServiceConfig",
    "ServiceReport",
    "SharedProfileAggregator",
    "Tenant",
    "TenantProfileStore",
    "TenantSpec",
    "VMService",
]
