"""A federated Function-as-a-Service platform (Globus Compute stand-in).

The cloud service (:class:`FaaSService`) is the single contact point:
functions are registered with it, tasks are submitted to it, and results
are retrieved from it — but it is a thin control-plane core over three
layers. The **placement plane** (:mod:`repro.faas.placement`) resolves
pool/site targets to endpoints through pluggable deterministic policies;
the **resilience plane** (:mod:`repro.faas.pipeline`) runs retry,
circuit breaking, timeout, failover, replay substitution, and lease
touching as one fixed chain; the **overload-protection plane**
(:mod:`repro.faas.overload`) takes the head of that chain when armed
and applies per-tenant admission quotas, AIMD concurrency limiting,
retry budgets, and priority load shedding with sampling brownout; the
**fail-slow plane** (:mod:`repro.faas.hedging`) hedges stragglers from
inside it; the **dispatch plane** (:mod:`repro.faas.dispatch`) does
per-endpoint FIFO ordering and execution, nothing else. Endpoints
connect outbound from sites and execute tasks on resources provisioned
through providers. Multi-user endpoints fork per-user endpoints via site
identity mapping and enforce high-assurance policies and function
allow-lists — the security machinery CORRECT builds on (§5.1–§5.2).
"""

from repro.faas.task import Task, TaskState
from repro.faas.functions import FunctionSpec, FunctionRegistry, FunctionContext
from repro.faas.endpoint import (
    UserEndpoint,
    MultiUserEndpoint,
    EndpointTemplate,
)
from repro.faas.future import Future, TaskFuture
from repro.faas.placement import (
    EndpointPool,
    PlacementPolicy,
    POLICIES,
    RouteDecision,
    Router,
)
from repro.faas.pipeline import Pipeline
from repro.faas.overload import (
    OverloadConfig,
    OverloadController,
    PRIORITY_BATCH,
    PRIORITY_CRITICAL,
    PRIORITY_NORMAL,
)
from repro.faas.dispatch import EndpointDispatcher, PendingTask
from repro.faas.service import BatchRequest, FaaSService
from repro.faas.client import ComputeClient

__all__ = [
    "Task",
    "TaskState",
    "Future",
    "TaskFuture",
    "BatchRequest",
    "FunctionSpec",
    "FunctionRegistry",
    "FunctionContext",
    "UserEndpoint",
    "MultiUserEndpoint",
    "EndpointTemplate",
    "EndpointPool",
    "EndpointDispatcher",
    "PendingTask",
    "PlacementPolicy",
    "POLICIES",
    "RouteDecision",
    "Router",
    "OverloadConfig",
    "OverloadController",
    "PRIORITY_BATCH",
    "PRIORITY_CRITICAL",
    "PRIORITY_NORMAL",
    "Pipeline",
    "FaaSService",
    "ComputeClient",
]
