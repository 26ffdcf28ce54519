"""Endpoints: where tasks actually execute.

* :class:`UserEndpoint` — a single-user endpoint running in user space,
  with a login executor and (optionally) a compute executor. Functions
  flagged ``needs_outbound`` are routed to the login executor on sites
  whose compute nodes cannot reach the internet (§6.1).
* :class:`MultiUserEndpoint` — a privileged service that forks user
  endpoints on demand: it authenticates the requesting identity, applies
  the site's high-assurance policy, maps the identity to a local account,
  and instantiates a UEP from a named template (§5.1).

Both kinds can carry a function **allow-list**: tasks for unlisted
functions are rejected with :class:`repro.errors.FunctionNotAllowed`
before any code runs (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.auth.identity import Identity
from repro.auth.oauth import Token
from repro.auth.policies import HighAssurancePolicy
from repro.errors import FunctionNotAllowed
from repro.executor.pilot import PilotExecutor
from repro.executor.providers import LocalProvider, SlurmProvider
from repro.faas.functions import FunctionContext, FunctionSpec
from repro.shellsim.session import ShellServices
from repro.sites.site import Site
from repro.telemetry import tracer_of
from repro.util.ids import deterministic_uuid


@dataclass
class EndpointTemplate:
    """MEP template: how to build a UEP for a mapped user.

    ``compute_partition=None`` means login-only execution (the Anvil
    configuration in §6.2); otherwise tests run on compute nodes via a
    SLURM pilot (the FASTER/Expanse configuration in §6.1).
    """

    name: str = "default"
    compute_partition: Optional[str] = None
    nodes_per_block: int = 1
    walltime: float = 3600.0
    allowed_functions: Optional[Set[str]] = None  # None = allow all
    env: Dict[str, str] = field(default_factory=dict)


class UserEndpoint:
    """A single-user Globus Compute endpoint."""

    def __init__(
        self,
        site: Site,
        local_user: str,
        shell_services: ShellServices,
        template: Optional[EndpointTemplate] = None,
        owner: Optional[Identity] = None,
    ) -> None:
        self.site = site
        self.local_user = local_user
        self.template = template or EndpointTemplate()
        self.owner = owner
        self.shell_services = shell_services
        self.endpoint_id = deterministic_uuid(
            "endpoint", site.name, local_user, self.template.name
        )
        self.online = True

        self._login_executor = PilotExecutor(LocalProvider(site, local_user))
        self._compute_executor: Optional[PilotExecutor] = None
        if self.template.compute_partition is not None:
            self._compute_executor = PilotExecutor(
                SlurmProvider(
                    site,
                    local_user,
                    partition=self.template.compute_partition,
                    nodes_per_block=self.template.nodes_per_block,
                    walltime=self.template.walltime,
                )
            )

    # -- security ----------------------------------------------------------
    def check_function_allowed(self, spec: FunctionSpec) -> None:
        allowed = self.template.allowed_functions
        if allowed is not None and spec.function_id not in allowed:
            raise FunctionNotAllowed(
                f"endpoint {self.endpoint_id[:8]} on {self.site.name}: "
                f"function {spec.name!r} is not on the allow-list"
            )

    # -- execution ------------------------------------------------------------
    def _executor_for(self, spec: FunctionSpec) -> PilotExecutor:
        if self._compute_executor is None:
            return self._login_executor
        if spec.needs_outbound and not self.site.network.allows_outbound("compute"):
            # Restricted site: route outbound-needing work to the login node.
            return self._login_executor
        return self._compute_executor

    def _task_body(self, spec: FunctionSpec, args: tuple, kwargs: dict):
        def task_body(handle):
            ctx = FunctionContext(
                handle=handle,
                shell_services=self.shell_services,
                env=dict(self.template.env),
            )
            return spec.fn(ctx, *args, **kwargs)

        return task_body

    def execute_async(
        self,
        spec: FunctionSpec,
        args: tuple,
        kwargs: dict,
        on_done: Callable[[Any, Optional[BaseException]], None],
    ) -> None:
        """Run one task; ``on_done(result, error)`` fires at the task's
        virtual completion time. Allow-list violations raise immediately
        — no code runs, so no time passes (§5.2)."""
        self.check_function_allowed(spec)
        executor = self._executor_for(spec)
        tracer = tracer_of(self.site.clock)
        if tracer.enabled:
            tracer.annotate(
                local_user=self.local_user,
                executor=(
                    "compute" if executor is self._compute_executor else "login"
                ),
            )
        executor.submit_async(self._task_body(spec, args, kwargs), on_done)

    def stats(self) -> Dict[str, float]:
        out = {
            "login_tasks": self._login_executor.tasks_run,
            "login_queue_wait": self._login_executor.total_queue_wait,
        }
        if self._compute_executor is not None:
            out["compute_tasks"] = self._compute_executor.tasks_run
            out["compute_queue_wait"] = self._compute_executor.total_queue_wait
            out["compute_blocks"] = self._compute_executor.blocks_started
        return out

    def shutdown(self) -> None:
        self._login_executor.shutdown()
        if self._compute_executor is not None:
            self._compute_executor.shutdown()
        self.online = False


class MultiUserEndpoint:
    """A privileged MEP forking UEPs per authenticated user."""

    def __init__(
        self,
        site: Site,
        shell_services: ShellServices,
        templates: Optional[Dict[str, EndpointTemplate]] = None,
        policy: Optional[HighAssurancePolicy] = None,
        instance: str = "",
    ) -> None:
        self.site = site
        self.shell_services = shell_services
        self.templates = templates or {"default": EndpointTemplate()}
        self.policy = policy or HighAssurancePolicy.permissive()
        # ``instance`` distinguishes pool members on one site; the empty
        # default preserves the historical singleton id
        self.endpoint_id = (
            deterministic_uuid("mep", site.name, instance)
            if instance
            else deterministic_uuid("mep", site.name)
        )
        self.online = True
        self.audit_log: List[dict] = []
        self._ueps: Dict[tuple, UserEndpoint] = {}

    def user_endpoint(
        self, token: Token, template_name: str = "default"
    ) -> UserEndpoint:
        """Fork (or reuse) a UEP for the token's identity.

        Applies, in order: high-assurance policy, identity mapping. Both
        raise on failure, so an unmapped or policy-violating identity
        never reaches a local account.
        """
        self.policy.check(token, self.site.clock.now)
        local_user = self.site.identity_map.resolve(token.identity)
        template = self.templates.get(template_name)
        if template is None:
            raise KeyError(
                f"MEP on {self.site.name}: no template {template_name!r} "
                f"(have {sorted(self.templates)})"
            )
        key = (token.identity.uuid, template_name)
        uep = self._ueps.get(key)
        if uep is None or not uep.online:
            uep = UserEndpoint(
                site=self.site,
                local_user=local_user,
                shell_services=self.shell_services,
                template=template,
                owner=token.identity,
            )
            self._ueps[key] = uep
            self.audit_log.append(
                {
                    "time": self.site.clock.now,
                    "event": "uep.forked",
                    "identity": token.identity.urn,
                    "local_user": local_user,
                    "template": template_name,
                }
            )
        return uep

    def execute_async(
        self,
        token: Token,
        spec: FunctionSpec,
        args: tuple,
        kwargs: dict,
        on_done: Callable[[Any, Optional[BaseException]], None],
        template_name: str = "default",
    ) -> None:
        """Run one task on the token's UEP (see
        :meth:`UserEndpoint.execute_async`). Policy, identity mapping, and
        template resolution raise synchronously at dispatch — an unmapped
        or policy-violating identity never reaches a local account."""
        uep = self.user_endpoint(token, template_name)
        tracer = tracer_of(self.site.clock)
        if tracer.enabled:
            tracer.annotate(template=template_name, identity=token.identity.urn)
        uep.execute_async(spec, args, kwargs, on_done)

    def shutdown(self) -> None:
        for uep in self._ueps.values():
            uep.shutdown()
        self.online = False
