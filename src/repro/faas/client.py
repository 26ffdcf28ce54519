"""Client SDK for the FaaS service (globus-compute-sdk stand-in).

CORRECT instantiates this on the GitHub runner with the client id and
secret pulled from environment secrets, then registers/submits functions
and fetches results. :meth:`ComputeClient.submit` is the primary,
future-based path; :meth:`ComputeClient.run` is the blocking wrapper kept
for callers written against the original synchronous API.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from repro.auth.oauth import SCOPE_COMPUTE, Token
from repro.faas.future import TaskFuture
from repro.faas.placement import RouteDecision
from repro.faas.service import BatchRequest, FaaSService
from repro.faas.task import Task


class ComputeClient:
    """Authenticated handle on the FaaS cloud service."""

    def __init__(
        self,
        service: FaaSService,
        client_id: str,
        client_secret: str,
    ) -> None:
        self.service = service
        # Client-credentials grant happens at construction, like the SDK's
        # login flow; InvalidCredentials propagates to the caller.
        self._token: Token = service.auth.client_credentials_grant(
            client_id, client_secret, scopes=(SCOPE_COMPUTE,)
        )

    @property
    def identity_urn(self) -> str:
        return self._token.identity.urn

    def register_function(
        self,
        fn: Callable[..., Any],
        name: str,
        needs_outbound: bool = False,
    ) -> str:
        return self.service.register_function(
            self._token.value, fn, name=name, needs_outbound=needs_outbound
        )

    def submit(
        self,
        endpoint_id: str,
        function_id: str,
        *args: Any,
        template: str = "default",
        timeout: "float | None" = None,
        route: "RouteDecision | None" = None,
        priority: int = 1,
        **kwargs: Any,
    ) -> TaskFuture:
        """Submit a task; returns its future without advancing time.

        ``endpoint_id`` may also name a registered pool or a pooled site;
        pass a pre-resolved ``route`` (from
        :meth:`FaaSService.resolve_route`) to give several submissions
        route affinity. ``timeout`` bounds the task's total virtual-time
        lifetime (retries included); on expiry the future fails with
        :class:`~repro.errors.TaskTimeout`. ``priority`` is the overload
        shedding class (0 = critical; higher sheds first); when the
        protection plane rejects the submission the future fails with a
        retryable :class:`~repro.errors.AdmissionRejected`.
        """
        return self.service.submit(
            self._token.value,
            endpoint_id,
            function_id,
            args=args,
            kwargs=kwargs,
            template=template,
            timeout=timeout,
            route=route,
            priority=priority,
        )

    def submit_batch(
        self, requests: Sequence[BatchRequest]
    ) -> List[TaskFuture]:
        """Submit many tasks at once; futures in request order."""
        return self.service.submit_batch(self._token.value, requests)

    def run(
        self,
        endpoint_id: str,
        function_id: str,
        *args: Any,
        template: str = "default",
        **kwargs: Any,
    ) -> str:
        """Submit a task and drive it to completion; returns the task id.

        Blocking wrapper over :meth:`submit` — remote failures do *not*
        raise here; inspect :meth:`get_task` / call :meth:`get_result`.
        """
        future = self.submit(
            endpoint_id, function_id, *args, template=template, **kwargs
        )
        future.wait()
        return future.task_id

    def get_task(self, task_id: str) -> Task:
        return self.service.get_task(task_id)

    def get_result(self, task_id: str) -> Any:
        return self.service.get_result(task_id)
