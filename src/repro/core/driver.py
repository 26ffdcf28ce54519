"""The CI-framework-agnostic core of CORRECT.

§7.1: "We chose GitHub Actions as a CI framework due to its ubiquity...
however, CORRECT can be adapted for use with frameworks like GitLab
CI/CD." :func:`execute_correct` is that adaptable core — authenticate,
register helpers, clone, execute, collect — used by both the GitHub
Action (:mod:`repro.core.action`) and the GitLab component
(:mod:`repro.gitlab.component`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.inputs import CorrectInputs
from repro.core.remote import FN_CLONE, FN_RUN_SHELL, REMOTE_FUNCTIONS
from repro.errors import (
    AdmissionRejected,
    CloneFailed,
    RemoteExecutionFailed,
    TaskFailed,
)
from repro.faas.client import ComputeClient
from repro.faas.future import Future, TaskFuture
from repro.faas.service import FaaSService
from repro.telemetry import tracer_of


@dataclass
class CorrectResult:
    """Everything a CI front-end needs to report one CORRECT execution."""

    exit_code: int
    stdout: str
    stderr: str
    task_id: str
    clone_path: str = ""
    sha: str = ""
    environment: Optional[dict] = None
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def register_helpers(client: ComputeClient) -> Dict[str, str]:
    """Register (or refresh) CORRECT's helper functions; returns name→id."""
    return {
        name: client.register_function(fn, name=name, needs_outbound=outbound)
        for name, (fn, outbound) in REMOTE_FUNCTIONS.items()
    }


def execute_correct_async(
    faas: FaaSService,
    inputs: CorrectInputs,
    default_repo: str,
    default_branch: str,
) -> Future:
    """Run the CORRECT flow (§5.3 steps 2–5) without blocking virtual time.

    Returns a :class:`Future` resolving to a :class:`CorrectResult`. The
    remote calls (clone, then the user's command) are issued as task
    futures and chained through completion callbacks, so several CORRECT
    steps on different endpoints make progress through the same span of
    virtual time. Authentication still raises
    :class:`~repro.errors.InvalidCredentials` eagerly; downstream
    failures surface through the future as
    :class:`~repro.errors.CloneFailed` or
    :class:`~repro.errors.RemoteExecutionFailed` (a non-zero *exit code*
    from the user's command is a normal result, not an exception).
    """
    client = ComputeClient(faas, inputs.client_id, inputs.client_secret)
    function_ids = register_helpers(client)
    done = Future(faas.clock)
    # route affinity: resolve the target once so every call in this step
    # (clone, then the payload) lands on the same endpoint even when the
    # target is a pool or a pooled site
    route = faas.resolve_route(inputs.endpoint_uuid)
    # the follow-up submit in on_clone fires from the event loop, where
    # the submitter's context is long gone — capture it here
    tracer = tracer_of(faas.clock)
    ctx = tracer.current()

    def run_payload(clone_path: str, sha: str) -> None:
        if inputs.shell_cmd:
            command = inputs.shell_cmd
            if inputs.container_image:
                command = (
                    f"{inputs.container_runtime} exec "
                    f"{inputs.container_image} {inputs.shell_cmd}"
                )
            shell_future = client.submit(
                inputs.endpoint_uuid,
                function_ids[FN_RUN_SHELL],
                command,
                cwd=inputs.cwd or clone_path,
                conda_env=inputs.conda_env,
                template=inputs.template,
                timeout=inputs.timeout,
                route=route,
            )

            def on_shell(fut: TaskFuture) -> None:
                try:
                    result = fut.result()
                except TaskFailed as exc:
                    done.set_exception(
                        RemoteExecutionFailed(
                            f"remote execution failed: {exc}",
                            stderr=exc.remote_traceback,
                        )
                    )
                    return
                done.set_result(
                    CorrectResult(
                        exit_code=int(result["exit_code"]),
                        stdout=result["stdout"],
                        stderr=result["stderr"],
                        task_id=fut.task_id,
                        clone_path=clone_path,
                        sha=sha,
                        environment=result.get("environment"),
                        duration=float(result.get("duration", 0.0)),
                    )
                )

            shell_future.add_done_callback(on_shell)
            return

        fn_future = client.submit(
            inputs.endpoint_uuid,
            inputs.function_uuid,
            *inputs.function_args,
            template=inputs.template,
            timeout=inputs.timeout,
            route=route,
        )

        def on_function(fut: TaskFuture) -> None:
            try:
                value = fut.result()
            except TaskFailed as exc:
                done.set_exception(
                    RemoteExecutionFailed(
                        f"remote execution failed: {exc}",
                        stderr=exc.remote_traceback,
                    )
                )
                return
            done.set_result(
                CorrectResult(
                    exit_code=0,
                    stdout=str(value),
                    stderr="",
                    task_id=fut.task_id,
                    clone_path=clone_path,
                    sha=sha,
                )
            )

        fn_future.add_done_callback(on_function)

    if inputs.clone:
        slug = inputs.repository or default_repo
        branch = inputs.branch or default_branch
        clone_future = client.submit(
            inputs.endpoint_uuid,
            function_ids[FN_CLONE],
            slug,
            branch,
            template=inputs.template,
            route=route,
        )

        def submit_payload(path: str, sha: str, retries: int, delay: float) -> None:
            try:
                with tracer.activate(ctx):
                    run_payload(path, sha)
            except AdmissionRejected as exc:
                # mid-flow admission pushback (overload plane): the
                # caller already holds a finished clone and cannot
                # resubmit the whole flow, so back off on the virtual
                # clock and retry the payload submission, bounded
                if retries > 0:
                    faas.clock.call_after(
                        delay,
                        lambda: submit_payload(
                            path, sha, retries - 1, delay * 2.0
                        ),
                    )
                else:
                    done.set_exception(exc)
            except Exception as exc:  # noqa: BLE001 - eager submit errors
                # must not escape into the event loop driving this callback
                done.set_exception(exc)

        def on_clone(fut: TaskFuture) -> None:
            try:
                clone_result = fut.result()
            except TaskFailed as exc:
                done.set_exception(
                    CloneFailed(
                        f"repository clone of {slug}@{branch} failed: "
                        f"{exc.remote_traceback or exc}"
                    )
                )
                return
            submit_payload(
                clone_result["path"], clone_result.get("sha", ""),
                retries=4, delay=5.0,
            )

        clone_future.add_done_callback(on_clone)
    else:
        run_payload("", "")

    return done


def execute_correct(
    faas: FaaSService,
    inputs: CorrectInputs,
    default_repo: str,
    default_branch: str,
) -> CorrectResult:
    """Blocking wrapper over :func:`execute_correct_async`.

    Drives virtual time until the flow completes; raises the same
    exceptions the async path delivers through its future.
    """
    return execute_correct_async(
        faas, inputs, default_repo, default_branch
    ).result()
