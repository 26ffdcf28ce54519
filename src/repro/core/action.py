"""The CORRECT GitHub Action implementation."""

from __future__ import annotations

import json

from repro.core.driver import (
    CorrectResult,
    execute_correct_async,
    register_helpers,
)
from repro.core.inputs import CorrectInputs
from repro.core.remote import FN_CAPTURE_ENV, FN_RUN_SHELL
from repro.errors import (
    CloneFailed,
    InputValidationError,
    InvalidCredentials,
    RemoteExecutionFailed,
    ReproError,
)
from repro.faas.client import ComputeClient
from repro.faas.future import Future
from repro.hub.marketplace import ActionMetadata
from repro.provenance.record import EnvironmentSnapshot, ExecutionRecord

CORRECT_REFERENCE = "globus-labs/correct@v1"


class CorrectAction:
    """Marketplace implementation of ``globus-labs/correct@v1``.

    Flow (paper §5.3):

    1. ensure the compute SDK is installed on the runner (pip install),
    2. authenticate with the client id/secret from environment secrets,
    3. register/refresh the helper functions,
    4. clone the repository on the endpoint (latest code),
    5. run the user's ``shell_cmd`` or pre-registered ``function_uuid``
       (optionally inside a published container image — the §7.4 extension),
    6. return stdout/stderr to the runner, store them as workflow
       artifacts (pass or fail), optionally capture an environment
       snapshot artifact, and emit a provenance record.

    Clone failure or user-function failure fails the step; artifact
    storage and provenance capture still happen so the evidence survives.
    Steps 2–5 are shared with the GitLab component through
    :mod:`repro.core.driver`.
    """

    def run_async(self, ctx) -> Future:
        """Deferred step execution; resolves to the :class:`StepOutcome`.

        Remote calls are issued as futures, so CORRECT steps for jobs on
        different endpoints progress through overlapping virtual time
        when the engine runs jobs concurrently. The returned future never
        carries an exception — failures become failure outcomes.
        """
        from repro.actions.engine import StepOutcome
        from repro.telemetry import tracer_of

        clock = ctx.engine.clock
        done = Future(clock)
        tracer = tracer_of(clock)
        # parents under the engine's active step span
        span = tracer.start_span("action:correct", kind="action")

        def resolve(outcome: "StepOutcome") -> Future:
            tracer.end_span(
                span,
                status="ok" if outcome.status == "success" else "error",
                error=outcome.error,
            )
            done.set_result(outcome)
            return done

        try:
            inputs = CorrectInputs.from_step_inputs(ctx.inputs)
        except InputValidationError as exc:
            return resolve(
                StepOutcome(status="failure", error=f"CORRECT: {exc}")
            )
        span.attributes.update(
            endpoint=inputs.endpoint_uuid,
            command=inputs.shell_cmd or f"function:{inputs.function_uuid}",
        )

        faas = ctx.services.faas
        if faas is None:
            return resolve(
                StepOutcome(
                    status="failure",
                    error="CORRECT: no FaaS service configured in EngineServices",
                )
            )

        # 1. the runner needs the compute SDK before it can talk to the cloud
        session = ctx.runner.shell(services=ctx.shell_services(), env=ctx.env)
        sdk = session.run("pip install globus-compute-sdk")
        if not sdk.ok:
            return resolve(
                StepOutcome(
                    status="failure",
                    error=f"CORRECT: cannot install compute SDK: {sdk.stderr}",
                    log=sdk.combined_output(),
                )
            )

        # 2-5. the framework-agnostic core, issued as a chained future
        try:
            with tracer.activate(span.context):
                result_future = execute_correct_async(
                    faas, inputs, ctx.run.repo_slug, ctx.run.branch
                )
        except InvalidCredentials as exc:
            return resolve(
                StepOutcome(status="failure", error=f"CORRECT: {exc}")
            )
        except ReproError as exc:
            return resolve(
                StepOutcome(
                    status="failure",
                    error=f"CORRECT: {type(exc).__name__}: {exc}",
                )
            )

        def finish(fut: Future) -> None:
            # conclusion work (env snapshot, provenance) submits under the
            # action span even though the callback fires contextless
            with tracer.activate(span.context):
                outcome = self._conclude(ctx, inputs, faas, fut)
            resolve(outcome)

        result_future.add_done_callback(finish)
        return done

    def _conclude(self, ctx, inputs, faas, fut: Future) -> "StepOutcome":
        """Map the (resolved) core future to a step outcome + evidence."""
        from repro.actions.engine import StepOutcome

        try:
            result = fut.result()
        except InvalidCredentials as exc:
            return StepOutcome(status="failure", error=f"CORRECT: {exc}")
        except CloneFailed as exc:
            self._store_artifacts(ctx, inputs, stdout="", stderr=str(exc))
            return StepOutcome(
                status="failure",
                error=f"CORRECT: repository clone failed: {exc}",
                outputs={"stderr": str(exc)},
            )
        except RemoteExecutionFailed as exc:
            detail = exc.stderr or str(exc)
            self._store_artifacts(ctx, inputs, stdout="", stderr=detail)
            return StepOutcome(
                status="failure",
                error=f"CORRECT: remote execution failed: {exc}",
                log=detail,
                outputs={"stderr": detail, "task_id": ""},
            )
        except ReproError as exc:
            return StepOutcome(
                status="failure", error=f"CORRECT: {type(exc).__name__}: {exc}"
            )

        # 6. evidence: artifacts (pass or fail) + snapshot + provenance
        self._store_artifacts(
            ctx, inputs, stdout=result.stdout, stderr=result.stderr
        )
        if inputs.capture_environment:
            self._capture_environment(ctx, inputs, faas)
        self._record_provenance(ctx, inputs, result)

        outputs = {
            "task_id": result.task_id,
            "exit_code": str(result.exit_code),
            "stdout": result.stdout,
            "stderr": result.stderr,
            "sha": result.sha,
            "clone_path": result.clone_path,
        }
        log_parts = []
        if result.clone_path:
            log_parts.append(
                f"cloned {inputs.repository or ctx.run.repo_slug}"
                f"@{inputs.branch or ctx.run.branch} to {result.clone_path}"
            )
        log_parts.append(result.stdout)
        if result.stderr:
            log_parts.append(result.stderr)

        return StepOutcome(
            status="success" if result.ok else "failure",
            outputs=outputs,
            log="\n".join(p for p in log_parts if p),
            error="" if result.ok else (
                f"CORRECT: remote command exited {result.exit_code}"
            ),
        )

    # -- helpers ------------------------------------------------------------------
    def _store_artifacts(
        self, ctx, inputs: CorrectInputs, stdout: str, stderr: str
    ) -> None:
        if not inputs.store_artifacts:
            return
        store = ctx.engine.hub.artifacts
        store.upload(ctx.run.run_id, f"{inputs.artifact_prefix}-stdout", stdout)
        store.upload(ctx.run.run_id, f"{inputs.artifact_prefix}-stderr", stderr)

    def _capture_environment(self, ctx, inputs: CorrectInputs, faas) -> None:
        """§7.4 extension: a secondary call snapshots the remote environment."""
        client = ComputeClient(faas, inputs.client_id, inputs.client_secret)
        function_ids = register_helpers(client)
        env_task = client.run(
            inputs.endpoint_uuid,
            function_ids[FN_CAPTURE_ENV],
            conda_env=inputs.conda_env or "base",
            template=inputs.template,
        )
        ctx.engine.hub.artifacts.upload(
            ctx.run.run_id,
            f"{inputs.artifact_prefix}-environment",
            json.dumps(client.get_result(env_task), indent=2, sort_keys=True),
        )

    def _record_provenance(
        self, ctx, inputs: CorrectInputs, result: CorrectResult
    ) -> None:
        from repro.faults.injector import injector_of
        from repro.telemetry import tracer_of

        store = ctx.services.provenance
        if store is None:
            return
        faas = ctx.services.faas
        task = faas.get_task(result.task_id)
        injector = injector_of(faas.clock)
        snapshot = (
            EnvironmentSnapshot(**result.environment)
            if result.environment
            else None
        )
        task_span = faas.get_future(result.task_id).span
        timeline = (
            [
                s.to_dict()
                for s in tracer_of(faas.clock).subtree(task_span.span_id)
            ]
            if task_span is not None and task_span.span_id
            else []
        )
        record = ExecutionRecord(
            record_id=store.next_record_id(),
            run_id=ctx.run.run_id,
            repo_slug=inputs.repository or ctx.run.repo_slug,
            commit_sha=ctx.run.sha,
            site=snapshot.site if snapshot else "",
            endpoint_id=task.endpoint_id,
            identity_urn=task.identity_urn,
            function_name=FN_RUN_SHELL if inputs.shell_cmd else inputs.function_uuid,
            command=inputs.shell_cmd or f"function:{inputs.function_uuid}",
            started_at=task.started_at or 0.0,
            completed_at=task.completed_at or 0.0,
            exit_code=result.exit_code,
            stdout_artifact=f"{inputs.artifact_prefix}-stdout",
            stderr_artifact=f"{inputs.artifact_prefix}-stderr",
            environment=snapshot,
            trace_id=task_span.trace_id if task_span is not None else "",
            span_id=task_span.span_id if task_span is not None else "",
            timeline=timeline,
            fault_seed=injector.plan.seed if injector.active else None,
            fault_profile=injector.plan.profile if injector.active else "",
            task_attempts=task.attempts,
            task_gave_up=task.gave_up,
            task_last_error=task.last_error_kind,
            task_replayed=task.replayed,
            routed_by=task.routed_by,
            pool=task.pool,
            queue_depth_at_route=task.queue_depth_at_route,
            hedged=task.hedged,
            hedge_won=task.hedge_won,
            loser_endpoint=task.loser_endpoint,
        )
        store.add(record)


def publish_correct(marketplace) -> None:
    """Publish CORRECT to a marketplace (its GitHub listing, §5.3)."""
    if CORRECT_REFERENCE in marketplace.listings():
        return
    marketplace.publish(
        CORRECT_REFERENCE,
        CorrectAction(),
        ActionMetadata(
            reference=CORRECT_REFERENCE,
            description=(
                "Validate reproducibility across HPC and cloud resources by "
                "remotely executing tests through a federated FaaS platform."
            ),
            inputs={
                "client_id": "FaaS client id (store as a secret)",
                "client_secret": "FaaS client secret (store as a secret)",
                "endpoint_uuid": "target endpoint UUID",
                "shell_cmd": "shell command to run remotely",
                "function_uuid": "pre-registered function to run instead",
                "container_image": "run shell_cmd inside this image (§7.4)",
                "capture_environment": "also store an environment snapshot",
            },
            required_inputs=["client_id", "client_secret", "endpoint_uuid"],
        ),
    )
