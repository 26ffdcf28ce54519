"""Exception hierarchy for the :mod:`repro` package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch simulation-level failures without masking programming
errors (``TypeError``, ``ValueError`` from bad arguments still propagate).

The hierarchy mirrors the subsystem layout: VCS, hub, actions, auth, FaaS,
scheduler, containers, environments, and the CORRECT action each have a
dedicated branch.

Orthogonally to the subsystem axis, failures are classified on a
*retryability* axis via the :class:`TransientError` / :class:`PermanentError`
mixins: an offline endpoint or a walltime kill may succeed on a second
attempt, while a rejected credential or an oversized payload never will.
The resilience layer (:mod:`repro.faults.resilience`) keys every retry
decision off :func:`is_retryable`, so subsystems only have to mix the
right class in — no string matching on messages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all simulation-level errors raised by this package."""


# ---------------------------------------------------------------------------
# Retryability taxonomy (mixins)
# ---------------------------------------------------------------------------


class TransientError:
    """Mixin: the operation may succeed if retried (flaky infrastructure)."""


class PermanentError:
    """Mixin: retrying cannot help (bad request, policy rejection)."""


def is_retryable(error: BaseException) -> bool:
    """Whether the resilience layer may retry after ``error``.

    :class:`TransientError` wins over :class:`PermanentError` if both are
    somehow mixed in; errors carrying neither mixin default to *not*
    retryable — retrying an unclassified failure risks duplicating side
    effects. :class:`TaskFailed` is special-cased: it wraps an arbitrary
    remote failure, so it carries an explicit ``retryable`` flag set by
    whoever classified the underlying cause.
    """
    if isinstance(error, TaskFailed):
        return error.retryable
    if isinstance(error, TransientError):
        return True
    return False


# ---------------------------------------------------------------------------
# Version control / hosting
# ---------------------------------------------------------------------------


class VCSError(ReproError):
    """Base class for version-control errors."""


class ObjectNotFound(VCSError):
    """A content-addressed object (blob/tree/commit) is missing."""


class RefNotFound(VCSError):
    """A branch or tag name does not resolve to a commit."""


class MergeConflict(VCSError):
    """Two branches modified the same path divergently."""


class HubError(ReproError):
    """Base class for hosting-service errors."""


class RepoNotFound(HubError):
    """Repository slug does not exist on the hub."""


class PermissionDenied(HubError, PermanentError):
    """Caller lacks the permission required for the operation."""


class SecretNotFound(HubError):
    """No secret with the requested name is visible in the given scope."""


class ArtifactExpired(HubError):
    """The artifact exists but its retention window has elapsed."""


class ArtifactNotFound(HubError):
    """No artifact with the requested name exists for the run."""


# ---------------------------------------------------------------------------
# CI / workflow engine
# ---------------------------------------------------------------------------


class ActionsError(ReproError):
    """Base class for workflow-engine errors."""


class WorkflowParseError(ActionsError):
    """The workflow document is malformed."""


class YamliteError(WorkflowParseError):
    """A yamlite document is malformed; carries the 1-based source line.

    Subclasses :class:`WorkflowParseError` so existing callers that catch
    workflow parse failures keep working unchanged.
    """

    def __init__(self, message: str, line=None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ExpressionError(ActionsError):
    """A ``${{ }}`` expression failed to evaluate."""


class UnknownActionError(ActionsError):
    """A ``uses:`` reference does not resolve in the marketplace."""


class StepFailed(ActionsError):
    """A workflow step exited non-zero; carries the step outcome."""

    def __init__(self, message: str, outcome: object = None) -> None:
        super().__init__(message)
        self.outcome = outcome


class ApprovalRequired(ActionsError):
    """A protected environment needs reviewer approval before the job runs."""


class ApprovalRejected(ActionsError):
    """A required reviewer rejected the deployment to the environment."""


class NoRunnerAvailable(ActionsError):
    """No runner matches the job's ``runs-on`` labels."""


# ---------------------------------------------------------------------------
# Auth
# ---------------------------------------------------------------------------


class AuthError(ReproError):
    """Base class for authentication/authorization errors."""


class InvalidCredentials(AuthError, PermanentError):
    """Client id/secret pair does not match a registered client."""


class TokenExpired(AuthError, PermanentError):
    """The bearer token's lifetime has elapsed (re-auth, don't retry)."""


class InsufficientScope(AuthError, PermanentError):
    """The token lacks a scope required by the service."""


class IdentityMappingError(AuthError):
    """No local account maps to the authenticated identity at this site."""


class PolicyViolation(AuthError):
    """A high-assurance policy rejected the request."""


# ---------------------------------------------------------------------------
# FaaS
# ---------------------------------------------------------------------------


class FaaSError(ReproError):
    """Base class for the federated FaaS platform."""


class EndpointNotFound(FaaSError, PermanentError):
    """Endpoint UUID is not registered with the cloud service."""


class EndpointOffline(FaaSError, TransientError):
    """The endpoint is registered but not currently connected."""


class FunctionNotRegistered(FaaSError, PermanentError):
    """Function UUID does not resolve in the function registry."""


class FunctionNotAllowed(FaaSError, PermanentError):
    """The endpoint's allow-list rejects this function."""


class TaskFailed(FaaSError):
    """The remote function raised; carries the remote traceback text.

    ``retryable`` records whether the *underlying* failure was transient
    — the classification is made where the remote error is wrapped, and
    :func:`is_retryable` defers to it.
    """

    def __init__(
        self,
        message: str,
        remote_traceback: str = "",
        retryable: bool = False,
    ) -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback
        self.retryable = retryable


class PayloadTooLarge(FaaSError, PermanentError):
    """Serialized arguments or result exceed the service limit."""


class TaskTimeout(FaaSError, PermanentError):
    """The task's caller-supplied deadline elapsed before completion.

    Deadlines bound the *total* wait including retries, so a timeout is
    final — the resilience layer must not spend more time on the task.
    """


class TaskCancelled(FaaSError, PermanentError):
    """The task was retracted before it produced a result.

    Raised from a future whose :meth:`cancel` succeeded. Permanent by
    definition — cancellation is a caller decision, not a fault, so the
    resilience layer must never retry it.
    """


class CircuitOpen(FaaSError, TransientError):
    """The endpoint's circuit breaker is open and no fallback is declared.

    Transient by nature — the breaker half-opens after its reset window —
    but surfaced synchronously at submit so callers can degrade (report
    the site as skipped) instead of queueing work that cannot run.
    """


class AdmissionRejected(FaaSError, TransientError):
    """The overload-protection plane refused the submission at admit time.

    Transient by design — quota windows refill and shed watermarks
    recede — and resolved onto the task's future as a typed error so
    callers can back off and resubmit instead of queueing doomed work.
    The ``reason`` attribute carries the rejecting stage: ``quota-rate``,
    ``quota-inflight``, ``concurrency``, or ``shed``.
    """

    def __init__(self, message: str, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


# ---------------------------------------------------------------------------
# Scheduler / execution
# ---------------------------------------------------------------------------


class SchedulerError(ReproError):
    """Base class for batch-scheduler errors."""


class JobNotFound(SchedulerError):
    """Unknown job id."""


class InvalidJobSpec(SchedulerError, PermanentError):
    """The job request cannot be satisfied (e.g. more nodes than exist)."""


class WalltimeExceeded(SchedulerError, TransientError):
    """The job ran past its requested walltime and was killed."""


class NodePreempted(SchedulerError, TransientError):
    """The job's node was preempted (reclaimed) while the payload ran."""


class ExecutorError(ReproError):
    """Base class for pilot-job executor errors."""


class ProvisionFailed(ExecutorError, TransientError):
    """A block provision attempt failed transiently (allocator flake)."""


class ShellError(ReproError):
    """Base class for the simulated shell."""


class CommandNotFound(ShellError):
    """The command name is not on the simulated PATH."""


# ---------------------------------------------------------------------------
# Containers / environments
# ---------------------------------------------------------------------------


class ContainerError(ReproError):
    """Base class for container-runtime errors."""


class PrivilegeError(ContainerError):
    """The runtime needs privileges the site refuses (Docker on HPC)."""


class ImageNotFound(ContainerError):
    """Image reference does not resolve in any configured registry."""


class EnvironmentError_(ReproError):
    """Base class for package/environment-manager errors.

    Named with a trailing underscore to avoid shadowing the builtin
    ``EnvironmentError`` alias of ``OSError``.
    """


class PackageNotFound(EnvironmentError_):
    """Package name missing from the index."""


class ResolutionError(EnvironmentError_):
    """Version constraints cannot be satisfied."""


# ---------------------------------------------------------------------------
# Sites / network
# ---------------------------------------------------------------------------


class SiteError(ReproError):
    """Base class for site-model errors."""


class NetworkBlocked(SiteError, PermanentError):
    """Outbound network access is disallowed from this node class (policy)."""


class NetworkPartitioned(SiteError, TransientError):
    """The site is temporarily unreachable from the FaaS cloud."""


class FileSystemError(SiteError):
    """Simulated filesystem operation failed (missing path, not a dir...)."""


# ---------------------------------------------------------------------------
# Durability
# ---------------------------------------------------------------------------


class JournalCorrupt(ReproError):
    """A write-ahead journal failed hash-chain verification.

    Raised when a record's chained SHA-256 does not match its content or
    its predecessor — a tampered, truncated-mid-record, or bit-rotted
    journal must never be replayed into a recovery."""


class CoordinatorCrashed(BaseException):
    """The simulated coordinator process died at a planned crash point.

    Deliberately *not* a :class:`ReproError` (nor even an ``Exception``):
    step isolation, event-subscriber isolation, and dispatch-failure
    handling all catch ``Exception``, so deriving from ``BaseException``
    lets a crash unwind the whole run the way a killed process would
    instead of being absorbed as one failed step or task.
    """

    def __init__(self, message: str, at_record: int = 0) -> None:
        super().__init__(message)
        self.at_record = at_record


# The engine's own failures, which no task or dispatch may absorb: a
# planned coordinator crash, and the interpreter running out of stack
# (the drain has already popped events above the raising frame, so
# recording it as one task's failure would silently lose them). Handlers
# that isolate user code or a dispatch re-raise these before their
# catch-all, so they unwind the whole run.
ENGINE_ERRORS = (CoordinatorCrashed, RecursionError)


# ---------------------------------------------------------------------------
# CORRECT
# ---------------------------------------------------------------------------


class CorrectError(ReproError):
    """Base class for errors raised by the CORRECT action itself."""


class InputValidationError(CorrectError, PermanentError):
    """Action inputs are missing or inconsistent."""


class CloneFailed(CorrectError):
    """The remote repository clone step failed on the endpoint."""


class RemoteExecutionFailed(CorrectError):
    """The user-specified function/shell command failed remotely."""

    def __init__(self, message: str, stdout: str = "", stderr: str = "") -> None:
        super().__init__(message)
        self.stdout = stdout
        self.stderr = stderr
