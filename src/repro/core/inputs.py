"""CORRECT action inputs and validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.errors import InputValidationError


@dataclass
class CorrectInputs:
    """Validated inputs of one CORRECT step (the ``with:`` block).

    Exactly one of ``shell_cmd`` / ``function_uuid`` must be given —
    mirroring the published action's contract. ``template`` selects a MEP
    template; ``conda_env`` is activated before ``shell_cmd`` runs;
    ``clone`` may be disabled for endpoint-approved pre-registered
    functions that do not need the repository.
    """

    client_id: str
    client_secret: str
    endpoint_uuid: str
    shell_cmd: str = ""
    function_uuid: str = ""
    function_args: List[Any] = field(default_factory=list)
    repository: str = ""  # defaults to the triggering repo
    branch: str = ""  # defaults to the triggering branch
    clone: bool = True
    cwd: str = ""  # defaults to the cloned repository root
    conda_env: str = ""
    template: str = "default"
    store_artifacts: bool = True
    artifact_prefix: str = "correct"
    # §7.4 extension: run the shell command inside a published container
    container_image: str = ""
    container_runtime: str = "apptainer"
    # §7.4 extension: also capture an environment snapshot artifact
    capture_environment: bool = False
    # scheduler requirement from declarative suites: a per-test deadline
    # in virtual seconds, enforced by the FaaS layer across all retry
    # attempts (0 = no deadline, the legacy behaviour)
    timeout: float = 0.0

    @classmethod
    def from_step_inputs(cls, inputs: Dict[str, Any]) -> "CorrectInputs":
        """Build from a workflow step's interpolated ``with:`` mapping."""
        known = {
            "client_id", "client_secret", "endpoint_uuid", "shell_cmd",
            "function_uuid", "function_args", "repository", "branch",
            "clone", "cwd", "conda_env", "template", "store_artifacts",
            "artifact_prefix", "container_image", "container_runtime",
            "capture_environment", "timeout",
        }
        unknown = set(inputs) - known
        if unknown:
            raise InputValidationError(
                f"unknown CORRECT inputs: {sorted(unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        for key, value in inputs.items():
            if key in ("clone", "store_artifacts", "capture_environment"):
                kwargs[key] = _to_bool(value, key)
            elif key == "function_args":
                if not isinstance(value, list):
                    raise InputValidationError("function_args must be a list")
                kwargs[key] = value
            elif key == "timeout":
                try:
                    kwargs[key] = float(value)
                except (TypeError, ValueError):
                    raise InputValidationError(
                        f"input 'timeout' must be a number, got {value!r}"
                    ) from None
            else:
                kwargs[key] = str(value)
        try:
            instance = cls(**kwargs)
        except TypeError as exc:
            raise InputValidationError(f"missing required input: {exc}") from None
        instance.validate()
        return instance

    def validate(self) -> None:
        missing = [
            name
            for name in ("client_id", "client_secret", "endpoint_uuid")
            if not getattr(self, name)
        ]
        if missing:
            raise InputValidationError(
                f"missing required CORRECT inputs: {missing}"
            )
        if bool(self.shell_cmd) == bool(self.function_uuid):
            raise InputValidationError(
                "exactly one of shell_cmd / function_uuid must be provided"
            )
        if self.function_uuid and self.conda_env:
            raise InputValidationError(
                "conda_env only applies to shell_cmd execution"
            )
        if self.container_image and not self.shell_cmd:
            raise InputValidationError(
                "container_image only applies to shell_cmd execution"
            )
        if self.container_runtime not in ("apptainer", "singularity", "docker"):
            raise InputValidationError(
                f"unknown container_runtime {self.container_runtime!r}"
            )
        if not 0 <= self.timeout < math.inf:
            raise InputValidationError(
                f"timeout must be a finite number >= 0, got {self.timeout}"
            )


def _to_bool(value: Any, name: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
    raise InputValidationError(f"input {name!r} must be a boolean, got {value!r}")
