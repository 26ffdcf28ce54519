"""The shell session: state + command dispatch."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.containers.runtime import RunningContainer
from repro.errors import ShellError
from repro.shellsim.parsing import (
    expand_variables,
    extract_assignments,
    split_chain,
    tokenize,
)
from repro.shellsim.result import CommandResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sites.site import NodeHandle


@dataclass
class ShellServices:
    """External services a shell can reach (subject to network policy).

    ``hub`` is the hosting service for ``git clone``; ``image_commands``
    maps container-provided command names to Python implementations
    (registered by application modules such as the KaMPIng artifacts).
    """

    hub: Optional[object] = None
    image_commands: Dict[str, Callable] = field(default_factory=dict)


class ShellSession:
    """An interactive-shell stand-in bound to one node and user.

    Commands are plain Python callables ``(session, args) -> CommandResult``.
    Core commands are always on PATH; tool commands (``pytest``, ``tox``...)
    must be provided by the active conda environment or by the running
    container image — mirroring why CI recipes start with installs.
    """

    def __init__(
        self,
        handle: "NodeHandle",
        services: Optional[ShellServices] = None,
        env: Optional[Dict[str, str]] = None,
        cwd: Optional[str] = None,
        container: Optional[RunningContainer] = None,
    ) -> None:
        self.handle = handle
        self.services = services or ShellServices()
        self.env: Dict[str, str] = {
            "HOME": handle.home(),
            "USER": handle.user,
            "HOSTNAME": handle.node.name,
            "CONDA_DEFAULT_ENV": "base",
        }
        self.env.update(env or {})
        self.cwd = cwd or handle.home()
        self.container = container
        self.history: List[str] = []
        self.last_report_path: Optional[str] = None
        from repro.shellsim import commands as _commands

        self._core = dict(_commands.CORE_COMMANDS)
        self._gated = dict(_commands.GATED_COMMANDS)

    # -- path helpers -----------------------------------------------------------
    def resolve_path(self, path: str) -> str:
        if path.startswith("~"):
            path = self.env.get("HOME", "/") + path[1:]
        if not path.startswith("/"):
            path = f"{self.cwd.rstrip('/')}/{path}"
        parts: List[str] = []
        for part in path.split("/"):
            if part in ("", "."):
                continue
            if part == "..":
                if parts:
                    parts.pop()
                continue
            parts.append(part)
        return "/" + "/".join(parts)

    # -- environment helpers -------------------------------------------------------
    @property
    def active_env(self) -> str:
        return self.env.get("CONDA_DEFAULT_ENV", "base")

    def available_tool_commands(self) -> Dict[str, str]:
        """Tool commands currently on PATH and where they come from."""
        out: Dict[str, str] = {}
        try:
            env = self.handle.conda().env(self.active_env)
            for cmd in env.commands():
                out[cmd] = f"conda:{self.active_env}"
        except Exception:  # noqa: BLE001 - env may not exist yet
            pass
        if self.container is not None and self.container.running:
            for cmd in self.container.image.commands:
                out[cmd] = f"container:{self.container.image.reference}"
        return out

    # -- execution --------------------------------------------------------------
    def run(self, command_line: str) -> CommandResult:
        """Run a (possibly chained) command line."""
        self.history.append(command_line)
        start = self.handle.site.clock.now
        stdout_parts: List[str] = []
        stderr_parts: List[str] = []
        exit_code = 0
        for op, simple in split_chain(command_line):
            if op == "&&" and exit_code != 0:
                break
            result = self._run_simple(simple)
            if result.stdout:
                stdout_parts.append(result.stdout)
            if result.stderr:
                stderr_parts.append(result.stderr)
            exit_code = result.exit_code
        return CommandResult(
            exit_code=exit_code,
            stdout="\n".join(stdout_parts),
            stderr="\n".join(stderr_parts),
            duration=self.handle.site.clock.now - start,
        )

    def _run_simple(self, command: str) -> CommandResult:
        try:
            tokens = tokenize(command)
        except ShellError as exc:
            return CommandResult.failure(f"shell: {exc}", exit_code=2)
        tokens = [expand_variables(t, self.env) for t in tokens]
        assignments, tokens = extract_assignments(tokens)
        if not tokens:
            self.env.update(assignments)
            return CommandResult.success()
        name, args = tokens[0], tokens[1:]
        saved_env = None
        if assignments:
            saved_env = dict(self.env)
            self.env.update(assignments)
        try:
            return self._dispatch(name, args)
        except ShellError as exc:
            return CommandResult.failure(f"{name}: {exc}", exit_code=1)
        finally:
            if saved_env is not None:
                self.env = saved_env

    def _dispatch(self, name: str, args: List[str]) -> CommandResult:
        # container-provided commands take precedence while inside one
        if self.container is not None and self.container.running:
            if name in self.container.image.commands:
                impl = self.services.image_commands.get(name)
                if impl is None:
                    raise ShellError(
                        f"container command {name!r} has no registered "
                        "implementation"
                    )
                return impl(self, args)
        if name in self._core:
            return self._core[name](self, args)
        if name in self._gated:
            available = self.available_tool_commands()
            if name not in available:
                return CommandResult.failure(
                    f"bash: {name}: command not found (activate an "
                    f"environment providing it; active: {self.active_env})",
                    exit_code=127,
                )
            return self._gated[name](self, args)
        return CommandResult.failure(
            f"bash: {name}: command not found", exit_code=127
        )
