"""Registered functions and the context they execute in."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import FunctionNotRegistered
from repro.shellsim.session import ShellServices, ShellSession
from repro.sites.site import NodeHandle
from repro.util.ids import deterministic_uuid


@dataclass(slots=True)
class FunctionContext:
    """What a remote function sees: the node it landed on plus a shell.

    Registered functions take this as their first argument (injected by
    the endpoint), followed by the caller's own arguments. Results must be
    plain data — they travel through the cloud service's serializer.
    """

    handle: NodeHandle
    shell_services: ShellServices
    env: Dict[str, str] = field(default_factory=dict)
    cwd: Optional[str] = None

    def shell(self) -> ShellSession:
        """A fresh shell session on this node."""
        return ShellSession(
            self.handle,
            services=self.shell_services,
            env=dict(self.env),
            cwd=self.cwd,
        )


@dataclass(frozen=True)
class FunctionSpec:
    """A registered function.

    ``needs_outbound`` marks functions that must run on nodes with
    outbound internet (repository clones); user endpoints route them to
    the login provider on restricted sites, reproducing the MEP-template
    trick from §6.1.
    """

    function_id: str
    name: str
    fn: Callable[..., Any]
    owner_urn: str
    needs_outbound: bool = False


class FunctionRegistry:
    """Cloud-side registry of functions by UUID."""

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionSpec] = {}

    def register(
        self,
        fn: Callable[..., Any],
        name: str,
        owner_urn: str,
        needs_outbound: bool = False,
    ) -> str:
        function_id = deterministic_uuid("function", owner_urn, name)
        self._functions[function_id] = FunctionSpec(
            function_id=function_id,
            name=name,
            fn=fn,
            owner_urn=owner_urn,
            needs_outbound=needs_outbound,
        )
        return function_id

    def get(self, function_id: str) -> FunctionSpec:
        try:
            return self._functions[function_id]
        except KeyError:
            raise FunctionNotRegistered(
                f"no function {function_id!r} registered"
            ) from None
