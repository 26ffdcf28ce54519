"""The action marketplace.

Resolves ``uses: owner/action@ref`` step references to executable action
implementations. CORRECT publishes itself here as
``globus-labs/correct@v1`` (the paper's marketplace listing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import UnknownActionError


@dataclass
class ActionMetadata:
    """Marketplace listing for one action version."""

    reference: str  # "owner/name@ref"
    description: str = ""
    inputs: Dict[str, str] = field(default_factory=dict)  # name -> help
    required_inputs: List[str] = field(default_factory=list)


class Marketplace:
    """Registry of published actions.

    An implementation is any object with a
    ``run(step_context) -> StepOutcome`` method or a
    ``run_async(step_context)`` method returning a future of one (see
    :mod:`repro.actions.engine`).
    """

    def __init__(self) -> None:
        self._actions: Dict[str, object] = {}
        self._metadata: Dict[str, ActionMetadata] = {}

    def publish(
        self,
        reference: str,
        implementation: object,
        metadata: Optional[ActionMetadata] = None,
    ) -> None:
        if "@" not in reference or "/" not in reference.split("@")[0]:
            raise ValueError(
                f"action reference must be 'owner/name@ref', got {reference!r}"
            )
        if not (
            hasattr(implementation, "run") or hasattr(implementation, "run_async")
        ):
            raise TypeError(
                "action implementation must define run(step_context) "
                "or run_async(step_context)"
            )
        self._actions[reference] = implementation
        self._metadata[reference] = metadata or ActionMetadata(reference=reference)

    def resolve(self, reference: str) -> object:
        try:
            return self._actions[reference]
        except KeyError:
            raise UnknownActionError(
                f"no marketplace action {reference!r} "
                f"(published: {sorted(self._actions)})"
            ) from None

    def metadata(self, reference: str) -> ActionMetadata:
        try:
            return self._metadata[reference]
        except KeyError:
            raise UnknownActionError(f"no marketplace action {reference!r}") from None

    def listings(self) -> List[str]:
        return sorted(self._actions)
