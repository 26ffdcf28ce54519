"""High-assurance policies for multi-user endpoints.

The paper (§5.1) notes MEPs can require specific identity providers,
enforce session recency, and restrict executable functions. The function
allow-list lives on the endpoint itself (:mod:`repro.faas.endpoint`); this
module models the identity-level policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.auth.oauth import Token
from repro.errors import PolicyViolation


@dataclass
class HighAssurancePolicy:
    """Identity policy evaluated before a MEP forks a user endpoint.

    Attributes
    ----------
    required_providers:
        If non-empty, the authenticated identity's provider domain must be
        one of these.
    max_session_age:
        If set, the token must have been issued within this many seconds —
        modeling Globus session enforcement.
    """

    required_providers: FrozenSet[str] = frozenset()
    max_session_age: Optional[float] = None

    def check(self, token: Token, now: float) -> None:
        """Raise :class:`PolicyViolation` if the token fails the policy."""
        identity = token.identity
        if self.required_providers and identity.provider not in self.required_providers:
            raise PolicyViolation(
                f"identity provider {identity.provider!r} not in "
                f"{sorted(self.required_providers)}"
            )
        if self.max_session_age is not None:
            age = now - token.issued_at
            if age > self.max_session_age:
                raise PolicyViolation(
                    f"session age {age:.0f}s exceeds policy maximum "
                    f"{self.max_session_age:.0f}s"
                )

    @classmethod
    def permissive(cls) -> "HighAssurancePolicy":
        """A policy that accepts everything (the default for test sites)."""
        return cls()
