"""A Zenodo-like permanent archive with DOIs.

§7.4: workflow artifacts expire after 90 days, so "new steps could be
added to the workflow to publish artifacts to external data repositories
like Zenodo." :class:`PermanentArchive` models such a repository: deposits
are immutable, never expire, get deterministic DOIs, and support
versioned "concept" records (new versions of the same deposit share a
concept DOI, like Zenodo's versioning model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import HubError
from repro.util.clock import SimClock
from repro.util.ids import deterministic_uuid


@dataclass(frozen=True)
class Deposit:
    """One immutable archived record."""

    doi: str
    concept_doi: str
    version: int
    title: str
    creators: tuple
    files: tuple  # ((name, content), ...)
    deposited_at: float

    def file_map(self) -> Dict[str, str]:
        return dict(self.files)


class PermanentArchive:
    """Immutable, versioned, DOI-addressed storage (the Zenodo stand-in)."""

    def __init__(self, clock: SimClock, prefix: str = "10.5281") -> None:
        self._clock = clock
        self.prefix = prefix
        self._deposits: Dict[str, Deposit] = {}
        self._concepts: Dict[str, List[str]] = {}  # concept doi -> versions

    def _mint(self, *parts: str) -> str:
        return f"{self.prefix}/sim.{deterministic_uuid(*parts)[:12]}"

    def deposit(
        self,
        title: str,
        creators: List[str],
        files: Dict[str, str],
        concept_doi: Optional[str] = None,
    ) -> Deposit:
        """Archive files; returns the new immutable deposit.

        Pass ``concept_doi`` to publish a new version of an existing
        record; omitting it starts a new concept.
        """
        if not files:
            raise HubError("cannot deposit an empty file set")
        if concept_doi is None:
            concept_doi = self._mint("concept", title, str(sorted(files)))
            self._concepts.setdefault(concept_doi, [])
        elif concept_doi not in self._concepts:
            raise HubError(f"unknown concept DOI {concept_doi!r}")
        version = len(self._concepts[concept_doi]) + 1
        doi = self._mint("version", concept_doi, str(version))
        deposit = Deposit(
            doi=doi,
            concept_doi=concept_doi,
            version=version,
            title=title,
            creators=tuple(creators),
            files=tuple(sorted(files.items())),
            deposited_at=self._clock.now,
        )
        self._deposits[doi] = deposit
        self._concepts[concept_doi].append(doi)
        return deposit

    def resolve(self, doi: str) -> Deposit:
        """Resolve a version DOI, or a concept DOI to its latest version.

        Deposits never expire — the property that distinguishes this from
        the hub's 90-day artifact store.
        """
        if doi in self._deposits:
            return self._deposits[doi]
        versions = self._concepts.get(doi)
        if versions:
            return self._deposits[versions[-1]]
        raise HubError(f"DOI {doi!r} does not resolve")

    def versions(self, concept_doi: str) -> List[Deposit]:
        return [self._deposits[d] for d in self._concepts.get(concept_doi, [])]
