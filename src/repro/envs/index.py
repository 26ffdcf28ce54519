"""The package index: all known package versions, with resolution."""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.envs.packages import Package, VersionSpec
from repro.errors import PackageNotFound, ResolutionError


class PackageIndex:
    """A registry of package versions with greedy dependency resolution.

    Resolution picks the newest version satisfying all constraints, then
    recurses into its dependencies, intersecting constraints as it goes.
    Backtracking is deliberately not implemented — the stacks we model
    resolve greedily, and a conflict is reported as
    :class:`ResolutionError` with the offending constraint chain.
    """

    def __init__(self) -> None:
        self._packages: Dict[str, List[Package]] = {}

    def add(self, package: Package) -> None:
        versions = self._packages.setdefault(package.name, [])
        if any(p.version == package.version for p in versions):
            raise ValueError(f"{package.spec} already indexed")
        versions.append(package)
        versions.sort(key=lambda p: p.version, reverse=True)

    def add_many(self, packages: Iterable[Package]) -> None:
        for p in packages:
            self.add(p)

    def versions(self, name: str) -> List[Package]:
        try:
            return list(self._packages[name])
        except KeyError:
            raise PackageNotFound(f"no package {name!r} in index") from None

    def best(self, name: str, spec: VersionSpec) -> Package:
        for package in self.versions(name):
            if spec.matches(package.version):
                return package
        raise ResolutionError(f"no version of {name!r} matches {spec}")

    def resolve(self, requests: Dict[str, str]) -> List[Package]:
        """Resolve {name: constraint} into a full install set.

        Returns packages in dependency-before-dependent order.
        """
        constraints: Dict[str, List[str]] = {}
        order: List[str] = []
        expanded: set = set()  # (name, version) pairs already recursed into

        def add_constraint(name: str, spec_text: str, chain: str) -> None:
            constraints.setdefault(name, []).append(spec_text)
            if name not in order:
                order.append(name)
            chosen = self._choose(name, constraints[name], chain)
            key = (name, str(chosen.version))
            if key in expanded:
                return  # already walked this choice's dependencies
            expanded.add(key)
            for dep_name, dep_spec in chosen.requires:
                add_constraint(dep_name, dep_spec, f"{chain} -> {chosen.spec}")

        for name, spec_text in requests.items():
            add_constraint(name, spec_text, "request")

        chosen_set = {
            name: self._choose(name, specs, "final")
            for name, specs in constraints.items()
        }
        # dependency-first ordering via DFS
        resolved: List[Package] = []
        visited: Dict[str, int] = {}  # 0=visiting, 1=done

        def visit(name: str) -> None:
            state = visited.get(name)
            if state == 1:
                return
            if state == 0:
                raise ResolutionError(f"dependency cycle involving {name!r}")
            visited[name] = 0
            for dep_name, _ in chosen_set[name].requires:
                visit(dep_name)
            visited[name] = 1
            resolved.append(chosen_set[name])

        for name in order:
            visit(name)
        return resolved

    def _choose(self, name: str, spec_texts: List[str], chain: str) -> Package:
        merged = VersionSpec(",".join(s for s in spec_texts if s and s != "*"))
        for package in self.versions(name):
            if merged.matches(package.version):
                return package
        raise ResolutionError(
            f"cannot satisfy {name} {merged} (via {chain}); "
            f"available: {[str(p.version) for p in self.versions(name)]}"
        )
