"""Suite specification model: yamlite documents -> :class:`SuiteSpec`.

The schema (all strings may reference series variables with ``{name}``):

.. code-block:: yaml

    suite: fig4
    description: ParslDock multi-site CI (Fig. 4)
    report: fig4                      # optional CLI report renderer
    workflow:
      name: ParslDock multi-site CI   # rendered workflow's name:
      path: .github/workflows/correct.yml
    repo:
      slug: parsl/parsl-docking-tutorial
      files: repro.apps.parsldock.suite:repo_files   # dotted factory
    user:
      login: vhayot
      account: x-vhayot
    stack:                            # optional conda provisioning
      conda_env: docking
      packages: {parsldock: "*", pytest: ">=8"}
    sites:                            # optional per-site scheduler reqs
      anvil: {login_only: true, walltime: 7200, nodes: 1}
    containers:                       # optional container publication
      image: repro.apps.kamping.artifacts:kamping_image
      commands: repro.apps.kamping.artifacts:register_artifact_commands
    retry:                            # optional; runs under a fault profile
      max_attempts: 5                 # integer >= 1
      base_delay: 5.0                 # multiplier, max_delay, jitter too;
                                      # every number finite and >= 0
    series:
      pytest:
        variables: {site: [chameleon, faster, expanse]}
        permutations: []              # optional overlay mappings
        job: "test-{site}"
        environment: "hpc-{site}"     # omit -> ungated job
        target: "{site}"              # site the job's endpoint lives on
        route: endpoint               # or "pool": route via site name
        skip_if: ""                   # python expr over the variables
        timeout: 0                    # per-test deadline: finite seconds
                                      # >= 0, 0 = none (test: may set its own)
                                      # no retry: here, one policy per service
        test:
          name: "Run pytest on {site}"
          id: "pytest-{site}"
          command: pytest
          conda_env: docking
          artifact_prefix: "correct-{site}"
          clone: true
        parse:
          parser: pytest              # raw|pytest|regex|json|table|verdict
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List

from repro.errors import ReproError, YamliteError
from repro.faults.resilience import RetryPolicy
from repro.util import yamlite

# the keys a suite's ``retry:`` block may set: a profiled run seeds the
# policy from its own ``--seed``
_RETRY_KEYS = tuple(f.name for f in fields(RetryPolicy) if f.name != "seed")


class SuiteError(ReproError):
    """A suite document is malformed or cannot be resolved."""


@dataclass
class TestSpec:
    """The templated CORRECT step one series instance materializes."""

    name: str
    id: str
    command: str
    conda_env: str = ""
    artifact_prefix: str = "correct"
    clone: bool = True
    container_image: str = ""
    timeout: float = 0.0


@dataclass
class ParseSpec:
    """Which :class:`~repro.suites.parsers.ResultParser` to apply."""

    parser: str = "raw"
    options: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SeriesSpec:
    """One parameterized test series inside a suite."""

    name: str
    test: TestSpec
    parse: ParseSpec
    variables: Dict[str, List[Any]] = field(default_factory=dict)
    permutations: List[Dict[str, Any]] = field(default_factory=list)
    job: str = "test-{site}"
    environment: str = ""
    target: str = "{site}"
    route: str = "endpoint"  # "endpoint" | "pool"
    skip_if: str = ""
    timeout: float = 0.0


@dataclass
class SiteSpec:
    """Per-site scheduler requirements (threaded into the MEP template)."""

    login_only: bool = False
    walltime: float = 7200.0
    nodes: int = 1


@dataclass
class SuiteSpec:
    """A fully parsed suite document."""

    name: str
    description: str
    workflow_name: str
    workflow_path: str
    repo_slug: str
    repo_files: str  # "module.path:callable" returning Dict[str, str]
    user_login: str
    user_account: str
    series: Dict[str, SeriesSpec]
    report: str = ""
    stack_env: str = ""
    stack_packages: Dict[str, str] = field(default_factory=dict)
    sites: Dict[str, SiteSpec] = field(default_factory=dict)
    containers_image: str = ""
    containers_commands: str = ""
    retry: Dict[str, Any] = field(default_factory=dict)
    source: str = ""

    def resolve_ref(self, ref: str):
        """Resolve a ``module.path:callable`` reference from the spec."""
        return resolve_dotted(ref, source=self.source)


def resolve_dotted(ref: str, source: str = ""):
    """Import ``module.path:attr``; raises :class:`SuiteError` on failure."""
    where = f" (in {source})" if source else ""
    if ":" not in ref:
        raise SuiteError(
            f"bad dotted reference {ref!r}{where}: expected 'module:attr'"
        )
    module_name, attr = ref.split(":", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SuiteError(
            f"cannot import {module_name!r} for reference {ref!r}{where}: {exc}"
        ) from exc
    try:
        return getattr(module, attr)
    except AttributeError:
        raise SuiteError(
            f"{module_name!r} has no attribute {attr!r}{where}"
        ) from None


def suites_root() -> Path:
    """The repository's committed ``suites/`` directory."""
    return Path(__file__).resolve().parents[3] / "suites"


def resolve_suite_path(name: str) -> Path:
    """Locate a suite file: explicit path, ``./suites/``, then committed.

    Accepts a bare name (``fig4``), a file name (``fig4.yaml``), or a
    path; raises :class:`SuiteError` when nothing matches.
    """
    candidates: List[Path] = []
    for stem in (name, f"{name}.yaml"):
        candidates.append(Path(stem))
        candidates.append(Path(os.getcwd()) / "suites" / Path(stem).name)
        candidates.append(suites_root() / Path(stem).name)
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    raise SuiteError(
        f"no suite file found for {name!r} "
        f"(looked in ., ./suites/, {suites_root()})"
    )


def load_suite(name_or_path) -> SuiteSpec:
    """Load and validate a suite file (accepts a path or a bare name)."""
    if isinstance(name_or_path, SuiteSpec):
        return name_or_path
    path = resolve_suite_path(str(name_or_path))
    text = path.read_text(encoding="utf-8")
    return parse_suite(text, source=str(path))


def _timeout(value: Any, context: str, where: str) -> float:
    """A ``timeout:`` in virtual seconds: finite and >= 0 (0 = none)."""
    try:
        seconds = float(value or 0.0)
    except (TypeError, ValueError):
        seconds = math.nan
    if not 0.0 <= seconds < math.inf:
        raise SuiteError(
            f"{context} timeout must be a finite number of seconds >= 0, "
            f"got {value!r}{where}"
        )
    return seconds


def _retry(doc: Any, where: str) -> Dict[str, Any]:
    """The top-level ``retry:`` block, checked against :class:`RetryPolicy`."""
    if not doc:
        return {}
    if not isinstance(doc, dict):
        raise SuiteError(f"retry must be a mapping{where}")
    unknown = sorted(set(doc) - set(_RETRY_KEYS))
    if unknown:
        raise SuiteError(
            f"retry has unknown keys {unknown}; choices: {list(_RETRY_KEYS)}{where}"
        )
    for key, value in doc.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not 0 <= value < math.inf
        ):
            raise SuiteError(
                f"retry {key} must be a finite number >= 0, got {value!r}{where}"
            )
    attempts = doc.get("max_attempts", 1)
    if not isinstance(attempts, int) or attempts < 1:
        raise SuiteError(
            f"retry max_attempts must be an integer >= 1, got {attempts!r}{where}"
        )
    return dict(doc)


def parse_suite(text: str, source: str = "") -> SuiteSpec:
    """Parse yamlite text into a validated :class:`SuiteSpec`."""
    where = f" (in {source})" if source else ""
    try:
        doc = yamlite.loads(text)
    except YamliteError as exc:
        raise SuiteError(f"suite parse failed{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SuiteError(f"suite document must be a mapping{where}")

    def need(mapping: Any, key: str, context: str) -> Any:
        if not isinstance(mapping, dict):
            raise SuiteError(f"{context} must be a mapping{where}")
        if key not in mapping:
            raise SuiteError(f"{context} is missing {key!r}{where}")
        return mapping[key]

    name = str(need(doc, "suite", "suite document"))
    workflow = need(doc, "workflow", "suite document")
    repo = need(doc, "repo", "suite document")
    user = need(doc, "user", "suite document")
    series_doc = need(doc, "series", "suite document")
    if not isinstance(series_doc, dict) or not series_doc:
        raise SuiteError(f"suite {name!r} declares no series{where}")

    stack = doc.get("stack") or {}
    sites_doc = doc.get("sites") or {}
    containers = doc.get("containers") or {}

    sites: Dict[str, SiteSpec] = {}
    for site_name, conf in sites_doc.items():
        conf = conf or {}
        sites[site_name] = SiteSpec(
            login_only=bool(conf.get("login_only", False)),
            walltime=float(conf.get("walltime", 7200.0)),
            nodes=int(conf.get("nodes", 1)),
        )

    series: Dict[str, SeriesSpec] = {}
    for series_name, conf in series_doc.items():
        context = f"series {series_name!r}"
        if not isinstance(conf, dict):
            raise SuiteError(f"{context} must be a mapping{where}")
        test_doc = need(conf, "test", context)
        test = TestSpec(
            name=str(need(test_doc, "name", f"{context} test")),
            id=str(need(test_doc, "id", f"{context} test")),
            command=str(need(test_doc, "command", f"{context} test")),
            conda_env=str(test_doc.get("conda_env", "") or ""),
            artifact_prefix=str(test_doc.get("artifact_prefix", "correct")),
            clone=bool(test_doc.get("clone", True)),
            container_image=str(test_doc.get("container_image", "") or ""),
            timeout=_timeout(test_doc.get("timeout"), f"{context} test", where),
        )
        parse_doc = conf.get("parse") or {}
        parse = ParseSpec(
            parser=str(parse_doc.get("parser", "raw")),
            options={
                k: v for k, v in parse_doc.items() if k != "parser"
            },
        )
        variables_doc = conf.get("variables") or {}
        if not isinstance(variables_doc, dict):
            raise SuiteError(f"{context} variables must be a mapping{where}")
        variables: Dict[str, List[Any]] = {}
        for var, values in variables_doc.items():
            variables[var] = list(values) if isinstance(values, list) else [values]
        permutations = conf.get("permutations") or []
        if not isinstance(permutations, list) or not all(
            isinstance(p, dict) for p in permutations
        ):
            raise SuiteError(
                f"{context} permutations must be a list of mappings{where}"
            )
        if "retry" in conf:
            raise SuiteError(
                f"{context} declares a retry: block, but a retry policy is "
                f"one per service; set it in the top-level retry: block{where}"
            )
        route = str(conf.get("route", "endpoint"))
        if route not in ("endpoint", "pool"):
            raise SuiteError(
                f"{context} route must be 'endpoint' or 'pool', "
                f"got {route!r}{where}"
            )
        series[series_name] = SeriesSpec(
            name=series_name,
            test=test,
            parse=parse,
            variables=variables,
            permutations=list(permutations),
            job=str(need(conf, "job", context)),
            environment=str(conf.get("environment", "") or ""),
            target=str(conf.get("target", "{site}")),
            route=route,
            skip_if=str(conf.get("skip_if", "") or ""),
            timeout=_timeout(conf.get("timeout"), context, where),
        )

    spec = SuiteSpec(
        name=name,
        description=str(doc.get("description", "")),
        workflow_name=str(need(workflow, "name", "workflow")),
        workflow_path=str(need(workflow, "path", "workflow")),
        repo_slug=str(need(repo, "slug", "repo")),
        repo_files=str(need(repo, "files", "repo")),
        user_login=str(need(user, "login", "user")),
        user_account=str(need(user, "account", "user")),
        series=series,
        report=str(doc.get("report", "")),
        stack_env=str(stack.get("conda_env", "") or ""),
        stack_packages=dict(stack.get("packages") or {}),
        sites=sites,
        containers_image=str(containers.get("image", "") or ""),
        containers_commands=str(containers.get("commands", "") or ""),
        retry=_retry(doc.get("retry"), where),
        source=source,
    )
    if spec.stack_packages and not spec.stack_env:
        raise SuiteError(
            f"suite {name!r} declares stack packages without conda_env{where}"
        )
    return spec
