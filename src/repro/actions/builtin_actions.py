"""Builtin marketplace actions: checkout, upload-artifact, setup-python.

These mirror the ``actions/*`` steps the paper's workflows use:
``actions/upload-artifact@v4`` is how §6.3 stores every artifact script's
output, and checkout/setup-python are staples of any Actions workflow.
"""

from __future__ import annotations

from typing import Dict



class CheckoutAction:
    """``actions/checkout@v4``: clone the triggering repo onto the runner."""

    def run(self, ctx) -> "StepOutcome":  # noqa: F821 - documented protocol
        from repro.actions.engine import StepOutcome

        slug = str(ctx.inputs.get("repository", ctx.run.repo_slug))
        ref = str(ctx.inputs.get("ref", "") or ctx.run.branch)
        path = str(ctx.inputs.get("path", "") or slug.rsplit("/", 1)[-1])
        session = ctx.runner.shell(services=ctx.shell_services(), env=ctx.env)
        result = session.run(f"git clone -b {ref} https://github.com/{slug} {path}")
        return StepOutcome(
            status="success" if result.ok else "failure",
            outputs={"path": session.resolve_path(path)},
            log=result.combined_output(),
            error="" if result.ok else result.stderr,
        )


class UploadArtifactAction:
    """``actions/upload-artifact@v4``: persist runner files to the hub.

    Inputs: ``name`` (artifact name) and ``path`` (file or directory on
    the runner). ``if-no-files-found`` may be ``error`` (default) or
    ``ignore``/``warn``.
    """

    def run(self, ctx) -> "StepOutcome":  # noqa: F821
        from repro.actions.engine import StepOutcome

        name = str(ctx.inputs.get("name", "artifact"))
        path = str(ctx.inputs.get("path", ""))
        on_missing = str(ctx.inputs.get("if-no-files-found", "error"))
        if not path:
            return StepOutcome(status="failure", error="upload-artifact: no path input")
        handle = ctx.runner.handle
        session = ctx.runner.shell(services=ctx.shell_services(), env=ctx.env)
        resolved = session.resolve_path(path)
        content: str
        if handle.fs_exists(resolved) and not handle.fs_isdir(resolved):
            content = handle.fs_read(resolved)
        elif handle.fs_isdir(resolved):
            tree = handle.fs_read_tree(resolved)
            content = "\n".join(
                f"===== {rel} =====\n{body}" for rel, body in sorted(tree.items())
            )
        else:
            if on_missing in ("ignore", "warn"):
                return StepOutcome(
                    status="success",
                    log=f"upload-artifact: no files at {resolved}, ignoring",
                )
            return StepOutcome(
                status="failure",
                error=f"upload-artifact: no files found at {resolved}",
            )
        artifact = ctx.engine.hub.artifacts.upload(ctx.run.run_id, name, content)
        return StepOutcome(
            status="success",
            outputs={"artifact-name": name},
            log=(
                f"Uploaded artifact {name!r} "
                f"({artifact.size_bytes} bytes, retained "
                f"until t={artifact.expires_at():.0f})"
            ),
        )


class SetupPythonAction:
    """``actions/setup-python@v5``: put pip/python on the runner PATH.

    Our runner VMs already have ``pip`` as a core command; this action
    charges the realistic install time and records the version for
    provenance.
    """

    def run(self, ctx) -> "StepOutcome":  # noqa: F821
        from repro.actions.engine import StepOutcome

        version = str(ctx.inputs.get("python-version", "3.11"))
        ctx.runner.handle.io(25.0)  # interpreter download/extract
        ctx.env["PYTHON_VERSION"] = version
        return StepOutcome(
            status="success",
            outputs={"python-version": version},
            log=f"Successfully set up CPython {version}",
        )


class CommitResultsAction:
    """``repro/commit-results@v1``: commit step outputs back to the repo.

    §7.4's persistence mitigation: artifacts expire after 90 days, but
    "GitHub provides commit actions that can commit files generated by
    previous steps to the repository." Inputs: ``path`` (file or directory
    on the runner), ``target`` (path prefix inside the repository), and an
    optional ``message``.
    """

    def run(self, ctx) -> "StepOutcome":  # noqa: F821
        from repro.actions.engine import StepOutcome

        path = str(ctx.inputs.get("path", ""))
        target = str(ctx.inputs.get("target", "results")).strip("/")
        message = str(
            ctx.inputs.get("message", "Persist workflow results [skip ci]")
        )
        if not path:
            return StepOutcome(status="failure", error="commit-results: no path")
        handle = ctx.runner.handle
        session = ctx.runner.shell(services=ctx.shell_services(), env=ctx.env)
        resolved = session.resolve_path(path)
        if handle.fs_isdir(resolved):
            files = {
                f"{target}/{rel}": content
                for rel, content in handle.fs_read_tree(resolved).items()
            }
        elif handle.fs_exists(resolved):
            name = resolved.rsplit("/", 1)[-1]
            files = {f"{target}/{name}": handle.fs_read(resolved)}
        else:
            return StepOutcome(
                status="failure",
                error=f"commit-results: nothing at {resolved}",
            )
        author = ctx.run.actor or ctx.engine.hub.repo(ctx.run.repo_slug).owner
        sha = ctx.engine.hub.push_commit(
            ctx.run.repo_slug,
            author=author,
            message=message,
            patch=files,
            branch=ctx.run.branch,
        )
        return StepOutcome(
            status="success",
            outputs={"sha": sha, "files": str(len(files))},
            log=f"committed {len(files)} file(s) under {target}/ as {sha[:10]}",
        )


class ArchiveResultsAction:
    """``repro/archive-results@v1``: deposit run artifacts permanently.

    §7.4's other mitigation: "new steps could be added to the workflow to
    publish artifacts to external data repositories like Zenodo." Deposits
    this run's workflow artifacts into the configured
    :class:`~repro.hub.archive.PermanentArchive` and outputs the DOI.
    Inputs: ``title``, optional ``concept-doi`` for versioned updates.
    """

    def run(self, ctx) -> "StepOutcome":  # noqa: F821
        from repro.actions.engine import StepOutcome

        archive = ctx.services.archive
        if archive is None:
            return StepOutcome(
                status="failure",
                error="archive-results: no PermanentArchive configured",
            )
        title = str(ctx.inputs.get("title", f"Artifacts of {ctx.run.run_id}"))
        concept = str(ctx.inputs.get("concept-doi", "")) or None
        artifacts = ctx.engine.hub.artifacts.list_for_run(ctx.run.run_id)
        files = {a.name: a.content for a in artifacts}
        if not files:
            return StepOutcome(
                status="failure",
                error="archive-results: the run has no artifacts to deposit",
            )
        deposit = archive.deposit(
            title=title,
            creators=[ctx.run.actor or "workflow"],
            files=files,
            concept_doi=concept,
        )
        return StepOutcome(
            status="success",
            outputs={
                "doi": deposit.doi,
                "concept-doi": deposit.concept_doi,
                "version": str(deposit.version),
            },
            log=(
                f"deposited {len(files)} artifact(s) as {deposit.doi} "
                f"(version {deposit.version} of {deposit.concept_doi})"
            ),
        )


BUILTIN_ACTIONS: Dict[str, object] = {
    "actions/checkout@v4": CheckoutAction(),
    "actions/upload-artifact@v4": UploadArtifactAction(),
    "actions/setup-python@v5": SetupPythonAction(),
    "repro/commit-results@v1": CommitResultsAction(),
    "repro/archive-results@v1": ArchiveResultsAction(),
}
