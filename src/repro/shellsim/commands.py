"""Builtin shell commands.

Two tiers:

* ``CORE_COMMANDS`` — always on PATH (coreutils, ``git``, ``conda``,
  ``pip``, ``module``, ``apptainer``).
* ``GATED_COMMANDS`` — must be provided by the active conda environment or
  the running container image (``pytest``, ``tox``): CI recipes must
  install their tooling first, exactly like on a real site.

Each command is ``(session, args) -> CommandResult`` and charges virtual
time through the session's node handle where the real operation would cost
time (clones, package downloads, test execution).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import (
    FileSystemError,
    ImageNotFound,
    NetworkBlocked,
    PrivilegeError,
    ReproError,
    ShellError,
)
from repro.shellsim.result import CommandResult
from repro.shellsim.suites import (
    format_pytest_output,
    load_suite,
    SuiteContext,
)

CommandFn = Callable[["ShellSession", List[str]], CommandResult]  # noqa: F821

REPORT_FILENAME = ".report.json"
SUITE_MANIFEST = ".repro-suite"


# ---------------------------------------------------------------------------
# coreutils
# ---------------------------------------------------------------------------


def cmd_echo(session, args: List[str]) -> CommandResult:
    return CommandResult.success(" ".join(args))


def cmd_true(session, args: List[str]) -> CommandResult:
    return CommandResult.success()


def cmd_false(session, args: List[str]) -> CommandResult:
    return CommandResult.failure("", exit_code=1)


def cmd_pwd(session, args: List[str]) -> CommandResult:
    return CommandResult.success(session.cwd)


def cmd_cd(session, args: List[str]) -> CommandResult:
    target = session.resolve_path(args[0]) if args else session.env.get("HOME", "/")
    if not session.handle.fs_isdir(target):
        return CommandResult.failure(f"cd: {target}: No such directory")
    session.cwd = target
    return CommandResult.success()


def cmd_ls(session, args: List[str]) -> CommandResult:
    target = session.resolve_path(args[0]) if args else session.cwd
    try:
        entries = session.handle.fs_listdir(target)
    except FileSystemError as exc:
        return CommandResult.failure(f"ls: {exc}", exit_code=2)
    return CommandResult.success("\n".join(entries))


def cmd_cat(session, args: List[str]) -> CommandResult:
    if not args:
        return CommandResult.failure("cat: missing operand")
    out = []
    for arg in args:
        path = session.resolve_path(arg)
        try:
            out.append(session.handle.fs_read(path))
        except FileSystemError:
            return CommandResult.failure(
                f"cat: {arg}: No such file or directory"
            )
    return CommandResult.success("\n".join(out))


def cmd_mkdir(session, args: List[str]) -> CommandResult:
    paths = [a for a in args if not a.startswith("-")]
    if not paths:
        return CommandResult.failure("mkdir: missing operand")
    for path in paths:
        try:
            session.handle.fs_mkdir(session.resolve_path(path))
        except FileSystemError as exc:
            return CommandResult.failure(f"mkdir: {exc}")
    return CommandResult.success()


def cmd_rm(session, args: List[str]) -> CommandResult:
    recursive = any(a in ("-r", "-rf", "-fr") for a in args)
    paths = [a for a in args if not a.startswith("-")]
    if not paths:
        return CommandResult.failure("rm: missing operand")
    for path in paths:
        try:
            session.handle.fs_remove(session.resolve_path(path), recursive=recursive)
        except FileSystemError as exc:
            return CommandResult.failure(f"rm: {exc}")
    return CommandResult.success()


def cmd_hostname(session, args: List[str]) -> CommandResult:
    return CommandResult.success(session.handle.node.name)


def cmd_whoami(session, args: List[str]) -> CommandResult:
    return CommandResult.success(session.handle.user)


def cmd_env(session, args: List[str]) -> CommandResult:
    lines = [f"{k}={v}" for k, v in sorted(session.env.items())]
    return CommandResult.success("\n".join(lines))


def cmd_export(session, args: List[str]) -> CommandResult:
    for arg in args:
        if "=" not in arg:
            return CommandResult.failure(f"export: bad assignment {arg!r}")
        key, value = arg.split("=", 1)
        session.env[key] = value
    return CommandResult.success()


def cmd_sleep(session, args: List[str]) -> CommandResult:
    if not args:
        return CommandResult.failure("sleep: missing operand")
    try:
        seconds = float(args[0])
    except ValueError:
        return CommandResult.failure(f"sleep: invalid time {args[0]!r}")
    session.handle.site.clock.advance(seconds)
    return CommandResult.success()


def cmd_uname(session, args: List[str]) -> CommandResult:
    node = session.handle.node
    return CommandResult.success(
        f"Linux {node.name} ({node.cores} cores, {node.memory_gb:.0f} GB, "
        f"class={node.node_class}, site={session.handle.site.name})"
    )


def cmd_module(session, args: List[str]) -> CommandResult:
    """HPC environment modules — tracked but inert."""
    if args and args[0] == "load":
        loaded = session.env.get("LOADEDMODULES", "")
        mods = [m for m in loaded.split(":") if m] + args[1:]
        session.env["LOADEDMODULES"] = ":".join(mods)
        return CommandResult.success()
    if args and args[0] == "list":
        return CommandResult.success(session.env.get("LOADEDMODULES", ""))
    return CommandResult.failure(f"module: unsupported: {' '.join(args)}")


# ---------------------------------------------------------------------------
# git
# ---------------------------------------------------------------------------


def _repo_slug_from_url(url: str) -> str:
    for prefix in ("https://github.com/", "http://github.com/", "hub://", "git@github.com:"):
        if url.startswith(prefix):
            slug = url[len(prefix):]
            break
    else:
        raise ShellError(f"unrecognized repository URL {url!r}")
    if slug.endswith(".git"):
        slug = slug[:-4]
    return slug.strip("/")


def cmd_git(session, args: List[str]) -> CommandResult:
    if not args:
        return CommandResult.failure("git: usage: git <command>")
    sub, rest = args[0], args[1:]
    if sub == "clone":
        return _git_clone(session, rest)
    if sub == "rev-parse":
        head = session.env.get("GIT_HEAD", "")
        if head:
            return CommandResult.success(head)
        return CommandResult.failure("git: not a repository")
    return CommandResult.failure(f"git: unsupported subcommand {sub!r}")


def _git_clone(session, args: List[str]) -> CommandResult:
    branch = None
    positional: List[str] = []
    i = 0
    while i < len(args):
        if args[i] in ("-b", "--branch"):
            if i + 1 >= len(args):
                return CommandResult.failure("git clone: missing branch name")
            branch = args[i + 1]
            i += 2
            continue
        if args[i] == "--depth":
            i += 2
            continue
        positional.append(args[i])
        i += 1
    if not positional:
        return CommandResult.failure("git clone: missing repository URL")
    url = positional[0]
    hub = session.services.hub
    if hub is None:
        return CommandResult.failure("git clone: no network route to hub")
    try:
        session.handle.check_outbound("git clone")
    except NetworkBlocked as exc:
        return CommandResult.failure(f"git clone: {exc}", exit_code=128)
    try:
        slug = _repo_slug_from_url(url)
        hosted = hub.repo(slug)
    except ReproError as exc:
        return CommandResult.failure(f"git clone: {exc}", exit_code=128)
    repo = hosted.repository
    ref = branch or repo.default_branch
    try:
        files = repo.files_at(ref)
        head = repo.resolve(ref)
    except ReproError as exc:
        return CommandResult.failure(f"git clone: {exc}", exit_code=128)
    dest_name = (
        positional[1] if len(positional) > 1 else slug.rsplit("/", 1)[-1]
    )
    dest = session.resolve_path(dest_name)
    if session.handle.fs_exists(dest) and session.handle.fs_listdir(dest):
        return CommandResult.failure(
            f"git clone: destination path '{dest_name}' already exists "
            "and is not an empty directory",
            exit_code=128,
        )
    repo_mb = max(0.1, sum(len(c) for c in files.values()) / 1e6 + 1.0)
    session.handle.site.clock.advance(
        session.handle.site.network.clone_seconds(repo_mb)
    )
    session.handle.fs_write_tree(dest, files)
    session.env["GIT_HEAD"] = head
    return CommandResult.success(f"Cloning into '{dest_name}'...\ndone.")


# ---------------------------------------------------------------------------
# conda / pip
# ---------------------------------------------------------------------------


def cmd_conda(session, args: List[str]) -> CommandResult:
    if not args:
        return CommandResult.failure("conda: usage: conda <command>")
    sub, rest = args[0], args[1:]
    manager = session.handle.conda()
    if sub == "create":
        name = _flag_value(rest, "-n") or _flag_value(rest, "--name")
        if not name:
            return CommandResult.failure("conda create: missing -n NAME")
        try:
            manager.create(name)
        except ReproError as exc:
            return CommandResult.failure(f"conda create: {exc}")
        return CommandResult.success(f"# environment created: {name}")
    if sub == "activate":
        if not rest:
            return CommandResult.failure("conda activate: missing environment")
        try:
            manager.env(rest[0])
        except ReproError as exc:
            return CommandResult.failure(f"conda activate: {exc}")
        session.env["CONDA_DEFAULT_ENV"] = rest[0]
        return CommandResult.success()
    if sub == "install":
        name = _flag_value(rest, "-n") or session.active_env
        specs = [a for a in rest if not a.startswith("-") and a != name]
        return _install_packages(session, name, specs, tool="conda")
    if sub == "env" and rest[:1] == ["list"]:
        return CommandResult.success("\n".join(manager.environments()))
    return CommandResult.failure(f"conda: unsupported: {' '.join(args)}")


def cmd_pip(session, args: List[str]) -> CommandResult:
    if not args:
        return CommandResult.failure("pip: usage: pip <command>")
    sub, rest = args[0], args[1:]
    if sub == "freeze":
        env = session.handle.conda().env(session.active_env)
        return CommandResult.success("\n".join(env.freeze()))
    if sub != "install":
        return CommandResult.failure(f"pip: unsupported: {sub}")
    specs: List[str] = []
    i = 0
    while i < len(rest):
        if rest[i] in ("-r", "--requirement"):
            if i + 1 >= len(rest):
                return CommandResult.failure("pip install: -r needs a file")
            req_path = session.resolve_path(rest[i + 1])
            try:
                content = session.handle.fs_read(req_path)
            except FileSystemError:
                return CommandResult.failure(
                    f"pip install: cannot open requirements file {rest[i+1]!r}"
                )
            specs.extend(
                line.strip()
                for line in content.splitlines()
                if line.strip() and not line.strip().startswith("#")
            )
            i += 2
            continue
        if rest[i].startswith("-"):
            i += 1
            continue
        specs.append(rest[i])
        i += 1
    return _install_packages(session, session.active_env, specs, tool="pip")


def _parse_spec(spec: str):
    for i, ch in enumerate(spec):
        if ch in "=<>!":
            name = spec[:i]
            constraint = spec[i:]
            if constraint.startswith("=") and not constraint.startswith("=="):
                constraint = "=" + constraint  # conda "pkg=1.2" style
            return name.strip(), constraint.strip()
    return spec.strip(), "*"


def _install_packages(session, env_name: str, specs: List[str], tool: str) -> CommandResult:
    manager = session.handle.conda()
    try:
        env = manager.env(env_name)
    except ReproError as exc:
        return CommandResult.failure(f"{tool} install: {exc}")
    requests = dict(_parse_spec(s) for s in specs if s)
    if not requests:
        return CommandResult.failure(f"{tool} install: nothing to install")
    lines: List[str] = []
    already = {
        name for name in requests
        if name in env.packages
    }
    try:
        downloaded = manager.install(env_name, requests)
    except ReproError as exc:
        return CommandResult.failure(f"{tool} install: {exc}")
    session.handle.io(downloaded)
    for name in sorted(requests):
        pkg = env.packages.get(name)
        if pkg is None:
            continue
        if name in already:
            lines.append(f"Requirement already satisfied: {pkg.spec}")
        else:
            lines.append(f"Successfully installed {pkg.spec}")
    return CommandResult.success("\n".join(lines))


def _flag_value(args: List[str], flag: str):
    for i, arg in enumerate(args):
        if arg == flag and i + 1 < len(args):
            return args[i + 1]
    return None


# ---------------------------------------------------------------------------
# pytest / tox (gated)
# ---------------------------------------------------------------------------


def cmd_pytest(session, args: List[str]) -> CommandResult:
    keyword = _flag_value(args, "-k")
    positional = [
        a for i, a in enumerate(args)
        if not a.startswith("-") and (i == 0 or args[i - 1] != "-k")
    ]
    target_dir = (
        session.resolve_path(positional[0]) if positional else session.cwd
    )
    if not session.handle.fs_isdir(target_dir):
        return CommandResult.failure(f"pytest: no such directory {target_dir}")
    manifest_path = f"{target_dir}/{SUITE_MANIFEST}"
    if not session.handle.fs_exists(manifest_path):
        return CommandResult.failure(
            f"pytest: no tests found ({SUITE_MANIFEST} missing in {target_dir})",
            exit_code=4,
        )
    spec = session.handle.fs_read(manifest_path).strip()
    try:
        suite = load_suite(spec)
    except ShellError as exc:
        return CommandResult.failure(f"pytest: {exc}", exit_code=4)
    ctx = SuiteContext(handle=session.handle, cwd=target_dir, env=session.env)
    report = suite.run(ctx, keyword=keyword)
    report_path = f"{target_dir}/{REPORT_FILENAME}"
    session.handle.fs_write(report_path, report.to_json())
    session.last_report_path = report_path
    output = format_pytest_output(report)
    if report.failed:
        return CommandResult.failure(
            stderr="", exit_code=1, stdout=output
        )
    if not report.results:
        return CommandResult.failure("pytest: no tests ran", exit_code=5)
    return CommandResult.success(output)


def cmd_tox(session, args: List[str]) -> CommandResult:
    """tox: create an isolated env, install deps, run the suite."""
    ini_path = f"{session.cwd}/tox.ini"
    if not session.handle.fs_exists(ini_path):
        return CommandResult.failure("tox: tox.ini not found")
    deps: List[str] = []
    in_deps = False
    for line in session.handle.fs_read(ini_path).splitlines():
        stripped = line.strip()
        if stripped.startswith("deps"):
            in_deps = True
            after = stripped.split("=", 1)[1].strip() if "=" in stripped else ""
            if after:
                deps.append(after)
            continue
        if in_deps:
            if stripped and (line.startswith(" ") or line.startswith("\t")):
                deps.append(stripped)
            else:
                in_deps = False
    manager = session.handle.conda()
    env_name = f"tox-{session.handle.user}"
    if env_name not in manager.environments():
        manager.create(env_name)
    previous = session.active_env
    session.env["CONDA_DEFAULT_ENV"] = env_name
    try:
        if deps:
            result = _install_packages(session, env_name, deps, tool="pip")
            if not result.ok:
                return result
        test_result = cmd_pytest(session, [])
        prefix = f"tox: using environment {env_name}\n"
        return CommandResult(
            exit_code=test_result.exit_code,
            stdout=prefix + test_result.stdout,
            stderr=test_result.stderr,
            duration=test_result.duration,
        )
    finally:
        session.env["CONDA_DEFAULT_ENV"] = previous


# ---------------------------------------------------------------------------
# batch scheduler (sbatch / squeue / scancel)
# ---------------------------------------------------------------------------


def _scheduler_for(session):
    scheduler = session.handle.site.scheduler
    if scheduler is None:
        raise ShellError("this system has no batch scheduler")
    return scheduler


def cmd_sbatch(session, args: List[str]) -> CommandResult:
    """Submit a batch job: ``sbatch [-N n] [-p part] [-t secs] script``.

    The "script" is a simulated-shell command line executed on the
    allocated node when the job starts; its cost is the job's duration
    estimate passed with ``-t`` (required, as sites enforce walltimes).
    """
    from repro.scheduler.jobs import Job

    try:
        scheduler = _scheduler_for(session)
    except ShellError as exc:
        return CommandResult.failure(f"sbatch: {exc}")
    nodes = int(_flag_value(args, "-N") or 1)
    partition = _flag_value(args, "-p")
    walltime = _flag_value(args, "-t")
    script_parts = []
    skip_next = False
    for i, arg in enumerate(args):
        if skip_next:
            skip_next = False
            continue
        if arg in ("-N", "-p", "-t"):
            skip_next = True
            continue
        script_parts.append(arg)
    if not script_parts:
        return CommandResult.failure("sbatch: no script given")
    if partition is None:
        partition = scheduler.default_partition.name
    try:
        duration = float(walltime) if walltime else 60.0
    except ValueError:
        return CommandResult.failure(f"sbatch: bad time limit {walltime!r}")
    job = Job(
        user=session.handle.user,
        partition=partition,
        num_nodes=nodes,
        walltime=duration,
        duration=duration,
        name=script_parts[0],
    )
    try:
        job_id = scheduler.submit(job)
    except ReproError as exc:
        return CommandResult.failure(f"sbatch: {exc}")
    return CommandResult.success(f"Submitted batch job {job_id}")


def cmd_squeue(session, args: List[str]) -> CommandResult:
    try:
        scheduler = _scheduler_for(session)
    except ShellError as exc:
        return CommandResult.failure(f"squeue: {exc}")
    mine_only = "--me" in args
    lines = [f"{'JOBID':<22} {'PARTITION':<10} {'USER':<12} {'ST':<3} NODES"]
    for job in scheduler.queue():
        if mine_only and job.user != session.handle.user:
            continue
        state = {"PENDING": "PD", "RUNNING": "R"}.get(job.state.value, "?")
        lines.append(
            f"{job.job_id:<22} {job.partition:<10} {job.user:<12} "
            f"{state:<3} {job.num_nodes}"
        )
    return CommandResult.success("\n".join(lines))


def cmd_scancel(session, args: List[str]) -> CommandResult:
    try:
        scheduler = _scheduler_for(session)
    except ShellError as exc:
        return CommandResult.failure(f"scancel: {exc}")
    if not args:
        return CommandResult.failure("scancel: missing job id")
    try:
        job = scheduler.job(args[0])
    except ReproError:
        return CommandResult.failure(f"scancel: no job {args[0]}")
    if job.user != session.handle.user:
        return CommandResult.failure(
            f"scancel: job {args[0]} belongs to {job.user}", exit_code=1
        )
    scheduler.cancel(args[0])
    return CommandResult.success()


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def cmd_apptainer(session, args: List[str]) -> CommandResult:
    return _container_cmd(session, args, runtime_name="apptainer")


def cmd_docker(session, args: List[str]) -> CommandResult:
    return _container_cmd(session, args, runtime_name="docker")


def _container_cmd(session, args: List[str], runtime_name: str) -> CommandResult:
    if not args:
        return CommandResult.failure(f"{runtime_name}: usage: {runtime_name} <command>")
    site = session.handle.site
    try:
        runtime = site.runtime(runtime_name)
    except ReproError as exc:
        return CommandResult.failure(f"{runtime_name}: {exc}", exit_code=125)
    sub, rest = args[0], args[1:]
    if sub == "pull":
        if not rest:
            return CommandResult.failure(f"{runtime_name} pull: missing image")
        try:
            session.handle.check_outbound("image pull")
            image = runtime.pull(rest[0])
        except (NetworkBlocked, ImageNotFound) as exc:
            return CommandResult.failure(f"{runtime_name} pull: {exc}")
        session.handle.io(runtime.last_pull_mb())
        return CommandResult.success(f"Pulled {image.reference} ({image.digest[:12]})")
    if sub in ("exec", "run"):
        if not rest:
            return CommandResult.failure(f"{runtime_name} {sub}: missing image")
        reference = rest[0]
        inner = rest[1:]
        try:
            if not runtime._cache.get(reference):
                session.handle.check_outbound("image pull")
            image = runtime.pull(reference)
            session.handle.io(runtime.last_pull_mb())
            container = runtime.start(
                image,
                user=session.handle.user,
                privileged_daemon_allowed=site.allow_privileged_daemon,
            )
        except (NetworkBlocked, ImageNotFound, PrivilegeError) as exc:
            return CommandResult.failure(f"{runtime_name} {sub}: {exc}", exit_code=125)
        previous = session.container
        session.container = container
        try:
            if inner:
                # rejoin with plain spaces so `&&` chains still chain;
                # quoting was already resolved by the outer tokenizer
                return session.run(" ".join(inner))
            return CommandResult.success(f"container {container.container_id} ran")
        finally:
            container.stop()
            session.container = previous
    return CommandResult.failure(f"{runtime_name}: unsupported: {sub}")


CORE_COMMANDS: Dict[str, CommandFn] = {
    "echo": cmd_echo,
    "true": cmd_true,
    "false": cmd_false,
    "pwd": cmd_pwd,
    "cd": cmd_cd,
    "ls": cmd_ls,
    "cat": cmd_cat,
    "mkdir": cmd_mkdir,
    "rm": cmd_rm,
    "hostname": cmd_hostname,
    "whoami": cmd_whoami,
    "env": cmd_env,
    "export": cmd_export,
    "sleep": cmd_sleep,
    "uname": cmd_uname,
    "module": cmd_module,
    "git": cmd_git,
    "conda": cmd_conda,
    "pip": cmd_pip,
    "sbatch": cmd_sbatch,
    "squeue": cmd_squeue,
    "scancel": cmd_scancel,
    "apptainer": cmd_apptainer,
    "singularity": cmd_apptainer,  # alias: renamed project, same tool
    "docker": cmd_docker,
}

GATED_COMMANDS: Dict[str, CommandFn] = {
    "pytest": cmd_pytest,
    "tox": cmd_tox,
}
