"""Unit tests for container images, registries, and runtimes."""

import pytest

from repro.containers.image import ContainerImage, ImageRecipe
from repro.containers.registry import ContainerRegistry
from repro.containers.runtime import ApptainerRuntime, DockerRuntime
from repro.errors import ImageNotFound, PrivilegeError


def _image(reference="reg.io/app:v1"):
    return ContainerImage(
        reference=reference,
        files=(("/opt/app/run.sh", "#!/bin/sh\n"),),
        commands=("app-test",),
        env=(("APP_MODE", "ci"),),
        size_mb=120.0,
    )


class TestImage:
    def test_digest_deterministic(self):
        assert _image().digest == _image().digest

    def test_digest_depends_on_content(self):
        other = ContainerImage(reference="reg.io/app:v1", commands=("other",))
        assert _image().digest != other.digest

    def test_recipe_build_deterministic(self):
        recipe = ImageRecipe(name="app", base="ubuntu", commands=("t",))
        assert recipe.build("r:1").digest == recipe.build("r:1").digest

    def test_maps(self):
        image = _image()
        assert image.file_map == {"/opt/app/run.sh": "#!/bin/sh\n"}
        assert image.env_map == {"APP_MODE": "ci"}


class TestRegistry:
    def test_push_pull(self):
        registry = ContainerRegistry()
        registry.push(_image())
        assert registry.pull("reg.io/app:v1").commands == ("app-test",)
        assert registry.references() == ["reg.io/app:v1"]

    def test_missing_image(self):
        with pytest.raises(ImageNotFound):
            ContainerRegistry().pull("ghost:latest")


class TestRuntimes:
    def test_pull_uses_cache(self):
        registry = ContainerRegistry()
        registry.push(_image())
        runtime = ApptainerRuntime([registry])
        runtime.pull("reg.io/app:v1")
        assert runtime.last_pull_mb() == 120.0
        runtime.pull("reg.io/app:v1")
        assert runtime.last_pull_mb() == 0.0  # cached

    def test_pull_unknown_fails(self):
        with pytest.raises(ImageNotFound):
            ApptainerRuntime([]).pull("ghost")

    def test_docker_needs_privileged_daemon(self):
        docker = DockerRuntime([])
        with pytest.raises(PrivilegeError):
            docker.start(_image(), user="u", privileged_daemon_allowed=False)
        container = docker.start(
            _image(), user="u", privileged_daemon_allowed=True
        )
        assert container.running

    def test_apptainer_runs_unprivileged(self):
        apptainer = ApptainerRuntime([])
        container = apptainer.start(
            _image(), user="u", privileged_daemon_allowed=False
        )
        assert container.running
        assert container.has_command("app-test")
        container.stop()
        assert not container.running

    def test_container_env_merging(self):
        apptainer = ApptainerRuntime([])
        container = apptainer.start(
            _image(), user="u", env={"EXTRA": "1"}
        )
        assert container.env == {"APP_MODE": "ci", "EXTRA": "1"}

    def test_docker_to_sif_conversion(self):
        apptainer = ApptainerRuntime([])
        sif = apptainer.convert_from_docker(_image())
        assert sif.reference.endswith(".sif")
        assert sif.commands == _image().commands

    def test_running_list(self):
        apptainer = ApptainerRuntime([])
        c1 = apptainer.start(_image(), user="u")
        c2 = apptainer.start(_image(), user="u")
        c1.stop()
        assert apptainer.running() == [c2]


class TestContainerShellIntegration:
    def _site_session(self, site_name, user):
        from repro.envs.stdlib import standard_index
        from repro.shellsim.session import ShellServices, ShellSession
        from repro.sites.catalog import make_site
        from repro.util.clock import SimClock

        registry = ContainerRegistry()
        registry.push(_image())
        site = make_site(
            site_name,
            SimClock(),
            package_index=standard_index(),
            container_registries=[registry],
            background_load=False,
        )
        site.add_account(user)
        services = ShellServices(
            image_commands={
                "app-test": lambda session, args: __import__(
                    "repro.shellsim.result", fromlist=["CommandResult"]
                ).CommandResult.success("app ok")
            }
        )
        return ShellSession(site.login_handle(user), services=services)

    def test_apptainer_exec_dispatches_image_command(self):
        session = self._site_session("faster", "x-u")
        result = session.run("apptainer exec reg.io/app:v1 app-test")
        assert result.ok and result.stdout == "app ok"

    def test_docker_refused_on_hpc_site(self):
        session = self._site_session("faster", "x-u")
        result = session.run("docker run reg.io/app:v1 app-test")
        assert result.exit_code == 125

    def test_docker_allowed_on_chameleon(self):
        session = self._site_session("chameleon", "cc")
        result = session.run("docker run reg.io/app:v1 app-test")
        assert result.ok and result.stdout == "app ok"

    def test_container_context_restored_after_exec(self):
        session = self._site_session("chameleon", "cc")
        session.run("docker run reg.io/app:v1 app-test")
        assert session.container is None
        # outside the container the baked command is gone
        assert session.run("app-test").exit_code == 127
