"""Unit tests for hardware, filesystem, network, site, and catalog."""

import pytest

from repro.errors import FileSystemError, NetworkBlocked, SiteError
from repro.sites.catalog import make_site
from repro.sites.filesystem import Mount, MountTable, SimFileSystem
from repro.sites.hardware import HardwareProfile
from repro.sites.network import NetworkPolicy
from repro.util.clock import SimClock


class TestHardwareProfile:
    def test_compute_seconds_scaling(self):
        profile = HardwareProfile(cpu_speed=2.0, cores_per_node=8, memory_gb=64)
        assert profile.compute_seconds(10.0) == pytest.approx(5.0)
        assert profile.compute_seconds(10.0, threads=2) == pytest.approx(2.5)

    def test_threads_capped_at_cores(self):
        profile = HardwareProfile(cpu_speed=1.0, cores_per_node=4, memory_gb=64)
        assert profile.compute_seconds(8.0, threads=100) == pytest.approx(2.0)

    def test_io_seconds(self):
        profile = HardwareProfile(
            cpu_speed=1.0, cores_per_node=1, memory_gb=8, io_bandwidth=2.0
        )
        assert profile.io_seconds(200.0) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            HardwareProfile(cpu_speed=0, cores_per_node=1, memory_gb=1)
        profile = HardwareProfile(cpu_speed=1, cores_per_node=1, memory_gb=1)
        with pytest.raises(ValueError):
            profile.compute_seconds(-1.0)
        with pytest.raises(ValueError):
            profile.io_seconds(-1.0)


class TestSimFileSystem:
    def test_write_read(self):
        fs = SimFileSystem()
        fs.write("/a/b/c.txt", "data")
        assert fs.read("/a/b/c.txt") == "data"
        assert fs.isdir("/a/b")

    def test_missing_file_raises(self):
        with pytest.raises(FileSystemError):
            SimFileSystem().read("/nope")

    def test_relative_path_rejected(self):
        with pytest.raises(FileSystemError):
            SimFileSystem().write("relative.txt", "x")

    def test_mkdir_and_empty_dirs(self):
        fs = SimFileSystem()
        fs.mkdir("/empty/dir")
        assert fs.isdir("/empty/dir")
        assert fs.listdir("/empty/dir") == []

    def test_listdir(self):
        fs = SimFileSystem()
        fs.write("/d/a.txt", "1")
        fs.write("/d/sub/b.txt", "2")
        assert fs.listdir("/d") == ["a.txt", "sub"]

    def test_listdir_non_dir_raises(self):
        fs = SimFileSystem()
        fs.write("/f.txt", "x")
        with pytest.raises(FileSystemError):
            fs.listdir("/f.txt")

    def test_write_over_directory_rejected(self):
        fs = SimFileSystem()
        fs.mkdir("/d")
        with pytest.raises(FileSystemError):
            fs.write("/d", "content")

    def test_tree_roundtrip(self):
        fs = SimFileSystem()
        files = {"a.txt": "1", "sub/b.txt": "2"}
        fs.write_tree("/repo", files)
        assert fs.read_tree("/repo") == files

    def test_remove_file_and_recursive(self):
        fs = SimFileSystem()
        fs.write("/d/a.txt", "1")
        fs.write("/d/b/c.txt", "2")
        with pytest.raises(FileSystemError):
            fs.remove("/d")  # not empty, not recursive
        fs.remove("/d", recursive=True)
        assert not fs.exists("/d/a.txt")

    def test_remove_missing_raises(self):
        with pytest.raises(FileSystemError):
            SimFileSystem().remove("/ghost")


class TestMountTable:
    def _table(self):
        home = SimFileSystem("home")
        scratch = SimFileSystem("scratch")
        return (
            MountTable(
                [
                    Mount("/home", home, frozenset({"login"})),
                    Mount("/scratch", scratch, frozenset({"login", "compute"})),
                ]
            ),
            home,
            scratch,
        )

    def test_longest_prefix_resolution(self):
        table, home, scratch = self._table()
        fs, _ = table.resolve("/scratch/user/file", "compute")
        assert fs is scratch

    def test_node_class_visibility(self):
        table, _, _ = self._table()
        table.resolve("/home/u", "login")
        with pytest.raises(FileSystemError):
            table.resolve("/home/u", "compute")

    def test_unmounted_path(self):
        table, _, _ = self._table()
        with pytest.raises(FileSystemError):
            table.resolve("/opt/thing", "login")


class TestNetworkPolicy:
    def test_outbound_enforcement(self):
        policy = NetworkPolicy(outbound_internet=frozenset({"login"}))
        policy.check_outbound("login")
        with pytest.raises(NetworkBlocked):
            policy.check_outbound("compute", purpose="git clone")

    def test_clone_seconds(self):
        policy = NetworkPolicy(latency_to_cloud=0.1, clone_bandwidth_mbps=10.0)
        assert policy.clone_seconds(20.0) == pytest.approx(2.2)
        with pytest.raises(ValueError):
            policy.clone_seconds(-1.0)


class TestSiteAndCatalog:
    def test_site_accounts_and_handles(self):
        site = make_site("chameleon", SimClock())
        site.add_account("cc")
        handle = site.login_handle("cc")
        assert handle.home() == "/home/cc"
        assert handle.fs_isdir("/home/cc")
        with pytest.raises(SiteError):
            site.login_handle("ghost")

    def test_add_account_idempotent(self):
        site = make_site("chameleon", SimClock())
        site.add_account("cc")
        site.add_account("cc")
        assert site.accounts() == ["cc"]

    def test_compute_charges_clock(self):
        clock = SimClock()
        site = make_site("chameleon", clock)
        site.add_account("cc")
        handle = site.login_handle("cc")
        duration = handle.compute(13.5)
        assert clock.now == pytest.approx(duration)
        assert duration == pytest.approx(13.5 / 1.35)

    def test_chameleon_has_no_scheduler_and_allows_docker(self):
        site = make_site("chameleon", SimClock())
        assert not site.has_scheduler
        assert "docker" in site.container_runtimes

    def test_hpc_sites_have_schedulers_no_docker(self):
        for name in ("faster", "expanse", "anvil"):
            site = make_site(name, SimClock(), background_load=False)
            assert site.has_scheduler
            assert "docker" not in site.container_runtimes
            assert "apptainer" in site.container_runtimes

    def test_faster_compute_cannot_reach_internet(self):
        site = make_site("faster", SimClock(), background_load=False)
        assert site.network.allows_outbound("login")
        assert not site.network.allows_outbound("compute")

    def test_anvil_compute_can_reach_internet(self):
        site = make_site("anvil", SimClock(), background_load=False)
        assert site.network.allows_outbound("compute")

    def test_faster_home_is_login_only(self):
        site = make_site("faster", SimClock(), background_load=False)
        site.add_account("x-u")
        login = site.login_handle("x-u")
        assert login.fs_isdir("/home/x-u")
        node = site.scheduler.default_partition.nodes[0]
        compute = site.compute_handle("x-u", node)
        assert not compute.fs_exists("/home/x-u")
        assert compute.fs_isdir("/scratch/x-u")

    def test_speed_ordering_chameleon_fastest(self):
        profiles = {
            "chameleon": make_site("chameleon", SimClock()).profiles["login"],
            "faster": make_site(
                "faster", SimClock(), background_load=False
            ).profiles["compute"],
            "expanse": make_site(
                "expanse", SimClock(), background_load=False
            ).profiles["compute"],
        }
        assert (
            profiles["chameleon"].cpu_speed
            > profiles["faster"].cpu_speed
            > profiles["expanse"].cpu_speed
        )

    def test_background_load_creates_queue_wait(self, run_until_started):
        clock = SimClock()
        site = make_site("faster", clock, background_load=True)
        from repro.scheduler.jobs import Job

        job = Job(user="u", partition="normal", duration=5.0, walltime=60.0)
        site.scheduler.submit(job)
        run_until_started(site.scheduler, job)
        assert (job.queue_wait or 0) > 0

    def test_background_load_replenishes(self):
        clock = SimClock()
        site = make_site("faster", clock, background_load=True)
        clock.advance(2000.0)
        # the machine is still (nearly) saturated long after t=0
        assert site.scheduler.utilization("normal") >= 0.9

    def test_make_site_by_name(self):
        assert make_site("anvil", SimClock(), background_load=False).name == "anvil"
        with pytest.raises(ValueError):
            make_site("frontier", SimClock())

    def test_compute_handle_requires_compute_node(self):
        site = make_site("faster", SimClock(), background_load=False)
        site.add_account("x-u")
        with pytest.raises(SiteError):
            site.compute_handle("x-u", site.login_nodes[0])
