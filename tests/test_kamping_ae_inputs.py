"""The KaMPIng artifact evaluation's input data, built once per process.

``repro.apps.kamping.artifacts`` builds each ``ae-*`` benchmark's input
data set on first use and keeps it for the process. These tests hold the
data to what the per-run code built, show that calls in a row print the
same bytes, and show that the shared data cannot hide a broken kernel: a
kernel that drops one element on rank 3 fails the call made after a
passing one.
"""

import random
from types import SimpleNamespace

import pytest

from repro.apps.kamping import artifacts
from repro.apps.kamping.algorithms import distributed_bfs, make_random_graph
from repro.apps.kamping.artifacts import ARTIFACT_COMMANDS
from repro.apps.kamping.mpi import SimMPI

RANKS = 8
ELEMENTS_PER_RANK = 2000


def _call(name: str):
    """One command on a session whose compute charge does nothing."""
    session = SimpleNamespace(handle=SimpleNamespace(compute=lambda *a, **k: None))
    result = ARTIFACT_COMMANDS[name](session, [])
    return result.exit_code, result.stdout, result.stderr


def _assert_tuples_of_ints(data) -> None:
    assert type(data) is tuple
    for item in data:
        assert type(item) is tuple
        assert all(type(value) is int for value in item)


def _assert_equal_values_share_objects(data) -> None:
    values = [value for item in data for value in item]
    assert len({id(value) for value in values}) == len(set(values))


class TestBuiltOnceData:
    def test_sort_keys_are_the_per_run_keys(self):
        rng = random.Random(42)
        per_run = [
            [rng.randrange(10**6) for _ in range(ELEMENTS_PER_RANK)]
            for _ in range(RANKS)
        ]
        keys = artifacts._sort_inputs()
        _assert_tuples_of_ints(keys)
        assert [list(rank) for rank in keys] == per_run

    def test_graph_is_the_per_run_graph(self):
        per_run = make_random_graph(1200, 6, seed=7)
        graph = artifacts._bfs_graph()
        _assert_tuples_of_ints(graph)
        assert {node: list(ns) for node, ns in enumerate(graph)} == per_run
        _assert_equal_values_share_objects(graph)

    def test_gather_ranges_are_the_per_run_ranges(self):
        per_run = [
            list(range(rank, rank + ELEMENTS_PER_RANK)) for rank in range(RANKS)
        ]
        ranges = artifacts._gather_inputs()
        _assert_tuples_of_ints(ranges)
        assert [list(rank) for rank in ranges] == per_run
        _assert_equal_values_share_objects(ranges)

    def test_each_data_set_is_built_once(self):
        for build in (
            artifacts._sort_inputs, artifacts._bfs_graph, artifacts._gather_inputs
        ):
            assert build() is build()


@pytest.mark.parametrize("name", sorted(ARTIFACT_COMMANDS))
def test_calls_in_a_row_print_the_same(name):
    first = _call(name)
    assert first[0] == 0
    assert _call(name) == first
    assert _call(name) == first


class TestBrokenKernelFails:
    """Each patch drops one element on rank 3 after a passing call."""

    def _fails(self, name: str) -> str:
        exit_code, stdout, stderr = _call(name)
        assert exit_code == 1
        assert "PASS" not in stdout + stderr
        assert "[AE] verdict: FAIL" in stderr
        return stderr

    def test_sample_sort(self, monkeypatch):
        assert _call("ae-sort-bench")[0] == 0
        sample_sort = artifacts.sample_sort

        def broken(comm, bindings, per_rank):
            chunks = sample_sort(comm, bindings, per_rank)
            chunks[3].pop()
            return chunks

        monkeypatch.setattr(artifacts, "sample_sort", broken)
        assert "INCORRECT SORT" in self._fails("ae-sort-bench")

    def test_distributed_bfs(self, monkeypatch):
        assert _call("ae-bfs-bench")[0] == 0

        def broken(comm, bindings, graph, source=0):
            distances = distributed_bfs(comm, bindings, graph, source)
            del distances[max(node for node in distances if node % RANKS == 3)]
            return distances

        monkeypatch.setattr(artifacts, "distributed_bfs", broken)
        self._fails("ae-bfs-bench")

    @staticmethod
    def _break_allgatherv(monkeypatch) -> None:
        allgatherv = SimMPI.allgatherv

        def broken(comm, per_rank):
            buffers = allgatherv(comm, per_rank)
            buffers[3].pop()
            return buffers

        monkeypatch.setattr(SimMPI, "allgatherv", broken)

    def test_allgatherv(self, monkeypatch):
        assert _call("ae-allgatherv-bench")[0] == 0
        self._break_allgatherv(monkeypatch)
        stderr = self._fails("ae-allgatherv-bench")
        for layer in ("plain-mpi", "kamping", "naive-serializing"):
            assert f"[AE] {layer}: INCORRECT GATHER on ranks [3]" in stderr

    def test_unit_tests_allgatherv(self, monkeypatch):
        assert _call("ae-unit-tests")[0] == 0
        self._break_allgatherv(monkeypatch)
        stderr = self._fails("ae-unit-tests")
        assert "[AE] allgatherv: INCORRECT RESULT" in stderr
        assert "2 of 3 collective checks passed" in stderr
