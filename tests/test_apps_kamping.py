"""Unit tests for the KaMPIng stack: simulated MPI, bindings, algorithms,
and the artifact scripts."""

import pytest

from repro.apps.kamping.algorithms import (
    distributed_bfs,
    make_random_graph,
    sample_sort,
    sequential_bfs,
)
from repro.apps.kamping.artifacts import (
    ARTIFACT_COMMANDS,
    KAMPING_IMAGE_REFERENCE,
    kamping_image,
)
from repro.apps.kamping.bindings import (
    KampingBindings,
    NaiveSerializingBindings,
    PlainMPI,
)
from repro.apps.kamping.mpi import SimMPI


class TestSimMPI:
    def test_comm_size_validation(self):
        with pytest.raises(ValueError):
            SimMPI(0)

    def test_bcast(self):
        comm = SimMPI(4)
        assert comm.bcast("data") == ["data"] * 4

    def test_bcast_bad_root(self):
        with pytest.raises(ValueError):
            SimMPI(2).bcast("x", root=5)

    def test_gather_scatter(self):
        comm = SimMPI(3)
        gathered = comm.gather([10, 20, 30], root=1)
        assert gathered[1] == [10, 20, 30]
        assert gathered[0] is None and gathered[2] is None
        assert comm.scatter(["a", "b", "c"]) == ["a", "b", "c"]

    def test_allgather(self):
        comm = SimMPI(3)
        result = comm.allgather([1, 2, 3])
        assert result == [[1, 2, 3]] * 3

    def test_allgatherv_concatenates(self):
        comm = SimMPI(3)
        result = comm.allgatherv([[1], [2, 3], []])
        assert result == [[1, 2, 3]] * 3

    def test_alltoall_transpose(self):
        comm = SimMPI(2)
        sends = [[["0to0"], ["0to1"]], [["1to0"], ["1to1"]]]
        received = comm.alltoall(sends)
        assert received[0] == [["0to0"], ["1to0"]]
        assert received[1] == [["0to1"], ["1to1"]]

    def test_alltoall_shape_validation(self):
        comm = SimMPI(2)
        with pytest.raises(ValueError):
            comm.alltoall([[["x"]], [["y"]]])  # inner lists wrong length

    def test_reduce_and_allreduce(self):
        comm = SimMPI(4)
        reduced = comm.reduce([1, 2, 3, 4], op=lambda a, b: a + b)
        assert reduced[0] == 10 and reduced[1] is None
        assert comm.allreduce([1, 2, 3, 4], op=lambda a, b: a + b) == [10] * 4

    def test_wrong_rank_count_rejected(self):
        with pytest.raises(ValueError):
            SimMPI(3).allgather([1, 2])

    def test_cost_accumulates(self):
        comm = SimMPI(8)
        assert comm.cost.seconds == 0.0
        comm.allgatherv([[i] * 100 for i in range(8)])
        assert comm.cost.seconds > 0
        assert comm.cost.bytes_moved > 0
        assert comm.cost.calls == 1

    def test_larger_payload_costs_more(self):
        small = SimMPI(4)
        big = SimMPI(4)
        small.allgatherv([[0] * 10] * 4)
        big.allgatherv([[0] * 10_000] * 4)
        assert big.cost.seconds > small.cost.seconds


class TestBindings:
    def test_plain_requires_correct_counts(self):
        comm = SimMPI(2)
        plain = PlainMPI(comm)
        data = [[1, 2], [3]]
        with pytest.raises(ValueError):
            plain.allgatherv(data, counts=[2, 2], displacements=[0, 2])
        with pytest.raises(ValueError):
            plain.allgatherv(data, counts=[2, 1], displacements=[0, 1])
        result = plain.allgatherv(data, counts=[2, 1], displacements=[0, 2])
        assert result[0] == [1, 2, 3]

    def test_kamping_computes_counts_itself(self):
        comm = SimMPI(2)
        kamping = KampingBindings(comm)
        assert kamping.allgatherv([[1, 2], [3]])[0] == [1, 2, 3]

    def test_overhead_ordering(self):
        """The KaMPIng headline: plain ~ kamping << naive serializing."""
        n = 5000
        per_rank = [[i] * n for i in range(4)]
        overheads = {}
        for cls in (PlainMPI, KampingBindings, NaiveSerializingBindings):
            comm = SimMPI(4)
            layer = cls(comm)
            if cls is PlainMPI:
                counts = [len(c) for c in per_rank]
                displacements = [0, n, 2 * n, 3 * n]
                layer.allgatherv(per_rank, counts, displacements)
            else:
                layer.allgatherv(per_rank)
            overheads[layer.name] = layer.stats.overhead_seconds
        assert overheads["kamping"] < 5 * overheads["plain-mpi"]
        assert overheads["naive-serializing"] > 50 * overheads["kamping"]

    def test_all_layers_same_results(self):
        per_rank = [[3, 1], [2], [9, 7, 8]]
        reference = None
        for cls in (KampingBindings, NaiveSerializingBindings):
            result = cls(SimMPI(3)).allgatherv(per_rank)[0]
            if reference is None:
                reference = result
            assert result == reference


class TestAlgorithms:
    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_sample_sort_correct(self, ranks):
        import random

        rng = random.Random(ranks)
        per_rank = [
            [rng.randrange(1000) for _ in range(50)] for _ in range(ranks)
        ]
        comm = SimMPI(ranks)
        chunks = sample_sort(comm, KampingBindings(comm), per_rank)
        merged = [v for chunk in chunks for v in chunk]
        assert merged == sorted(v for chunk in per_rank for v in chunk)
        # chunks are globally ordered: max of chunk i <= min of chunk i+1
        for left, right in zip(chunks, chunks[1:]):
            if left and right:
                assert left[-1] <= right[0]

    def test_sample_sort_empty_ranks(self):
        comm = SimMPI(4)
        per_rank = [[5, 1], [], [3], []]
        chunks = sample_sort(comm, KampingBindings(comm), per_rank)
        assert sorted(v for c in chunks for v in c) == [1, 3, 5]

    def test_graph_generator_connected_and_deterministic(self):
        g1 = make_random_graph(100, 4, seed=3)
        g2 = make_random_graph(100, 4, seed=3)
        assert g1 == g2
        distances = sequential_bfs(g1, 0)
        assert len(distances) == 100  # ring chord guarantees connectivity

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            make_random_graph(1, 2)

    @pytest.mark.parametrize("ranks", [1, 3, 8])
    def test_distributed_bfs_matches_sequential(self, ranks):
        graph = make_random_graph(200, 5, seed=11)
        expected = sequential_bfs(graph, 0)
        comm = SimMPI(ranks)
        result = distributed_bfs(comm, KampingBindings(comm), graph, 0)
        assert result == expected


class TestArtifacts:
    def _session(self):
        from repro.envs.stdlib import standard_index
        from repro.shellsim.session import ShellSession
        from repro.sites.catalog import make_site
        from repro.util.clock import SimClock

        site = make_site("chameleon", SimClock(), package_index=standard_index())
        site.add_account("cc")
        return ShellSession(site.login_handle("cc"))

    @pytest.mark.parametrize("name", sorted(ARTIFACT_COMMANDS))
    def test_artifact_passes(self, name):
        session = self._session()
        result = ARTIFACT_COMMANDS[name](session, [])
        assert result.ok, result.combined_output()
        assert "PASS" in result.stdout or "passed" in result.stdout

    def test_image_declares_all_commands(self):
        image = kamping_image()
        assert image.reference == KAMPING_IMAGE_REFERENCE
        assert set(image.commands) == set(ARTIFACT_COMMANDS)

    def test_artifacts_charge_virtual_time(self):
        session = self._session()
        before = session.handle.site.clock.now
        ARTIFACT_COMMANDS["ae-unit-tests"](session, [])
        assert session.handle.site.clock.now > before


class TestSendRecv:
    def test_ring_exchange(self):
        comm = SimMPI(4)
        sends = [((rank + 1) % 4, f"from-{rank}") for rank in range(4)]
        received = comm.sendrecv(sends)
        assert received == [["from-3"], ["from-0"], ["from-1"], ["from-2"]]

    def test_many_to_one(self):
        comm = SimMPI(3)
        received = comm.sendrecv([(0, "a"), (0, "b"), (0, "c")])
        assert received[0] == ["a", "b", "c"]  # ordered by source rank
        assert received[1] == [] and received[2] == []

    def test_bad_destination(self):
        comm = SimMPI(2)
        with pytest.raises(ValueError):
            comm.sendrecv([(5, "x"), (0, "y")])

    def test_charges_cost(self):
        comm = SimMPI(2)
        comm.sendrecv([(1, [0] * 100), (0, [1] * 100)])
        assert comm.cost.bytes_moved > 0
