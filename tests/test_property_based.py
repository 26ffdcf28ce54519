"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kamping.bindings import KampingBindings
from repro.apps.kamping.mpi import SimMPI
from repro.core.workflow_builder import render_yaml
from repro.envs.packages import Version, VersionSpec
from repro.sites.filesystem import SimFileSystem
from repro.util import yamlite
from repro.util.clock import SimClock
from repro.util.serialization import deserialize, serialize
from repro.vcs.objects import ObjectStore

# -- strategies -------------------------------------------------------------

_plain_key = st.text(
    alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=12
)

_scalar = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.booleans(),
    st.none(),
    st.text(
        alphabet=string.ascii_letters + string.digits + " _./:${}#'@-",
        max_size=30,
    ),
)

_yaml_data = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_plain_key, children, max_size=4),
    ),
    max_leaves=12,
)

_json_data = st.recursive(
    st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.booleans(),
        st.none(),
        st.text(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)


class TestYamlRoundtrip:
    @given(data=st.dictionaries(_plain_key, _yaml_data, min_size=1, max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_render_then_parse_is_identity(self, data):
        rendered = render_yaml(data)
        assert yamlite.loads(rendered) == data


class TestSerializationRoundtrip:
    @given(value=_json_data)
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, value):
        assert deserialize(serialize(value)) == value

    @given(value=st.binary(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_bytes_roundtrip(self, value):
        assert deserialize(serialize(value)) == value


class TestVersionProperties:
    versions = st.lists(
        st.integers(min_value=0, max_value=99), min_size=1, max_size=4
    ).map(lambda parts: Version(tuple(parts)))

    @given(a=versions, b=versions)
    @settings(max_examples=100, deadline=None)
    def test_total_order_consistent(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1

    @given(v=versions)
    @settings(max_examples=50, deadline=None)
    def test_parse_str_roundtrip(self, v):
        assert Version.parse(str(v)) == v

    @given(v=versions)
    @settings(max_examples=50, deadline=None)
    def test_exact_spec_matches_self(self, v):
        assert VersionSpec(f"=={v}").matches(v)
        assert VersionSpec(f">={v}").matches(v)
        assert not VersionSpec(f">{v}").matches(v)


class TestClockProperties:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_events_fire_in_time_order(self, times):
        clock = SimClock()
        fired = []
        for t in times:
            clock.call_at(t, lambda t=t: fired.append(t))
        clock.run_until_idle()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        deltas=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_monotonicity(self, deltas):
        clock = SimClock()
        last = clock.now
        for delta in deltas:
            clock.advance(delta)
            assert clock.now >= last
            last = clock.now


class TestObjectStoreProperties:
    files = st.dictionaries(
        st.lists(_plain_key, min_size=1, max_size=3).map("/".join),
        st.text(max_size=40),
        min_size=1,
        max_size=8,
    )

    @given(files=files)
    @settings(max_examples=80, deadline=None)
    def test_tree_roundtrip(self, files):
        store = ObjectStore()
        try:
            tree = store.tree_from_files(files)
        except ValueError:
            return  # path conflicts (a both file and dir) are rejected
        assert store.files_from_tree(tree) == files

    @given(files=files)
    @settings(max_examples=50, deadline=None)
    def test_content_addressing_stable(self, files):
        a, b = ObjectStore(), ObjectStore()
        try:
            ta = a.tree_from_files(files)
        except ValueError:
            return
        tb = b.tree_from_files(dict(reversed(list(files.items()))))
        assert ta == tb


class TestFileSystemProperties:
    @given(
        paths=st.lists(
            st.lists(_plain_key, min_size=1, max_size=3).map(
                lambda parts: "/" + "/".join(parts)
            ),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        content=st.text(max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_written_files_readable(self, paths, content):
        fs = SimFileSystem()
        written = []
        for path in paths:
            try:
                fs.write(path, content)
                written.append(path)
            except Exception:
                continue  # a parent may already be a file
        for path in written:
            if path in fs._files:
                assert fs.read(path) == content
                assert fs.exists(path)


class TestSampleSortProperties:
    @given(
        data=st.lists(
            st.lists(st.integers(min_value=-1000, max_value=1000), max_size=30),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_sort_sorts(self, data):
        comm = SimMPI(len(data))
        chunks = __import__(
            "repro.apps.kamping.algorithms", fromlist=["sample_sort"]
        ).sample_sort(comm, KampingBindings(comm), data)
        merged = [v for chunk in chunks for v in chunk]
        assert merged == sorted(v for chunk in data for v in chunk)


class TestSchedulerProperties:
    job_specs = st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),  # nodes
            st.floats(min_value=1.0, max_value=200.0, allow_nan=False),  # duration
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),  # gap
        ),
        min_size=1,
        max_size=15,
    )

    @given(specs=job_specs)
    @settings(max_examples=60, deadline=None)
    def test_never_oversubscribed_and_all_jobs_finish(self, specs):
        from repro.scheduler.jobs import Job
        from repro.scheduler.nodes import Partition, make_nodes
        from repro.scheduler.slurm import SlurmScheduler

        clock = SimClock()
        partition = Partition(
            name="p", nodes=make_nodes("n", 4, 8, 64),
            max_walltime=10_000.0, default_walltime=500.0,
        )
        scheduler = SlurmScheduler(clock, [partition])
        jobs = []
        violations = []

        def check(_event):
            busy = len(scheduler._busy_nodes["p"])
            if busy > 4:
                violations.append(busy)

        scheduler.events.subscribe(check)
        for nodes, duration, gap in specs:
            clock.advance(gap)
            job = Job(
                user="u", partition="p", num_nodes=nodes,
                duration=duration, walltime=max(duration, 1.0),
            )
            scheduler.submit(job)
            jobs.append(job)
        clock.run_until_idle()
        assert violations == []
        assert all(j.state.is_terminal for j in jobs)
        # FCFS sanity: start order never inverts submit order for jobs
        # with identical shape (backfill may reorder different sizes or
        # walltimes, but never two indistinguishable requests)
        for a, b in zip(jobs, jobs[1:]):
            if (
                a.num_nodes == b.num_nodes
                and a.walltime == b.walltime
                and a.start_time is not None
                and b.start_time is not None
            ):
                assert a.start_time <= b.start_time + 1e-9


_event_entries = st.lists(
    st.tuples(
        st.sampled_from(["faas", "slurm", "actions"]),
        st.sampled_from(["a.one", "b.two", "c.three", "d.four"]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    max_size=60,
)


class TestEventLogQueryProperties:
    """The indexed query paths must agree exactly with a naive scan."""

    @given(
        entries=_event_entries,
        source=st.sampled_from([None, "faas", "slurm", "actions", "absent"]),
        kind=st.sampled_from([None, "a.one", "b.two", "absent.kind"]),
        window=st.tuples(
            st.floats(min_value=-1.0, max_value=101.0, allow_nan=False),
            st.floats(min_value=-1.0, max_value=101.0, allow_nan=False),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_query_matches_naive_filter(self, entries, source, kind, window):
        from repro.util.events import EventLog

        log = EventLog()
        for src, knd, time in entries:
            log.emit(time, src, knd, n=len(log))
        since, until = min(window), max(window)

        naive = [
            e for e in log
            if (source is None or e.source == source)
            and (kind is None or e.kind == kind)
            and since <= e.time <= until
        ]
        assert log.query(source, kind, since=since, until=until) == naive
        # no time window: pure index walk
        naive_all = [
            e for e in log
            if (source is None or e.source == source)
            and (kind is None or e.kind == kind)
        ]
        assert log.query(source, kind) == naive_all

    @given(entries=_event_entries)
    @settings(max_examples=60, deadline=None)
    def test_last_matches_naive_scan(self, entries):
        from repro.util.events import EventLog

        log = EventLog()
        for src, knd, time in entries:
            log.emit(time, src, knd)
        kinds = {e.kind for e in log} | {"never.emitted"}
        for kind in kinds:
            naive = None
            for event in log:
                if event.kind == kind:
                    naive = event
            assert log.last(kind) is naive


class TestExpressionProperties:
    @given(
        value=st.text(
            alphabet=string.ascii_letters + string.digits + " _-", max_size=20
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_secret_interpolation(self, value):
        from repro.actions.expressions import interpolate

        context = {"secrets": {"X": value}}
        assert interpolate("${{ secrets.X }}", context) == value
