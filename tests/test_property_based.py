"""Property-based tests (hypothesis) on core data structures and invariants."""

import string
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.kamping.bindings import KampingBindings
from repro.apps.kamping.mpi import SimMPI
from repro.core.workflow_builder import render_yaml
from repro.envs.packages import Version, VersionSpec
from repro.faas.hedging import StragglerDetector
from repro.faas.placement import EndpointPool, Router
from repro.sites.filesystem import SimFileSystem
from repro.telemetry.health import TREND_PENALTY, HealthScorer
from repro.telemetry.metrics import percentile
from repro.telemetry.timeseries import TimeSeriesStore
from repro.util import yamlite
from repro.util.clock import _COMPACT_MIN, SimClock
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


_delay = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 10.0]),
    st.floats(min_value=0.0, max_value=60.0),
)

# bulk schedules (count, first delay, spacing: delays cycle through
# five steps, so times tie) and strided bulk cancels (start, count,
# stride), so cancelled entries pile up past the compaction threshold
# mid-sequence, and runs that fire part of what is left
_clock_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("call_at"),
            st.tuples(
                st.sampled_from([1, 3, 40, 130]),
                _delay,
                st.sampled_from([0.0, 0.5, 1.0, 7.25]),
            ),
        ),
        st.tuples(
            st.just("cancel"),
            st.tuples(
                st.integers(min_value=0, max_value=600),
                st.sampled_from([1, 5, 70, 200]),
                st.integers(min_value=1, max_value=3),
            ),
        ),
        st.tuples(st.just("run_until"), _delay),
    ),
    max_size=25,
)


class TestClockCompactionProperties:
    """Lazy deletion and heap compaction are invisible: the clock reads
    and fires exactly what a plain table of live entries does."""

    @given(ops=_clock_ops)
    @example(
        # compacts at the 66th cancel, then fires, schedules and cancels
        # over the compacted heap
        ops=[
            ("call_at", (130, 1.0, 0.5)), ("cancel", (0, 70, 1)),
            ("run_until", 2.0), ("call_at", (40, 0.0, 1.0)),
            ("cancel", (60, 200, 1)), ("run_until", 10.0),
        ],
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_model(self, ops):
        clock = SimClock()
        compactions = []
        compact = clock._compact

        def counting_compact():
            compactions.append(clock.now)
            compact()

        clock._compact = counting_compact
        handles = []
        live = {}  # schedule index -> time, neither fired nor cancelled
        fired = []

        def schedule(delay):
            index = len(handles)
            when = clock.now + delay
            handles.append(
                clock.call_at(when, lambda index=index: fired.append(index))
            )
            live[index] = when

        def cancel(index):
            handles[index].cancel()  # fired or cancelled: a no-op
            live.pop(index, None)

        def run_until(target):
            before = clock.now
            due = sorted(
                (when, index) for index, when in live.items()
                if when <= target + 1e-12
            )
            fired.clear()
            clock.run_until(target)
            assert fired == [index for _, index in due]
            for _, index in due:
                del live[index]
            # an event within the 1e-12 tolerance past target sets the time
            assert clock.now == max([before, target] + [w for w, _ in due])

        def check():
            assert clock.pending_events() == len(live)
            expected = min(live.values()) if live else None
            assert clock.next_event_time() == expected

        for op, arg in ops:
            if op == "call_at":
                count, first, spacing = arg
                for i in range(count):
                    schedule(first + (i % 5) * spacing)
            elif op == "cancel" and handles:
                start, count, stride = arg
                for i in range(count):
                    cancel((start + i * stride) % len(handles))
            elif op == "run_until":
                run_until(clock.now + arg)
            check()
        # retire the rest: with more than _COMPACT_MIN entries live,
        # cancelling every one of them must compact at least once
        while len(live) <= _COMPACT_MIN:
            schedule(5.0)
        check()
        for index in list(live):
            cancel(index)
        check()
        assert compactions
        run_until(clock.now + 100.0)
        assert fired == []
        check()


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
    """The query paths must agree exactly with a naive scan."""

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
        # no time window
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


class TestLeastLoadedProperties:
    """Scoring only the tied members picks what scoring all of them did."""

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.one_of(
                    st.sampled_from([0.0, 0.5, 1.0]),
                    st.floats(min_value=0.0, max_value=1.0),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        with_health=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_pick_matches_min_over_all_members(self, rows, with_health):
        members = [f"e{i}" for i in range(len(rows))]
        depth = {eid: d for eid, (d, _) in zip(members, rows)}
        health = {eid: h for eid, (_, h) in zip(members, rows)}
        scored = []

        def health_of(eid):
            scored.append(eid)
            return health[eid]

        router = Router(
            queue_depth=depth.__getitem__,
            admissible=lambda eid: True,
            weight_of=lambda eid: 1.0,
            policy="least-loaded",
            health_of=health_of if with_health else None,
        )
        pool = EndpointPool(name="p")
        for eid in members:
            pool.add(eid)
        router.register_pool(pool)
        chosen = router.resolve("p").endpoint_id
        if not with_health:
            assert chosen == min(members, key=lambda e: (depth[e],))
            return
        assert chosen == min(members, key=lambda e: (depth[e], -health[e]))
        # exactly the members at the lowest depth are scored, once each,
        # and always at least one (a score prunes the detector windows)
        lowest = min(depth.values())
        assert scored == [eid for eid in members if depth[eid] == lowest]


class _NaiveDetector:
    """The straggler detector as plain deques re-sorted on every read."""

    def __init__(self, window, flag_ratio, min_samples):
        self.window = window
        self.flag_ratio = flag_ratio
        self.min_samples = min_samples
        self.samples = {}

    def _prune(self, bucket, now):
        floor = now - self.window
        while bucket and bucket[0][0] < floor:
            bucket.popleft()

    def record(self, endpoint_id, elapsed, now):
        bucket = self.samples.setdefault(endpoint_id, deque())
        bucket.append((now, elapsed))
        self._prune(bucket, now)

    def p95(self, endpoint_id, now):
        bucket = self.samples.get(endpoint_id)
        if bucket is None:
            return None
        self._prune(bucket, now)
        if len(bucket) < self.min_samples:
            return None
        return percentile([elapsed for _, elapsed in bucket], 95.0)

    def pool_median(self, now):
        values = sorted(
            p95 for p95 in (self.p95(eid, now) for eid in self.samples)
            if p95 is not None
        )
        if not values:
            return None
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return (values[mid - 1] + values[mid]) / 2.0

    def gray_score(self, endpoint_id, now):
        own = self.p95(endpoint_id, now)
        median = self.pool_median(now)
        ratio = (
            1.0 if own is None or median is None or median <= 0
            else own / median
        )
        score = (ratio - 1.0) / (self.flag_ratio - 1.0)
        return min(1.0, max(0.0, score))


# (operation, endpoint, elapsed, clock step): a negative step reads or
# records at an earlier time than the operation before it (a rewound
# measured region), and a 250 s step empties a 100 s window
_detector_ops = st.lists(
    st.tuples(
        st.sampled_from(["record", "record", "p95", "pool_median", "gray_score"]),
        st.sampled_from(["a", "b", "c"]),
        st.one_of(
            st.sampled_from([1.0, 2.0, 10.0, 40.0]),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        st.one_of(st.integers(min_value=-40, max_value=60), st.just(250)),
    ),
    max_size=80,
)


class TestStragglerDetectorProperties:
    """Sorted windows read exactly what a re-sorted deque reads."""

    @given(ops=_detector_ops, min_samples=st.integers(min_value=1, max_value=4))
    @example(
        ops=[
            ("record", "a", 2.0, 0), ("record", "a", 2.0, 1),
            ("record", "b", 40.0, 1), ("record", "a", 1.0, 1),
            ("p95", "a", 0.0, -2), ("record", "a", 2.0, -1),
            ("gray_score", "b", 0.0, 5), ("p95", "a", 0.0, 250),
            ("pool_median", "a", 0.0, 0), ("record", "b", 10.0, -30),
            ("gray_score", "a", 0.0, -40),
        ],
        min_samples=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_reads_match_naive_model(self, ops, min_samples):
        detector = StragglerDetector(
            window=100.0, flag_ratio=2.0, min_samples=min_samples
        )
        naive = _NaiveDetector(100.0, 2.0, min_samples)
        now = 0.0
        for op, endpoint_id, elapsed, step in ops:
            now += step
            if op == "record":
                detector.record(endpoint_id, elapsed, now)
                naive.record(endpoint_id, elapsed, now)
            elif op == "pool_median":
                assert detector.pool_median(now) == naive.pool_median(now)
            else:
                read = getattr(detector, op)(endpoint_id, now)
                assert read == getattr(naive, op)(endpoint_id, now)
        for endpoint_id in ("a", "b", "c"):
            assert detector.p95(endpoint_id, now) == naive.p95(endpoint_id, now)


# (operation, endpoint, value, clock step) over 10 s buckets and a 30 s
# scoring window: steps cross bucket boundaries, go backwards (a rewound
# measured region) and jump past every window
_score_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "ok", "err", "depth.set", "depth.dec", "breaker", "record",
            "score", "score", "score",
        ]),
        st.sampled_from(["a", "b", "c"]),
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0, 40.0]),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        st.one_of(
            st.integers(min_value=-25, max_value=25),
            st.floats(min_value=-12.0, max_value=12.0),
            st.just(100),
        ),
    ),
    max_size=80,
)


class TestHealthScoreCacheProperties:
    """A cached score equals one computed from scratch, bit for bit."""

    @given(ops=_score_ops, min_samples=st.integers(min_value=1, max_value=3))
    @example(
        ops=[
            ("depth.set", "a", 1.0, 5), ("depth.set", "a", 3.0, 10),
            ("score", "a", 0.0, 1), ("depth.dec", "a", 2.0, 1),
            ("score", "a", 0.0, 1), ("ok", "a", 1.0, -14),
            ("score", "a", 0.0, 0), ("err", "b", 1.0, 3),
            ("score", "b", 0.0, 0), ("score", "a", 0.0, 40),
            ("score", "b", 0.0, 0),
        ],
        min_samples=1,
    )
    @example(
        ops=[
            ("record", "a", 40.0, 0), ("record", "b", 10.0, 1),
            ("record", "c", 10.0, 1), ("score", "a", 0.0, 1),
            ("score", "a", 0.0, 100), ("record", "b", 2.0, -25),
            ("score", "b", 0.0, -3), ("breaker", "b", 0.5, 0),
            ("score", "b", 0.0, 0),
        ],
        min_samples=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_scores_match_a_fresh_computation(self, ops, min_samples):
        store = TimeSeriesStore(window=10.0)
        scorer = HealthScorer(store, window=30.0)
        detector = StragglerDetector(
            window=40.0, flag_ratio=2.0, min_samples=min_samples
        )
        scorer.gray_of = detector.gray_score
        naive = _NaiveDetector(40.0, 2.0, min_samples)
        now = 50.0
        for op, endpoint, value, step in ops:
            now += step
            if op == "ok" or op == "err":
                store.counter(f"faas.tasks.{op}", endpoint=endpoint).inc(
                    now, value
                )
            elif op == "depth.set":
                store.gauge("faas.queue.depth", endpoint=endpoint).set(
                    now, value
                )
            elif op == "depth.dec":
                store.gauge("faas.queue.depth", endpoint=endpoint).dec(
                    now, value
                )
            elif op == "breaker":
                level = (0.0, 0.5, 1.0)[int(value) % 3]
                store.gauge("faas.breaker.state", endpoint=endpoint).set(
                    now, level
                )
            elif op == "record":
                detector.record(endpoint, value, now)
                naive.record(endpoint, value, now)
            else:
                fresh = HealthScorer(store, window=30.0)
                expected = fresh.success_rate(endpoint, now)
                expected *= 1.0 - fresh.breaker_level(endpoint, now)
                if fresh.queue_trend(endpoint, now) > 0:
                    expected -= TREND_PENALTY
                gray = naive.gray_score(endpoint, now)
                expected *= 1.0 - min(1.0, max(0.0, gray))
                expected = min(1.0, max(0.0, expected))
                assert scorer.score(endpoint, now) == expected
