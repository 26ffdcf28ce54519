"""The observability plane: SLO engine, health scoring, determinism."""

import json

import pytest

from repro.faas.placement import EndpointPool, Router
from repro.telemetry import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    AlertRule,
    HealthScorer,
    Objective,
    SLOEngine,
    TimeSeriesStore,
    default_slo_pack,
    validate_openmetrics,
)
from repro.telemetry.export import validate_chrome_trace
from repro.util.events import EventLog


def _ratio_rule(threshold=0.1, fast=120.0, slow=240.0):
    objective = Objective(
        name="errors", kind="ratio", threshold=threshold,
        numerator="err", denominator="all",
    )
    return AlertRule(
        name="error-burn", objective=objective,
        fast_window=fast, slow_window=slow,
    )


class TestObjective:
    def test_ratio_measures_bad_over_total(self):
        store = TimeSeriesStore(window=60.0)
        store.counter("all").inc(10.0, 10.0)
        store.counter("err").inc(10.0, 2.0)
        objective = _ratio_rule().objective
        assert objective.measure(store, 60.0, 60.0) == pytest.approx(0.2)
        assert objective.burn(store, 60.0, 60.0) == pytest.approx(2.0)

    def test_silence_is_none_not_zero(self):
        store = TimeSeriesStore(window=60.0)
        objective = _ratio_rule().objective
        assert objective.measure(store, 60.0, 60.0) is None
        store.counter("all")  # exists but empty window
        assert objective.measure(store, 600.0, 60.0) is None

    def test_latency_measures_windowed_percentile(self):
        store = TimeSeriesStore(window=60.0)
        store.quantile("wait").observe(10.0, 2.0)
        objective = Objective(
            name="p95", kind="latency", threshold=1.0, series="wait",
        )
        # bound estimate (2.5) clamped to the window's true max (2.0)
        assert objective.measure(store, 60.0, 60.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Objective(name="x", kind="nope", threshold=1.0)
        with pytest.raises(ValueError):
            Objective(name="x", kind="latency", threshold=1.0)
        with pytest.raises(ValueError):
            Objective(
                name="x", kind="ratio", threshold=1.0, numerator="only",
            )
        for threshold in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                Objective(
                    name="x", kind="latency", threshold=threshold,
                    series="wait",
                )
        with pytest.raises(ValueError, match="at most 1"):
            Objective(
                name="x", kind="ratio", threshold=1.5,
                numerator="err", denominator="all",
            )
        # an error rate of exactly 1 and a latency above 1 are legal
        Objective(
            name="x", kind="ratio", threshold=1.0,
            numerator="err", denominator="all",
        )
        Objective(name="x", kind="latency", threshold=5400.0, series="wait")


class TestSLOEngine:
    def _engine(self, rule):
        store = TimeSeriesStore(window=60.0)
        events = EventLog()
        engine = SLOEngine(store=store, events=events, rules=[rule]).install()
        return store, events, engine

    def test_fires_only_when_both_windows_breach(self):
        store, events, engine = self._engine(
            _ratio_rule(threshold=0.1, fast=60.0, slow=240.0)
        )
        store.counter("all").inc(30.0, 100.0)  # clean first bucket
        store.advance_to(30.0)
        store.counter("all").inc(70.0, 10.0)
        store.counter("err").inc(70.0, 10.0)
        store.advance_to(120.0)
        # fast window [60,120) is 100% errors, but the slow window still
        # holds the clean bucket (10/110 < 0.1) — nothing fires yet
        assert engine.alerts_fired == 0
        store.counter("all").inc(130.0, 10.0)
        store.counter("err").inc(130.0, 10.0)
        store.advance_to(180.0)
        # now both windows breach (slow: 20/120 >= 0.1)
        assert engine.alerts_fired == 1
        assert engine.states["error-burn"].firing

    def test_resolves_when_either_window_recovers(self):
        store, events, engine = self._engine(
            _ratio_rule(threshold=0.1, fast=60.0, slow=240.0)
        )
        store.counter("all").inc(10.0, 10.0)
        store.counter("err").inc(10.0, 10.0)
        store.advance_to(10.0)
        store.advance_to(60.0)
        assert engine.firing == ["error-burn"]
        # clean traffic pushes the fast window's error rate to zero
        store.counter("all").inc(70.0, 100.0)
        store.advance_to(120.0)
        assert engine.firing == []
        kinds = [entry["kind"] for entry in engine.timeline]
        assert kinds == ["alert.fired", "alert.resolved"]

    def test_transitions_are_ordinary_events(self):
        store, events, engine = self._engine(
            _ratio_rule(threshold=0.1, fast=60.0, slow=240.0)
        )
        store.counter("all").inc(10.0, 2.0)
        store.counter("err").inc(10.0, 2.0)
        store.advance_to(10.0)
        store.advance_to(60.0)
        fired = events.query("slo", "alert.fired")
        assert len(fired) == 1
        assert fired[0].data["alert"] == "error-burn"
        assert fired[0].data["burn_fast"] == pytest.approx(10.0)

    def test_duplicate_rule_names_rejected(self):
        store = TimeSeriesStore()
        with pytest.raises(ValueError):
            SLOEngine(
                store=store, events=EventLog(),
                rules=[_ratio_rule(), _ratio_rule()],
            )

    def test_default_pack_shape(self):
        rules = default_slo_pack(window=60.0)
        assert [rule.name for rule in rules] == [
            "error-rate-burn", "dispatch-p95-latency",
        ]
        assert all(rule.fast_window == 300.0 for rule in rules)
        assert all(rule.slow_window == 900.0 for rule in rules)


class TestHealthScorer:
    def test_silence_scores_perfect(self):
        scorer = HealthScorer(TimeSeriesStore())
        assert scorer.score("ghost", 100.0) == 1.0
        assert scorer.state("ghost", 100.0) == HEALTHY

    def test_failures_degrade_and_breaker_kills(self):
        store = TimeSeriesStore(window=60.0)
        store.counter("faas.tasks.ok", endpoint="e").inc(10.0, 3.0)
        store.counter("faas.tasks.err", endpoint="e").inc(10.0, 2.0)
        scorer = HealthScorer(store, window=300.0)
        assert scorer.score("e", 100.0) == pytest.approx(0.6)
        assert scorer.state("e", 100.0) == DEGRADED
        store.gauge("faas.breaker.state", endpoint="e").set(50.0, 1.0)
        assert scorer.score("e", 100.0) == 0.0
        assert scorer.state("e", 100.0) == UNHEALTHY

    def test_rising_queue_trend_penalizes(self):
        store = TimeSeriesStore(window=60.0)
        store.gauge("faas.queue.depth", endpoint="e").set(10.0, 1.0)
        store.gauge("faas.queue.depth", endpoint="e").set(100.0, 9.0)
        scorer = HealthScorer(store, window=300.0)
        assert scorer.score("e", 150.0) == pytest.approx(0.9)

    def test_pool_score_is_mean(self):
        store = TimeSeriesStore(window=60.0)
        store.gauge("faas.breaker.state", endpoint="bad").set(10.0, 1.0)
        store.counter("faas.tasks.ok", endpoint="bad").inc(10.0)
        scorer = HealthScorer(store, window=300.0)
        assert scorer.pool_score(["bad", "fine"], 100.0) == pytest.approx(0.5)
        assert scorer.pool_score([], 100.0) == 1.0

    def test_snapshot_lists_known_endpoints(self):
        store = TimeSeriesStore(window=60.0)
        store.counter("faas.tasks.submitted", endpoint="e1").inc(5.0)
        scorer = HealthScorer(store)
        snap = scorer.snapshot(100.0)
        assert list(snap) == ["e1"]
        assert snap["e1"]["state"] == HEALTHY


class TestHealthRouting:
    def _router(self, health_of=None):
        depths = {"a": 2, "b": 2, "c": 5}
        router = Router(
            queue_depth=lambda eid: depths[eid],
            admissible=lambda eid: True,
            weight_of=lambda eid: 1.0,
            policy="least-loaded",
            health_of=health_of,
        )
        pool = EndpointPool(name="p", site="s")
        for eid in ("a", "b", "c"):
            pool.add(eid)
        router.register_pool(pool)
        return router

    def test_without_health_ties_go_to_registration_order(self):
        decision = self._router().resolve("p")
        assert decision.endpoint_id == "a"

    def test_health_breaks_queue_depth_ties(self):
        health = {"a": 0.2, "b": 0.9, "c": 1.0}
        decision = self._router(health_of=health.get).resolve("p")
        # b beats a on health at equal depth; c's depth still loses
        assert decision.endpoint_id == "b"


class TestChromeTraceGate:
    def _doc(self, errors):
        return {
            "traceEvents": [
                {"name": "t", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0, "dur": 1},
            ],
            "otherData": {
                "metrics": {
                    "telemetry.subscriber_errors": {"value": errors},
                },
            },
        }

    def test_clean_trace_validates(self):
        validate_chrome_trace(self._doc(0.0))

    def test_subscriber_errors_fail_validation(self):
        with pytest.raises(ValueError, match="subscriber error"):
            validate_chrome_trace(self._doc(2.0))


class TestAlertEventsAreJournaled:
    def test_alert_kinds_serialize_plainly(self):
        from repro.durability.checkpoint import _PLAIN_KINDS

        assert "alert.fired" in _PLAIN_KINDS
        assert "alert.resolved" in _PLAIN_KINDS


@pytest.fixture(scope="module")
def chaos_obs():
    from repro.experiments import run_fig4_obs

    return run_fig4_obs(seed=7, profile="flaky-endpoint")


@pytest.fixture(scope="module")
def chaos_obs_again():
    from repro.experiments import run_fig4_obs

    return run_fig4_obs(seed=7, profile="flaky-endpoint")


class TestObsFig4Determinism:
    def test_chaos_run_fires_the_error_rate_alert(self, chaos_obs):
        assert chaos_obs.alerts_fired >= 1
        assert any(
            entry["alert"] == "error-rate-burn"
            for entry in chaos_obs.alert_timeline
        )

    def test_same_seed_identical_buckets_and_timeline(
        self, chaos_obs, chaos_obs_again
    ):
        a, b = chaos_obs, chaos_obs_again
        assert a.world.series.snapshot() == b.world.series.snapshot()
        assert a.alert_timeline == b.alert_timeline
        from repro.experiments import format_obs_report

        assert format_obs_report(a) == format_obs_report(b)
        assert json.dumps(a.dashboard(), sort_keys=True) == json.dumps(
            b.dashboard(), sort_keys=True
        )

    def test_openmetrics_export_validates(self, chaos_obs):
        text = chaos_obs.openmetrics()
        stats = validate_openmetrics(text)
        assert stats["families"] > 0
        assert stats["samples"] > 0
        assert text.endswith("# EOF\n")

    def test_alert_events_in_the_event_log(self, chaos_obs):
        fired = chaos_obs.world.events.query("slo", "alert.fired")
        assert len(fired) >= 1
        assert fired[0].data["alert"] == "error-rate-burn"

    def test_fault_free_run_stays_silent(self):
        from repro.experiments import run_fig4_obs

        result = run_fig4_obs(profile="none")
        assert result.fault_free
        assert result.alerts_fired == 0
        assert result.world.slo.firing == []

    def test_observed_run_matches_unobserved_figures(self, chaos_obs):
        # attaching the plane never changes what the experiment computes
        from repro.experiments import run_fig4_chaos

        plain = run_fig4_chaos(seed=7, profile="flaky-endpoint")
        assert plain.site_status == chaos_obs.base.site_status
        assert plain.durations == chaos_obs.base.durations
        assert plain.resilience == chaos_obs.base.resilience


class TestObsCli:
    def test_obs_subcommand_runs_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        prefix = str(tmp_path / "obs")
        code = main([
            "obs", "fig4", "--seed", "7", "--profile", "flaky-endpoint",
            "--export", prefix,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "alert timeline:" in out
        assert "error-rate-burn" in out
        text = (tmp_path / "obs-openmetrics.txt").read_text()
        validate_openmetrics(text)
        dashboard = json.loads((tmp_path / "obs-dashboard.json").read_text())
        assert dashboard["schema"] == "repro-obs/1"

    def test_slo_override_changes_thresholds(self, capsys):
        from repro.cli import main

        # an absurdly lax error budget silences the chaos run
        code = main([
            "obs", "fig4", "--seed", "7", "--profile", "flaky-endpoint",
            "--slo", "error-rate=0.99",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "alerts fired: 0" in out

    def test_bad_slo_override_exits_2(self, capsys):
        from repro.cli import main

        assert main(["obs", "fig4", "--slo", "bogus"]) == 2
        assert main(["obs", "fig4", "--slo", "nope=1"]) == 2
