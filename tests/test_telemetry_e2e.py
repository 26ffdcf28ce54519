"""End-to-end telemetry: tracing and metrics over the Fig. 4 experiment.

These tests exercise the full CI→HPC stack with the tracer attached:
workflow → job → step → CORRECT action → FaaS task → execute → node,
plus the Slurm spans of the pilot sites — and check the two invariants
the telemetry layer promises: determinism (same run, same span tree)
and zero observable effect on experiment outputs.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.fig4_parsldock import run_fig4
from repro.provenance.crate import ResearchCrate
from repro.telemetry.export import chrome_trace, validate_chrome_trace


@pytest.fixture(scope="module")
def fig4():
    """One traced Fig. 4 run shared by the read-only assertions."""
    return run_fig4()


class TestTraceCoverage:
    def test_single_workflow_trace(self, fig4):
        roots = [
            s for s in fig4.world.tracer.roots() if s.kind == "workflow"
        ]
        assert len(roots) == 1
        assert roots[0].name == "run:ParslDock multi-site CI"
        assert not roots[0].is_open

    def test_all_layers_in_the_workflow_trace(self, fig4):
        tracer = fig4.world.tracer
        trace_id = fig4.run.span.trace_id
        kinds = {s.kind for s in tracer.trace(trace_id)}
        assert kinds >= {
            "workflow", "job", "step", "action", "task", "execute", "node"
        }

    def test_one_job_and_step_per_site(self, fig4):
        tracer = fig4.world.tracer
        trace_id = fig4.run.span.trace_id
        jobs = [s for s in tracer.trace(trace_id) if s.kind == "job"]
        assert sorted(s.name for s in jobs) == [
            "job:test-chameleon", "job:test-expanse", "job:test-faster"
        ]
        for job in jobs:
            children = tracer.children(job.span_id)
            assert [c.kind for c in children] == ["step"]
            assert not job.is_open and job.ok

    def test_pilot_sites_have_slurm_spans(self, fig4):
        schedulers = {
            s.attributes.get("scheduler")
            for s in fig4.world.tracer.find(kind="slurm")
        }
        assert {"faster-slurm", "expanse-slurm"} <= schedulers

    def test_node_spans_carry_site_and_node(self, fig4):
        tracer = fig4.world.tracer
        trace_id = fig4.run.span.trace_id
        nodes = [s for s in tracer.trace(trace_id) if s.kind == "node"]
        assert nodes
        for span in nodes:
            assert span.attributes["site"]
            assert span.attributes["node"]
            assert not span.is_open
            assert span.duration > 0

    def test_provenance_records_point_into_the_trace(self, fig4):
        records = fig4.world.provenance.for_repo(
            "parsl/parsl-docking-tutorial"
        )
        assert len(records) == 3
        trace_id = fig4.run.span.trace_id
        for record in records:
            assert record.trace_id == trace_id
            assert record.span_id
            assert record.timeline  # task → execute → node dicts
            kinds = {entry["kind"] for entry in record.timeline}
            assert "task" in kinds and "node" in kinds
        by_trace = fig4.world.provenance.for_trace(trace_id)
        assert len(by_trace) == 3

    def test_chrome_export_of_real_run_validates(self, fig4):
        doc = chrome_trace(fig4.world.tracer, fig4.world.metrics)
        validate_chrome_trace(doc)
        lanes = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "ci workflow" in lanes
        assert any(lane.startswith("slurm ") for lane in lanes)
        assert any(lane.startswith("node ") for lane in lanes)


class TestDeterminism:
    def test_two_runs_produce_identical_span_trees(self):
        first = run_fig4()
        second = run_fig4()
        tree1 = first.world.tracer.span_tree(first.run.span.trace_id)
        tree2 = second.world.tracer.span_tree(second.run.span.trace_id)
        assert tree1 == tree2
        # and they serialize identically, ids included
        assert json.dumps(chrome_trace(first.world.tracer), sort_keys=True) \
            == json.dumps(chrome_trace(second.world.tracer), sort_keys=True)


class TestMetricsAgreement:
    def test_latency_histograms_match_event_log(self, fig4):
        world = fig4.world
        submits = {}
        expected = {}
        for event in world.events.query(kind="task.submitted"):
            submits[event.data["task_id"]] = (
                event.time, event.data["endpoint"]
            )
        for event in world.events.query(kind="task.completed"):
            submit_time, endpoint = submits[event.data["task_id"]]
            expected.setdefault(endpoint, []).append(
                event.time - submit_time
            )
        assert expected  # the run really submitted tasks
        for endpoint, latencies in expected.items():
            histogram = world.metrics.histogram(
                "faas.task.latency", endpoint=endpoint
            )
            assert histogram.values() == latencies

    def test_ci_counters_match_run(self, fig4):
        metrics = fig4.world.metrics
        assert metrics.counter("ci.runs").value == 1.0
        assert metrics.counter("ci.jobs", status="success").value == 3.0
        assert metrics.counter("telemetry.subscriber_errors").value == 0.0

    def test_successful_tasks_not_counted_failed(self, fig4):
        # TaskState.value is "SUCCESS"; the failure counter must treat
        # state comparison case-insensitively
        failed = [
            (labels, counter.value)
            for name, labels, counter in fig4.world.metrics.collect()
            if name == "faas.tasks.failed" and counter.value > 0
        ]
        assert failed == []


class TestTelemetryIsInert:
    def test_outputs_identical_with_telemetry_off(self, fig4):
        untraced = run_fig4(telemetry=False)
        assert untraced.durations == fig4.durations
        assert untraced.outcomes == fig4.outcomes
        assert untraced.queue_waits == fig4.queue_waits
        timeline = [
            (e.time, e.source, e.kind, e.seq)
            for e in fig4.world.events
        ]
        untimed = [
            (e.time, e.source, e.kind, e.seq)
            for e in untraced.world.events
        ]
        assert timeline == untimed
        assert untraced.world.tracer.roots() == []
        assert len(untraced.world.metrics) == 0


class TestCrateAttachment:
    def test_trace_and_metrics_survive_json_roundtrip(self):
        crate = ResearchCrate("org/repo", commit_sha="abc")
        crate.attach_trace([{"name": "run:x", "children": []}])
        crate.attach_metrics({"ci.runs": {"value": 1.0}})
        restored = ResearchCrate.from_json(crate.to_json())
        assert restored.trace == [{"name": "run:x", "children": []}]
        assert restored.metrics == {"ci.runs": {"value": 1.0}}


class TestTraceCli:
    def test_trace_fig4_writes_valid_chrome_trace(self, tmp_path, capsys):
        output = tmp_path / "fig4-trace.json"
        assert main(["trace", "fig4", "-o", str(output)]) == 0
        doc = json.loads(output.read_text())
        validate_chrome_trace(doc)
        assert doc["otherData"]["generator"] == "repro-telemetry"
        assert doc["otherData"]["metrics"]
        assert "workflow trace(s)" in capsys.readouterr().out
        kinds = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"workflow", "job", "step", "task", "node"} <= kinds

    def test_trace_report_flag(self, tmp_path, capsys):
        output = tmp_path / "t.json"
        assert main(
            ["trace", "fig4", "-o", str(output), "--report"]
        ) == 0
        out = capsys.readouterr().out
        assert "run:ParslDock multi-site CI" in out
        assert "== metrics ==" in out

    def test_metrics_flag_prints_report(self, capsys):
        assert main(["fig4", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "faas.task.latency" in out

    def test_no_telemetry_flag(self, capsys):
        assert main(["fig4", "--no-telemetry", "--metrics"]) == 0
        assert "telemetry disabled" in capsys.readouterr().out
