"""Tests for the declarative suite framework (spec, resolver, parsers,
runner, sweep) — including the determinism guarantees the pinned suite
reports rely on."""

import pytest

from repro.experiments.chaos import run_suite_chaos
from repro.suites import (
    SuiteError,
    expand_instances,
    format_sweep_report,
    load_suite,
    make_parser,
    materialize,
    run_suite,
    run_sweep,
    suites_root,
)
from repro.suites.spec import ParseSpec, parse_suite

FIG4_TEXT = (suites_root() / "fig4.yaml").read_text(encoding="utf-8")


def _fig4_with(series: str = "", test: str = "", top: str = "") -> str:
    """fig4.yaml with extra lines in its series, in its test and at top level."""
    text = FIG4_TEXT.replace(
        '    target: "{site}"\n', '    target: "{site}"\n' + series
    )
    text = text.replace("      command: pytest\n", "      command: pytest\n" + test)
    return text + top


class TestSpecLoading:
    def test_load_by_bare_name(self):
        spec = load_suite("fig4")
        assert spec.name == "fig4"
        assert spec.series

    def test_load_by_path(self):
        spec = load_suite(str(suites_root() / "fig5.yaml"))
        assert spec.name == "fig5"

    def test_unknown_suite_raises(self):
        with pytest.raises(SuiteError):
            load_suite("no-such-suite")

    def test_spec_object_passes_through(self):
        spec = load_suite("fig4")
        assert load_suite(spec) is spec

    def test_all_committed_suites_parse_and_materialize(self):
        for path in sorted(suites_root().glob("*.yaml")):
            spec = load_suite(str(path))
            mat = materialize(spec)
            assert mat.instances, path.name


class TestSpecValidation:
    @pytest.mark.parametrize("value", ["abc", "-5", "nan", "inf"])
    def test_timeouts_must_be_finite_and_non_negative(self, value):
        for text in (
            _fig4_with(series=f"    timeout: {value}\n"),
            _fig4_with(test=f"      timeout: {value}\n"),
        ):
            with pytest.raises(SuiteError, match="timeout"):
                parse_suite(text)
        spec = parse_suite(
            _fig4_with(series="    timeout: 90\n", test="      timeout: 30\n")
        )
        assert spec.series["pytest"].timeout == 90.0
        assert spec.series["pytest"].test.timeout == 30.0

    @pytest.mark.parametrize(
        "block, message",
        [
            ("{bogus: 1}", "unknown keys"),
            ("{seed: 3}", "unknown keys"),
            ("{base_delay: -1}", "base_delay"),
            ("{max_delay: nan}", "max_delay"),
            ("{multiplier: inf}", "multiplier"),
            ("{jitter: abc}", "jitter"),
            ("{max_attempts: 0}", "max_attempts"),
            ("{max_attempts: 2.5}", "max_attempts"),
            ("[1, 2]", "mapping"),
        ],
    )
    def test_retry_block_is_checked_against_retry_policy(self, block, message):
        with pytest.raises(SuiteError, match=message):
            parse_suite(_fig4_with(top=f"retry: {block}\n"))
        spec = parse_suite(_fig4_with(top="retry: {max_attempts: 5, base_delay: 5}\n"))
        assert spec.retry == {"max_attempts": 5, "base_delay": 5}

    def test_series_level_retry_is_refused(self):
        with pytest.raises(SuiteError, match="top-level retry"):
            parse_suite(_fig4_with(series="    retry: {max_attempts: 2}\n"))


class TestExpansion:
    def test_expansion_is_deterministic(self):
        spec = load_suite("fig4-sweep")
        first = expand_instances(spec)
        second = expand_instances(spec)
        assert [i.instance_id for i in first] == [
            i.instance_id for i in second
        ]
        assert [i.permutation for i in first] == [
            i.permutation for i in second
        ]

    def test_two_loads_expand_identically(self):
        ids_a = [i.instance_id for i in expand_instances(load_suite("fig4-sweep"))]
        ids_b = [i.instance_id for i in expand_instances(load_suite("fig4-sweep"))]
        assert ids_a == ids_b

    def test_sweep_suite_expands_wide(self):
        # acceptance: one suite file expands to >= 12 instances
        mat = materialize(load_suite("fig4-sweep"))
        assert len(mat.instances) >= 12

    def test_skip_if_marks_instances(self):
        mat = materialize(load_suite("fig4-sweep"))
        skipped = mat.skipped
        assert skipped
        for instance in skipped:
            assert instance.variables["site"] == "expanse"
            assert instance.variables["shard"] == "shard-e"
            assert instance.skip_reason

    def test_variable_override_narrows_expansion(self):
        spec = load_suite("fig4")
        mat = materialize(spec, overrides={"site": ["chameleon"]})
        assert mat.sites() == ["chameleon"]
        assert len(mat.active) == 1

    def test_instance_ids_unique(self):
        mat = materialize(load_suite("fig4-sweep"))
        ids = [i.instance_id for i in mat.instances]
        assert len(ids) == len(set(ids))


class TestParsers:
    def test_regex_parser_named_groups(self):
        parser = make_parser(
            ParseSpec(parser="regex", options={"pattern": r"(?P<k>\w+)=(?P<v>\d+)"})
        )
        assert parser.parse("a=1\nb=2\n") == [
            {"k": "a", "v": "1"},
            {"k": "b", "v": "2"},
        ]

    def test_regex_parser_requires_pattern(self):
        with pytest.raises(SuiteError):
            make_parser(ParseSpec(parser="regex"))

    def test_json_parser(self):
        parser = make_parser(ParseSpec(parser="json"))
        assert parser.parse('{"ok": true, "n": 3}') == {"ok": True, "n": 3}

    def test_table_parser(self):
        parser = make_parser(ParseSpec(parser="table"))
        rows = parser.parse("name value\nfoo 1\nbar 2\n")
        assert rows == [
            {"name": "foo", "value": "1"},
            {"name": "bar", "value": "2"},
        ]

    def test_unknown_parser_raises(self):
        with pytest.raises(SuiteError):
            make_parser(ParseSpec(parser="nope"))


class TestEngineRun:
    def test_fig4_suite_runs_ok(self):
        suite_run = run_suite("fig4")
        assert suite_run.ok
        assert suite_run.status == "success"
        for result in suite_run.results:
            assert result.status == "ok"
            # pytest parser yields structured per-test outcomes
            assert isinstance(result.parsed, dict) and result.parsed

    def test_suite_identity_in_provenance(self):
        suite_run = run_suite("fig4")
        records = suite_run.world.provenance.for_suite("fig4")
        assert len(records) == len(suite_run.mat.active)
        identities = {(r.series, r.permutation) for r in records}
        expected = {
            (i.series, i.permutation) for i in suite_run.mat.active
        }
        assert identities == expected


class TestSweepDeterminism:
    def _report(self):
        sweep = run_sweep(
            "fig4-sweep", seed=7, profile="flaky-endpoint",
            policy="least-loaded", pool_size=2,
        )
        return sweep, format_sweep_report(sweep)

    def test_chaos_sweep_reports_identical_across_runs(self):
        sweep_a, report_a = self._report()
        sweep_b, report_b = self._report()
        assert report_a == report_b
        assert [r.status for r in sweep_a.results] == [
            r.status for r in sweep_b.results
        ]

    def test_sweep_runs_wide_suite_end_to_end(self):
        sweep, _ = self._report()
        # 15 expanded, 1 skipped by skip_if, the rest executed through FaaS
        assert len(sweep.results) >= 12
        counts = sweep.counts()
        assert counts["skipped"] == 1
        assert counts["ok"] > 0
        records = sweep.world.provenance.for_suite("fig4-sweep")
        assert records
        for record in records:
            assert record.series
            assert record.permutation

    def test_fault_free_sweep_all_ok(self):
        sweep = run_sweep("fig4", seed=7)
        assert sweep.ok
        assert all(
            r.status == "ok" for r in sweep.results if not r.instance.skipped
        )


class TestProfiledRetry:
    """A suite's top-level ``retry:`` block replaces the chaos retry policy
    on both profiled paths: the CI engine (``suite run --profile``) and
    the direct-FaaS sweep (``--permute``)."""

    @pytest.mark.parametrize(
        "run", [run_suite_chaos, run_sweep], ids=["engine", "sweep"]
    )
    def test_retry_block_replaces_the_chaos_default(self, run):
        spec = parse_suite(
            _fig4_with(top="retry: {max_attempts: 1, base_delay: 0}\n")
        )
        result = run(spec, seed=7, profile="flaky-endpoint")
        assert result.world.faas.retry_policy.max_attempts == 1
        assert result.world.events.query("faas", "task.retry") == []
