"""Unit tests for CORRECT inputs and the workflow builder."""

import pytest

from repro.core.inputs import CorrectInputs
from repro.core.workflow_builder import WorkflowBuilder, render_yaml
from repro.errors import InputValidationError
from repro.util import yamlite


class TestCorrectInputs:
    def _base(self, **overrides):
        inputs = {
            "client_id": "cid",
            "client_secret": "sec",
            "endpoint_uuid": "ep",
            "shell_cmd": "pytest",
        }
        inputs.update(overrides)
        return inputs

    def test_valid_shell_cmd(self):
        parsed = CorrectInputs.from_step_inputs(self._base())
        assert parsed.shell_cmd == "pytest"
        assert parsed.clone is True
        assert parsed.template == "default"

    def test_missing_credentials(self):
        with pytest.raises(InputValidationError):
            CorrectInputs.from_step_inputs({"shell_cmd": "x"})

    def test_both_cmd_and_function_rejected(self):
        with pytest.raises(InputValidationError):
            CorrectInputs.from_step_inputs(
                self._base(function_uuid="fn-1")
            )

    def test_neither_cmd_nor_function_rejected(self):
        bad = self._base()
        del bad["shell_cmd"]
        with pytest.raises(InputValidationError):
            CorrectInputs.from_step_inputs(bad)

    def test_unknown_input_rejected(self):
        with pytest.raises(InputValidationError):
            CorrectInputs.from_step_inputs(self._base(typo_field="x"))

    def test_boolean_coercion(self):
        parsed = CorrectInputs.from_step_inputs(
            self._base(clone="false", store_artifacts="true")
        )
        assert parsed.clone is False
        assert parsed.store_artifacts is True

    def test_bad_boolean_rejected(self):
        with pytest.raises(InputValidationError):
            CorrectInputs.from_step_inputs(self._base(clone="maybe"))

    def test_conda_env_with_function_rejected(self):
        bad = self._base(function_uuid="fn-1", conda_env="env")
        del bad["shell_cmd"]
        with pytest.raises(InputValidationError):
            CorrectInputs.from_step_inputs(bad)

    def test_function_args_must_be_list(self):
        bad = self._base(function_uuid="fn-1", function_args="not-a-list")
        del bad["shell_cmd"]
        with pytest.raises(InputValidationError):
            CorrectInputs.from_step_inputs(bad)

    @pytest.mark.parametrize("timeout", ["-5", "nan", "inf", "abc"])
    def test_timeout_must_be_finite_and_non_negative(self, timeout):
        with pytest.raises(InputValidationError, match="timeout"):
            CorrectInputs.from_step_inputs(self._base(timeout=timeout))
        assert CorrectInputs.from_step_inputs(
            self._base(timeout="0")
        ).timeout == 0.0


class TestRenderYaml:
    def test_roundtrip_simple(self):
        data = {"a": 1, "b": "text", "c": [1, 2], "d": {"k": "v"}}
        assert yamlite.loads(render_yaml(data)) == data

    def test_quoting_of_specials(self):
        data = {"expr": "${{ secrets.X }}", "num_string": "白"}
        rendered = render_yaml(data)
        assert yamlite.loads(rendered)["expr"] == "${{ secrets.X }}"

    def test_bool_and_null(self):
        data = {"t": True, "f": False, "n": None}
        assert yamlite.loads(render_yaml(data)) == data

    def test_list_of_dicts(self):
        data = {"steps": [{"name": "a", "run": "echo 1"}, {"name": "b", "run": "echo 2"}]}
        assert yamlite.loads(render_yaml(data)) == data

    def test_nested_depth(self):
        data = {"a": {"b": {"c": [{"d": 1}]}}}
        assert yamlite.loads(render_yaml(data)) == data

    def test_quoted_reserved_words(self):
        data = {"v": "true", "w": "123"}
        parsed = yamlite.loads(render_yaml(data))
        assert parsed == {"v": "true", "w": "123"}  # stays a string


class TestWorkflowBuilder:
    def test_renders_parseable_workflow(self):
        builder = WorkflowBuilder("Demo").on_push(branches=["main"])
        step = WorkflowBuilder.correct_step(
            name="Run tox", step_id="tox", shell_cmd="tox"
        )
        builder.add_job(
            "ci", steps=[step], environment="hpc",
            env={"ENDPOINT_UUID": "ep-1"},
        )
        from repro.actions.workflow import parse_workflow

        workflow = parse_workflow(builder.render())
        assert workflow.name == "Demo"
        job = workflow.jobs["ci"]
        assert job.environment == "hpc"
        assert job.steps[0].uses == "globus-labs/correct@v1"
        assert job.steps[0].with_["shell_cmd"] == "tox"
        assert job.steps[0].with_["client_id"] == "${{ secrets.GLOBUS_ID }}"

    def test_requires_trigger_and_job(self):
        with pytest.raises(ValueError):
            WorkflowBuilder("x").render()
        builder = WorkflowBuilder("x").on_dispatch()
        with pytest.raises(ValueError):
            builder.render()

    def test_upload_artifact_step(self):
        step = WorkflowBuilder.upload_artifact_step(
            "save", "logs", "out.txt"
        )
        assert step["uses"] == "actions/upload-artifact@v4"
        assert step["if"] == "${{ always() }}"

    def test_schedule_trigger(self):
        builder = WorkflowBuilder("nightly").on_schedule("0 3 * * *")
        builder.add_job("j", steps=[{"name": "s", "run": "echo hi"}])
        from repro.actions.workflow import parse_workflow

        workflow = parse_workflow(builder.render())
        assert "schedule" in workflow.on
