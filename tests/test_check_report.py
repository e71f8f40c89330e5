"""The unified check-report contract (ISSUE 8 satellite): one JSON
artifact schema across ``check plan|lint|race|cost``, report merging,
the shared ``--fail-on`` exit-code ladder, the event-log capacity, and
the ``REPRO_TRACE`` category switch."""

import json

import pytest

from repro.check.diagnostics import (
    ALL_RULES,
    LINT_RULES,
    PERF_RULES,
    PLAN_RULES,
    RACE_RULES,
    RULE_FAMILIES,
    SCHEMA_VERSION,
    CheckReport,
    Diagnostic,
)
from repro.check.instrument import (
    DEFAULT_LIMIT,
    TRACE_ENV,
    EventLog,
    env_categories,
)
from repro.cli import main

SHARED_KEYS = {"schema_version", "tool", "rules", "ok", "checked",
               "summary", "diagnostics", "metrics"}


# --------------------------------------------------------------------------- #
# CheckReport.merge: one artifact can carry a whole multi-tool sweep
# --------------------------------------------------------------------------- #
class TestMerge:
    def _plan_report(self):
        r = CheckReport(tool="plan-verifier", checked=["lenet/train"])
        r.extend([Diagnostic(rule="PLAN001", message="freed too early",
                             target="lenet/train", step=3)])
        return r

    def _cost_report(self):
        r = CheckReport(tool="cost-model", checked=["lenet/train@sn"])
        r.extend([Diagnostic(rule="PERF005", message="over budget",
                             target="lenet/train@sn")])
        r.metrics["lenet/train@sn"] = {"sim_time_ms": 1.0}
        return r

    def test_merge_joins_tools_and_unions_catalogs(self):
        merged = self._plan_report().merge(self._cost_report())
        assert merged.tool == "plan-verifier+cost-model"
        catalog = merged.rule_catalog()
        assert set(PLAN_RULES) <= set(catalog)
        assert set(PERF_RULES) <= set(catalog)
        assert set(RACE_RULES).isdisjoint(catalog)

    def test_merge_concatenates_findings_and_metrics(self):
        merged = self._plan_report().merge(self._cost_report())
        assert [d.rule for d in merged.diagnostics] == \
            ["PLAN001", "PERF005"]
        assert merged.checked == ["lenet/train", "lenet/train@sn"]
        assert merged.metrics["lenet/train@sn"]["sim_time_ms"] == 1.0
        assert not merged.ok

    def test_merge_same_tool_is_idempotent_on_name(self):
        a = self._plan_report()
        a.merge(self._plan_report())
        assert a.tool == "plan-verifier"
        assert len(a.diagnostics) == 2

    def test_merge_returns_self_for_chaining(self):
        a = self._plan_report()
        b = CheckReport(tool="lint")
        c = CheckReport(tool="race-detector")
        assert a.merge(b).merge(c) is a
        assert a.tool == "plan-verifier+lint+race-detector"

    def test_merged_to_dict_keeps_the_shared_schema(self):
        data = self._plan_report().merge(self._cost_report()).to_dict()
        assert set(data) == SHARED_KEYS
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["summary"] == {"errors": 2, "warnings": 0}

    def test_catalog_covers_out_of_family_findings(self):
        r = CheckReport(tool="cost-model")
        r.extend([Diagnostic(rule="RACE005", message="truncated",
                             severity="warning")])
        assert r.rule_catalog()["RACE005"] == ALL_RULES["RACE005"]


# --------------------------------------------------------------------------- #
# one JSON schema across the four subcommands
# --------------------------------------------------------------------------- #
class TestArtifactSchema:
    def _artifact(self, tmp_path, argv):
        out = tmp_path / "report.json"
        rc = main(argv + ["--format", "json", "--output", str(out)])
        return rc, json.loads(out.read_text())

    def _assert_schema(self, data, tool):
        assert set(data) == SHARED_KEYS
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["tool"] == tool
        assert data["rules"] == RULE_FAMILIES[tool]

    def test_plan_artifact(self, tmp_path):
        rc, data = self._artifact(
            tmp_path, ["check", "plan", "--net", "lenet"])
        assert rc == 0
        self._assert_schema(data, "plan-verifier")
        assert data["ok"] and data["metrics"] == {}

    def test_lint_artifact(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        rc, data = self._artifact(tmp_path, ["check", "lint", str(clean)])
        assert rc == 0
        self._assert_schema(data, "lint")

    def test_race_artifact(self, tmp_path):
        rc, data = self._artifact(
            tmp_path, ["check", "race", "--scenario", "parallel",
                       "--sessions", "2", "--iters", "1"])
        assert rc == 0
        self._assert_schema(data, "race-detector")

    def test_cost_artifact(self, tmp_path):
        rc, data = self._artifact(
            tmp_path, ["check", "cost", "--net", "lenet"])
        assert rc == 0
        self._assert_schema(data, "cost-model")
        assert data["metrics"]  # the cost model fills the side-channel

    def test_diagnostics_serialize_uniformly(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import threading\nlock = threading.Lock()\n")
        rc, data = self._artifact(tmp_path, ["check", "lint", str(bad)])
        assert rc == 1
        (d,) = [x for x in data["diagnostics"] if x["rule"] == "LINT005"]
        assert {"rule", "name", "severity", "message"} <= set(d)
        assert d["name"] == LINT_RULES["LINT005"]


# --------------------------------------------------------------------------- #
# the shared --fail-on / exit-code ladder
# --------------------------------------------------------------------------- #
class TestFailOn:
    def test_cost_warning_passes_by_default(self, capsys):
        rc = main(["check", "cost", "--net", "lenet", "--batch", "64",
                   "--max-request", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PERF006" in out and "[warning]" in out

    def test_cost_fail_on_warning_promotes(self, capsys):
        rc = main(["check", "cost", "--net", "lenet", "--batch", "64",
                   "--max-request", "4", "--fail-on", "warning"])
        assert rc == 1

    def test_cost_error_fails_by_default(self, capsys):
        rc = main(["check", "cost", "--net", "alexnet",
                   "--budget", "0.05"])
        assert rc == 1

    def test_race_fail_on_warning_promotes_truncation(self, capsys):
        args = ["check", "race", "--scenario", "parallel",
                "--sessions", "2", "--iters", "1", "--limit", "200"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--fail-on", "warning"]) == 1
        assert "RACE005" in capsys.readouterr().out

    def test_usage_errors_exit_two_everywhere(self, capsys):
        assert main(["check", "plan", "--net", "lenet",
                     "--configs", "bogus"]) == 2
        assert main(["check", "cost", "--net", "lenet",
                     "--configs", "bogus"]) == 2
        assert main(["check", "lint", "does/not/exist.py"]) == 2


# --------------------------------------------------------------------------- #
# event-log capacity + the REPRO_TRACE category switch
# --------------------------------------------------------------------------- #
class TestTraceCap:
    def test_default_limit_without_env(self):
        assert EventLog().limit == DEFAULT_LIMIT == 2_000_000

    @pytest.mark.parametrize("raw", ["zero", "0", "-3", "1.5"])
    def test_bad_env_value_raises(self, monkeypatch, raw):
        monkeypatch.setenv(TRACE_ENV, f"sync,{raw}")
        with pytest.raises(ValueError, match=TRACE_ENV):
            env_categories()

    def test_env_names_categories(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, " span , sync ,")
        assert env_categories() == ("span", "sync")
        monkeypatch.setenv(TRACE_ENV, "")
        assert env_categories() == ()

    def test_log_truncates_at_cap_and_flags_it(self):
        log = EventLog(limit=3)
        for _ in range(5):
            log.record("write", 1, "x")
        assert len(log) == 3
        assert log.truncated
