"""Unit tests for the fault-injection hooks and in-process scenarios.

The daemon-backed crash scenarios run (once) inside the fast verify tier
via ``test_verify_cli.py``; duplicating those subprocess drives here would
double the suite's wall time for no extra coverage.  This file pins the
plan parser, the hit-counting semantics and the env-var loading path of
``repro.runtime.faults``, and the two scenarios of ``repro.verify.faults``
cheap enough to run in-process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime import faults
from repro.verify import faults as scenarios


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection inactive."""
    faults.reset()
    yield
    faults.reset()


class TestParsePlan:
    def test_single_rule(self):
        plan = faults.parse_plan("journal.write:torn@41")
        assert plan.rules == [
            faults.FaultRule(site="journal.write", action="torn", at=41)
        ]

    def test_multiple_rules_and_whitespace(self):
        plan = faults.parse_plan(" a:x@1 , b:y@2 ,")
        assert [r.site for r in plan.rules] == ["a", "b"]
        assert plan.spec() == "a:x@1,b:y@2"

    def test_empty_spec_is_empty_plan(self):
        assert faults.parse_plan("").rules == []

    @pytest.mark.parametrize(
        "spec",
        [
            "nonsense",
            "site:action",  # missing @N
            "site@3",  # missing action
            "site:action@zero",
            "site:action@0",  # 1-based
            "site:action@-1",
            ":action@1",
            "site:@1",
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_plan(spec)


class TestFaultPlan:
    def test_fires_on_exact_hit_only(self):
        plan = faults.parse_plan("s:boom@3")
        assert [plan.fire("s") for _ in range(5)] == [
            None, None, "boom", None, None,
        ]
        assert plan.hits("s") == 5

    def test_sites_count_independently(self):
        plan = faults.parse_plan("a:x@1,b:y@2")
        assert plan.fire("b") is None
        assert plan.fire("a") == "x"
        assert plan.fire("b") == "y"
        assert plan.hits("a") == 1 and plan.hits("b") == 2

    def test_unknown_site_still_counts(self):
        plan = faults.FaultPlan([])
        assert plan.fire("anything") is None
        assert plan.hits("anything") == 1


class TestModuleState:
    def test_fire_is_noop_without_plan(self):
        assert not faults.active()
        # No plan: no counting, no action, for any number of calls.
        assert faults.fire("journal.write") is None
        assert faults.fire("journal.write") is None

    def test_install_and_reset(self):
        plan = faults.install("s:go@1")
        assert faults.active()
        assert faults.fire("s") == "go"
        assert plan.hits("s") == 1
        faults.reset()
        assert not faults.active()
        assert faults.fire("s") is None

    def test_install_accepts_a_plan_object(self):
        plan = faults.parse_plan("s:go@2")
        assert faults.install(plan) is plan
        assert faults.fire("s") is None
        assert faults.fire("s") == "go"

    def test_not_in_worker_process_here(self):
        # The test process is a top-level process; the die-action guard
        # must therefore refuse to fire in it.
        assert not faults.in_worker_process()

    def test_env_var_loads_plan_in_subprocess(self):
        """A process born with BMBP_FAULTS set is faulty from import."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env[faults.ENV_VAR] = "probe:hit@1"
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "from repro.runtime import faults;"
            "print(faults.active(), faults.fire('probe'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["True", "hit"]

    def test_empty_env_var_means_clean_subprocess(self):
        env = dict(os.environ)
        env[faults.ENV_VAR] = ""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = "from repro.runtime import faults; print(faults.active())"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_daemon_env_always_pins_the_variable(self):
        assert scenarios._daemon_env(None)[faults.ENV_VAR] == ""
        assert scenarios._daemon_env("a:b@1")[faults.ENV_VAR] == "a:b@1"


class TestInProcessScenarios:
    def test_worker_death_recovers_to_identical_results(self, tmp_path):
        details = scenarios.scenario_worker_death(tmp_path)
        assert details["results_identical"]

    def test_cache_corruption_recomputes(self, tmp_path):
        details = scenarios.scenario_cache_corruption(tmp_path)
        assert details["recomputed_after_corruption"]
        assert details["rehit_after_recompute"]

    def test_registry_covers_at_least_five_scenarios(self):
        # ISSUE acceptance: >= 5 injected-fault recovery scenarios.
        assert len(scenarios.SCENARIOS) >= 5

    def test_run_fault_scenarios_subset_reports_records(self):
        records = scenarios.run_fault_scenarios(["worker-death", "cache-corruption"])
        assert [r["name"] for r in records] == ["worker-death", "cache-corruption"]
        for record in records:
            assert record["passed"], record.get("error")
            assert record["seconds"] >= 0.0
