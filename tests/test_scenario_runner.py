"""The one scenario runner: ``run_plan`` records a failed invocation
instead of raising it, and :meth:`ScenarioResult.require_completed` — the
one check the fault-free producers share — raises the first failure's
own exception, so those producers still fail loudly."""

import importlib.util
from pathlib import Path

import pytest

import repro.experiments.runner as runner
import repro.workloads.llm_workloads as llm_workloads
import repro.workloads.registry as registry
from repro.core import DgsfConfig
from repro.errors import SimulationError
from repro.experiments import critpath_ablation, llm_ablation, sched_ablation, sharing
from repro.experiments.runner import make_plan, run_scenario
from repro.faas.workload_gen import ArrivalPlan

_SPEC = importlib.util.spec_from_file_location(
    "profile_report",
    Path(__file__).resolve().parent.parent / "scripts" / "profile_report.py",
)
profile_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_report)


class Boom(RuntimeError):
    """What a broken handler raises."""


def _break(monkeypatch, module, factory, name):
    """Every invocation of ``name`` fails with a Boom of its own; returns
    the raised exceptions in raise order."""
    make = getattr(module, factory)
    raised = []

    def patched(workload):
        if workload != name:
            return make(workload)

        def handler(fc):
            yield fc.env.timeout(0.5)
            exc = Boom(f"{name} invocation {fc.invocation.invocation_id}")
            raised.append(exc)
            raise exc

        return handler

    monkeypatch.setattr(module, factory, patched)
    return raised


@pytest.fixture
def broken_kmeans(monkeypatch):
    return _break(monkeypatch, registry, "make_handler", "kmeans")


def test_failed_invocation_is_recorded_and_the_check_raises_it(broken_kmeans):
    plan = make_plan("exponential", seed=1, copies=2,
                     names=["kmeans", "face_identification"])
    result = run_scenario(DgsfConfig(num_gpus=1, seed=1), plan)
    assert [inv.function_name for inv in result.invocations] == plan.names
    kmeans = [inv for inv in result.invocations if inv.function_name == "kmeans"]
    assert [inv.status for inv in kmeans] == ["failed", "failed"]
    assert all(inv.status == "completed" for inv in result.invocations
               if inv.function_name != "kmeans")
    assert result.outcomes.all_terminal and result.audit.ok
    with pytest.raises(Boom) as err:
        result.require_completed()
    assert err.value is kmeans[0].result  # the first failure in launch order


def test_completed_run_passes_the_check():
    plan = make_plan("exponential", seed=1, copies=1, names=["kmeans"])
    result = run_scenario(DgsfConfig(num_gpus=1, seed=1), plan)
    assert result.require_completed() is result


@pytest.mark.parametrize("produce", [
    lambda tmp: sched_ablation.run(seed=3, copies=1, disciplines=("fcfs",)),
    lambda tmp: critpath_ablation.run_settings(
        seed=0, copies=1,
        settings={"light_opt": critpath_ablation.SETTINGS["light_opt"]}),
    lambda tmp: sharing.sections(seed=0, copies=1),
    lambda tmp: profile_report.main(
        ["--mixed", "--copies", "1", "--out-dir", str(tmp), "--no-flame"]),
], ids=["sched", "critpath", "sharing", "profile_report"])
def test_fault_free_producers_raise_the_failure(broken_kmeans, produce,
                                               tmp_path):
    with pytest.raises(Boom) as err:
        produce(tmp_path)
    assert err.value in broken_kmeans


def test_llm_producer_raises_the_failure(monkeypatch):
    raised = _break(monkeypatch, llm_workloads, "make_llm_handler", "llm_chat")
    with pytest.raises(Boom) as err:
        llm_ablation.run(copies=1, scenarios=("steady",))
    assert err.value in raised


# -- the horizon backstop (shortened here so a plan outlives it cheaply) -------

def test_horizon_counts_from_the_last_arrival(monkeypatch):
    # the second entry is due after HORIZON_S: a backstop anchored at t = 0
    # would stop the run before launching it
    monkeypatch.setattr(runner, "HORIZON_S", 20.0)
    monkeypatch.setattr(runner, "SETTLE_S", 0.1)
    plan = ArrivalPlan(((0.0, "kmeans"), (30.0, "kmeans")))
    result = run_scenario(DgsfConfig(num_gpus=1, seed=1), plan)
    assert len(result.invocations) == result.planned == 2
    assert result.clean and result.require_completed() is result


@pytest.mark.parametrize("horizon_s, launched", [(1.0, 0), (5.0, 2)],
                         ids=["before-bring-up", "mid-flight"])
def test_plan_cut_by_the_horizon_fails_the_check(monkeypatch, horizon_s,
                                                  launched):
    # bring-up ends at 4.6 s and each kmeans downloads its inputs for
    # 0.9 s, so the run (horizon plus settle window) ends with both entries
    # unlaunched or both still downloading
    monkeypatch.setattr(runner, "HORIZON_S", horizon_s)
    monkeypatch.setattr(runner, "SETTLE_S", 0.1)
    plan = ArrivalPlan(((0.0, "kmeans"), (0.0, "kmeans")))
    result = run_scenario(DgsfConfig(num_gpus=1, seed=1), plan)
    assert len(result.invocations) == launched and result.planned == 2
    assert not result.clean
    with pytest.raises(SimulationError):
        result.require_completed()
