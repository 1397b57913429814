"""Builds one deployment of a benchmark workload: the set-up ``setup_s`` times.

This module imports only what a user of a deployment imports (the
configuration, the deployments and the workload registry), so that
``setup_probe.py`` does not time the benchmark's own analysis modules or
the experiment modules of ``repro.experiments``.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig
from repro.core.deployment import DgsfDeployment, NativeDeployment
from repro.workloads import LLM_WORKLOADS, register_llm_workloads, register_workloads

__all__ = ["deploy"]


def _native(config: DgsfConfig) -> NativeDeployment:
    return NativeDeployment(num_gpus=config.num_gpus, seed=config.seed,
                            tracing_enabled=config.tracing_enabled,
                            trace_max_spans=config.trace_max_spans)


#: the execution variants the workloads run under
_BUILDERS = {
    "native": _native,
    "dgsf": DgsfDeployment,
    "lambda": DgsfDeployment.lambda_deployment,
}


def deploy(wl, seed: int, names, variant: str = "dgsf", traced: bool = False):
    """Build, bring up and register one deployment of the workload ``wl``
    (a ``plans.Workload``) with the functions ``names``."""
    config = DgsfConfig(seed=seed, tracing_enabled=traced, **wl.config)
    dep = _BUILDERS[variant](config)
    dep.setup()
    if set(names) <= set(LLM_WORKLOADS):
        register_llm_workloads(dep.platform, names=list(names))
    else:
        register_workloads(dep.platform, names=list(names))
    return dep
