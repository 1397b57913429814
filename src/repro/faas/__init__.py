"""Serverless platform substrate.

Models the parts of OpenFaaS / AWS Lambda that the paper's evaluation
actually exercises:

* warm execution environments (the paper always measures warm starts and
  factors container creation out, §IV/§VI),
* an S3-like object store — every function downloads its model and inputs
  from remote storage at the start of each invocation (§VI),
* arrival processes: exponential-gap sequences for the load experiments
  and back-to-back bursts for the utilization experiment (§VIII-D).
"""

from repro.faas.storage import ObjectStore, StorageProfile, S3_DEFAULT, S3_LAMBDA
from repro.faas.container import Container, ContainerPool
from repro.faas.platform import (
    ServerlessPlatform,
    FunctionSpec,
    FunctionContext,
    Invocation,
)
from repro.faas.workload_gen import (
    exponential_gap_arrivals,
    burst_arrivals,
    uniform_arrivals,
    interleave_workloads,
    ArrivalPlan,
)
from repro.faas.topology import (
    plan_collect,
    plan_scenario,
    pool_collect,
    pool_metrics_collect,
    pool_scenario,
)

__all__ = [
    "ObjectStore",
    "StorageProfile",
    "S3_DEFAULT",
    "S3_LAMBDA",
    "Container",
    "ContainerPool",
    "ServerlessPlatform",
    "FunctionSpec",
    "FunctionContext",
    "Invocation",
    "exponential_gap_arrivals",
    "burst_arrivals",
    "uniform_arrivals",
    "interleave_workloads",
    "ArrivalPlan",
    "plan_collect",
    "plan_scenario",
    "pool_collect",
    "pool_metrics_collect",
    "pool_scenario",
]
