"""The four benchmark workloads and their seeded input generators.

Every input is made here, from ``--seed`` alone, with numpy's generator:
the program under test receives only a finished :class:`ArrivalPlan` (or,
for ``calibration``, the list of points to run).  The generators do not
reuse the program's own arrival helpers, so a change to those helpers
cannot silently change the benchmark's inputs.

A run is a number of *passes*, each a fresh deployment fed its own
sub-plan drawn from ``(seed, pass index)`` and about two host seconds
long, so the host rate can be read per pass (see ``Run.host_rate``); the
simulated statistics pool every pass.  The number of passes follows from
``--seconds`` and the rate each workload sustained on the reference
machine (2 cores, see ``README.md``); it depends on ``--seconds`` and
nothing else, so every simulated statistic repeats exactly for a fixed
``(seed, seconds)`` whatever the host speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.faas.workload_gen import ArrivalPlan
from repro.workloads import ALL_WORKLOAD_NAMES

__all__ = [
    "FRAMEWORK_NAMES",
    "LLM_NAMES",
    "VARIANTS",
    "COMMON_EXTRAS",
    "RSS_EXTRA",
    "ExtraMetric",
    "Workload",
    "WORKLOADS",
    "faas_steady_plan",
    "faas_burst_plan",
    "llm_chat_plan",
    "calibration_points",
    "burst_groups",
]

#: the five framework workloads of ``faas_steady`` (kmeans, the only one
#: with numpy kernel payloads, is left out on purpose)
FRAMEWORK_NAMES = ("covidctnet", "face_detection", "face_identification",
                   "nlp_qa", "image_classification")
LLM_NAMES = ("llm_chat_long", "llm_chat_storm")
#: the Table II execution variants ``calibration`` compares with the paper
VARIANTS = ("native", "dgsf", "lambda")
#: simulated seconds between the bursts of ``faas_burst``
BURST_GAP_S = 75.0
#: window within which a burst's six launches land
BURST_SKEW_S = 2.0


def faas_steady_plan(seed, copies: int) -> ArrivalPlan:
    """``copies`` of each framework workload, shuffled, Poisson arrivals
    with a mean gap of 8 s."""
    rng = np.random.default_rng(seed)
    names = [name for name in FRAMEWORK_NAMES for _ in range(copies)]
    rng.shuffle(names)
    return _poisson(rng, names, mean_gap_s=8.0)


def faas_burst_plan(seed, bursts: int) -> ArrivalPlan:
    """The paper's burst mode: every :data:`BURST_GAP_S` a burst launches
    all six paper workloads in a shuffled order, each within
    :data:`BURST_SKEW_S` of the burst's start.

    The gap is fixed, as in the paper.  Random gaps let the overlap
    between bursts, and with it every latency, swing by a fifth from seed
    to seed; launches at one instant make the outcome independent of the
    seed, because downloads, not launch order, decide who asks for a GPU
    first.
    """
    rng = np.random.default_rng(seed)
    entries = []
    for b in range(bursts):
        order = list(ALL_WORKLOAD_NAMES)
        rng.shuffle(order)
        skews = np.sort(rng.uniform(0.0, BURST_SKEW_S, size=len(order)))
        entries.extend((b * BURST_GAP_S + float(skew), name)
                       for skew, name in zip(skews, order))
    return ArrivalPlan(tuple(entries))


def llm_chat_plan(seed, pairs: int) -> ArrivalPlan:
    """``pairs`` sessions each of ``llm_chat_long`` and ``llm_chat_storm``,
    shuffled, Poisson arrivals with a mean gap of 8 s.

    Shuffled rather than alternating: MQFQ grants the two flows in turn,
    so a strictly alternating plan almost never puts two storm engines on
    the GPU together, and the KV-cache pressure the workload exists for
    (denied page charges, preemption) would not happen.  At a 6 s gap the
    single GPU runs so close to saturation that the p90 latency moves by
    an eighth from seed to seed.
    """
    rng = np.random.default_rng(seed)
    names = [name for name in LLM_NAMES for _ in range(pairs)]
    rng.shuffle(names)
    return _poisson(rng, names, mean_gap_s=8.0)


def calibration_points(seed, repeats: int) -> list[tuple[int, str, str]]:
    """``(config_seed, workload, variant)`` for ``repeats`` passes over the
    Table II grid; each repeat gets its own deployment seed."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31 - 1, size=repeats).tolist()
    return [(s, name, variant) for s in seeds
            for name in ALL_WORKLOAD_NAMES for variant in VARIANTS]


def burst_groups(plan: ArrivalPlan) -> list[list[int]]:
    """Plan indices grouped by burst."""
    groups: dict[int, list[int]] = {}
    for i, (t, _) in enumerate(plan):
        groups.setdefault(int(t // BURST_GAP_S), []).append(i)
    return list(groups.values())


def _poisson(rng, names: list[str], mean_gap_s: float) -> ArrivalPlan:
    gaps = rng.exponential(mean_gap_s, size=len(names))
    times = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    return ArrivalPlan(tuple(zip(times.tolist(), names)))


@dataclass(frozen=True)
class ExtraMetric:
    """A user-visible metric that only one workload can measure.

    Every workload emits every end-to-end metric of ``BENCHMARK.json``,
    so these are reported in ``result.json`` instead and gated by
    ``compare.py`` with the bound given here (a share of the base value).
    """

    name: str
    unit: str
    better: str
    bound: float


#: reported by every workload, gated with no tolerance
COMMON_EXTRAS = (ExtraMetric("error_rate", "ratio", "lower", 0.0),)
#: ``peak_rss_mb`` again, with a tighter bound than ``BENCHMARK.json``'s:
#: that bound is sized by ``llm_chat``'s allocator noise, while the peak
#: of the other workloads repeats within 2% (see ``README.md``)
RSS_EXTRA = ExtraMetric("peak_rss_mb", "MB", "lower", 0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    #: the functions its deployment registers
    functions: tuple
    #: what one unit of work is (counted by ``invocations_per_host_s``)
    unit: str
    #: units per host second on the reference machine (sets the passes)
    units_per_host_s: float
    #: units per input step (copies x 5, bursts x 6, pairs x 2, ...)
    units_per_step: int
    #: input steps per pass: about two host seconds of work
    steps_per_pass: int
    #: (seed, steps) -> one pass's input
    make_input: Callable
    #: ``DgsfConfig`` fields besides ``seed``
    config: dict
    extras: tuple = field(default=())
    #: per-invocation parameters passed through ``run_plan``
    invoke_params: dict = field(default_factory=dict)

    def passes(self, seconds: float) -> int:
        units_per_pass = self.steps_per_pass * self.units_per_step
        return max(1, round(seconds * self.units_per_host_s / units_per_pass))

    def pass_input(self, seed: int, index: int):
        """The input of pass ``index`` of the run seeded ``seed``."""
        return self.make_input([seed, index], self.steps_per_pass)


#: why each workload exists is written in ``BENCHMARK.json`` and ``README.md``
WORKLOADS = {
    "faas_steady": Workload(
        name="faas_steady",
        functions=FRAMEWORK_NAMES,
        unit="invocation",
        units_per_host_s=10.5,
        units_per_step=len(FRAMEWORK_NAMES),
        steps_per_pass=4,
        make_input=faas_steady_plan,
        config=dict(num_gpus=4),
        extras=(RSS_EXTRA,),
    ),
    "faas_burst": Workload(
        name="faas_burst",
        functions=tuple(ALL_WORKLOAD_NAMES),
        unit="invocation",
        units_per_host_s=5.5,
        units_per_step=len(ALL_WORKLOAD_NAMES),
        steps_per_pass=2,
        make_input=faas_burst_plan,
        config=dict(num_gpus=2, api_servers_per_gpu=2, migration_enabled=True),
        extras=(ExtraMetric("burst_drain_p50_s", "s", "lower", 0.01), RSS_EXTRA),
    ),
    "llm_chat": Workload(
        name="llm_chat",
        functions=LLM_NAMES,
        unit="session",
        units_per_host_s=35.0,
        units_per_step=len(LLM_NAMES),
        steps_per_pass=30,
        make_input=llm_chat_plan,
        config=dict(num_gpus=1, api_servers_per_gpu=2, queue_discipline="mqfq"),
        extras=(ExtraMetric("token_p50_ms", "ms", "lower", 0.01),
                ExtraMetric("token_p99_ms", "ms", "lower", 0.01),
                ExtraMetric("ttft_p99_s", "s", "lower", 0.01)),
        invoke_params=dict(llm_mode="continuous"),
    ),
    "calibration": Workload(
        name="calibration",
        functions=tuple(ALL_WORKLOAD_NAMES),
        unit="point",
        units_per_host_s=5.5,
        units_per_step=len(ALL_WORKLOAD_NAMES) * len(VARIANTS),
        steps_per_pass=1,
        make_input=calibration_points,
        config=dict(num_gpus=1),
        extras=(ExtraMetric("paper_mape_pct", "%", "lower", 0.07), RSS_EXTRA),
    ),
}
