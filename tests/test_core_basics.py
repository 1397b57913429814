"""Unit tests for DGSF config, API classification, and policies."""

import pytest

from repro.errors import ConfigurationError
from repro.core import (
    DgsfConfig,
    OptimizationFlags,
    ApiClass,
    classify,
    make_policy,
    BestFit,
    WorstFit,
)


# --- config ----------------------------------------------------------------------

def test_config_defaults():
    cfg = DgsfConfig()
    assert cfg.num_gpus == 4
    assert not cfg.sharing_enabled
    assert cfg.optimizations.handle_pooling


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DgsfConfig(num_gpus=0)
    with pytest.raises(ConfigurationError):
        DgsfConfig(api_servers_per_gpu=0)
    with pytest.raises(ConfigurationError):
        DgsfConfig(policy="random")


def test_config_with_override():
    cfg = DgsfConfig().with_(api_servers_per_gpu=2)
    assert cfg.sharing_enabled
    assert cfg.num_gpus == 4


def test_flags_none_and_all():
    none = OptimizationFlags.none()
    assert not any(
        (none.handle_pooling, none.descriptor_pooling, none.batching, none.avoid_unnecessary)
    )
    assert all(
        (OptimizationFlags.all().handle_pooling, OptimizationFlags.all().batching)
    )


def test_flags_with():
    flags = OptimizationFlags.none().with_(handle_pooling=True)
    assert flags.handle_pooling and not flags.batching


# --- classification -------------------------------------------------------------------

def test_descriptor_apis_localizable_only_with_pooling():
    on = OptimizationFlags.all()
    off = OptimizationFlags.none()
    assert classify("cudnnCreateDescriptor", on) is ApiClass.LOCALIZABLE
    assert classify("cudnnCreateDescriptor", off) is ApiClass.REMOTABLE_SYNC


def test_launches_batchable_only_with_batching():
    on = OptimizationFlags.all()
    off = OptimizationFlags.none()
    assert classify("cudaLaunchKernel", on) is ApiClass.BATCHABLE
    assert classify("cudaLaunchKernel", off) is ApiClass.REMOTABLE_SYNC


def test_pointer_attributes_localizable_with_avoidance():
    on = OptimizationFlags.all()
    off = OptimizationFlags.none()
    assert classify("cudaPointerGetAttributes", on) is ApiClass.LOCALIZABLE
    assert classify("cudaPointerGetAttributes", off) is ApiClass.REMOTABLE_SYNC


def test_mem_get_info_localizable_with_avoidance():
    on = OptimizationFlags.all()
    off = OptimizationFlags.none()
    assert classify("cudaMemGetInfo", on) is ApiClass.LOCALIZABLE
    assert classify("cudaMemGetInfo", off) is ApiClass.REMOTABLE_SYNC


def test_malloc_always_remotable():
    assert classify("cudaMalloc", OptimizationFlags.all()) is ApiClass.REMOTABLE_SYNC
    assert classify("cudaDeviceSynchronize", OptimizationFlags.all()) is ApiClass.REMOTABLE_SYNC


# --- policies ----------------------------------------------------------------------------

class FakeGpu:
    def __init__(self, device_id, free):
        self.device_id = device_id
        self.schedulable_free = free


def test_best_fit_packs_tightest():
    policy = BestFit()
    gpus = [FakeGpu(0, 10_000), FakeGpu(1, 4_000), FakeGpu(2, 7_000)]
    assert policy.choose(gpus, 3_000) == 1


def test_worst_fit_spreads():
    policy = WorstFit()
    gpus = [FakeGpu(0, 10_000), FakeGpu(1, 4_000), FakeGpu(2, 7_000)]
    assert policy.choose(gpus, 3_000) == 0


def test_policy_returns_none_when_nothing_fits():
    policy = BestFit()
    gpus = [FakeGpu(0, 1_000)]
    assert policy.choose(gpus, 3_000) is None


def test_policy_empty_candidates():
    assert BestFit().choose([], 1) is None


def test_best_fit_tie_break_is_deterministic():
    policy = BestFit()
    gpus = [FakeGpu(1, 5_000), FakeGpu(0, 5_000)]
    assert policy.choose(gpus, 1_000) == 0


def test_make_policy():
    assert make_policy("best_fit").name == "best_fit"
    assert make_policy("worst_fit").name == "worst_fit"
    assert make_policy("first_fit").name == "first_fit"
    with pytest.raises(ConfigurationError):
        make_policy("magic")
