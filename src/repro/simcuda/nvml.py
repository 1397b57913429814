"""NVML-style GPU utilization sampling.

The paper's Figure 7 methodology: "Utilization data is acquired from
NVIDIA's NVML every 200 milliseconds and is defined as the percentage of
time over the past sample period that one or more kernels were being
executed.  For GPUs used in our evaluation, the sample time is 167
milliseconds.  The figure shows a moving average window of size 5."

:class:`NvmlSampler` polls each GPU at the query interval and reports the
busy fraction of the trailing NVML sample window, then the experiment code
applies :func:`moving_average`.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.sim.core import Environment
from repro.simcuda.device import SimGPU

__all__ = ["NvmlSampler", "moving_average"]


class NvmlSampler:
    """Periodic utilization sampler over a set of GPUs."""

    def __init__(
        self,
        env: Environment,
        devices: list[SimGPU],
        query_interval_s: float = 0.2,
        sample_window_s: float = 0.167,
    ):
        if query_interval_s <= 0 or sample_window_s <= 0:
            raise ValueError("intervals must be positive")
        self.env = env
        self.devices = devices
        self.query_interval_s = query_interval_s
        self.sample_window_s = sample_window_s
        self.times: list[float] = []
        #: device_id -> list of utilization samples in [0, 1]
        self.samples: dict[int, list[float]] = {d.device_id: [] for d in devices}
        self._proc = None
        self._stopped = False
        #: device_id -> repro.obs Gauge mirroring the sample stream
        self._gauges: dict[int, object] = {}
        #: device_id -> gauge of resident device-memory bytes
        self._mem_gauges: dict[int, object] = {}

    def bind_metrics(self, registry, **labels) -> None:
        """Publish each device's utilization as a ``gpu.utilization`` gauge
        series (plus ``gpu.mem_used_bytes``) in ``registry`` (labels
        identify the GPU server)."""
        for device in self.devices:
            self._gauges[device.device_id] = registry.gauge(
                "gpu.utilization", device=device.device_id, **labels
            )
            self._mem_gauges[device.device_id] = registry.gauge(
                "gpu.mem_used_bytes", device=device.device_id, **labels
            )

    def start(self):
        """Begin sampling; returns the sampler process."""
        self._proc = self.env.process(self._loop(), name="nvml-sampler")
        return self._proc

    def stop(self) -> None:
        """End sampling: no sample is taken after this call."""
        self._stopped = True

    def _loop(self) -> Generator:
        while True:
            yield self.env.timeout(self.query_interval_s)
            if self._stopped:
                # the tick already pending at stop() takes no sample
                return
            now = self.env.now
            start = max(0.0, now - self.sample_window_s)
            if now <= start:
                continue
            self.times.append(now)
            for device in self.devices:
                util = device.utilization(start, now)
                self.samples[device.device_id].append(util)
                gauge = self._gauges.get(device.device_id)
                if gauge is not None:
                    gauge.set(util, now)
                mem_gauge = self._mem_gauges.get(device.device_id)
                if mem_gauge is not None:
                    mem_gauge.set(device.mem_used, now)

    def series(self, device_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, utilization%) for one GPU."""
        return (
            np.asarray(self.times),
            np.asarray(self.samples[device_id]) * 100.0,
        )

    def average_utilization(self, device_id: Optional[int] = None) -> float:
        """Mean sampled utilization (%) for one GPU, or across all GPUs."""
        if device_id is not None:
            vals = self.samples[device_id]
            return float(np.mean(vals)) * 100.0 if vals else 0.0
        all_vals = [v for vals in self.samples.values() for v in vals]
        return float(np.mean(all_vals)) * 100.0 if all_vals else 0.0


def moving_average(values, window: int = 5) -> np.ndarray:
    """Trailing moving average with a growing warm-up window (paper Fig. 7)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values
    out = np.empty_like(values)
    csum = np.cumsum(values)
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        total = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out
