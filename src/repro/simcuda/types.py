"""Plain data types of the CUDA surface (dim3, device properties, pointer
attributes)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Dim3", "DeviceProperties", "PointerAttributes", "V100_PROPERTIES",
    "KB", "MB", "GB",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class Dim3:
    """CUDA's dim3 launch dimensions."""

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self):
        if min(self.x, self.y, self.z) < 1:
            raise ValueError(f"dim3 components must be >= 1, got {self}")

    @property
    def count(self) -> int:
        return self.x * self.y * self.z


@dataclass(frozen=True)
class DeviceProperties:
    """Subset of ``cudaDeviceProp`` the workloads query."""

    name: str
    total_global_mem: int
    multiprocessor_count: int
    clock_rate_khz: int
    compute_capability: tuple[int, int]
    pci_bus_id: int = 0

    def as_dict(self) -> dict:
        """What ``cudaGetDeviceProperties`` hands a function: a plain dict,
        as the real system marshals a struct rather than a live object."""
        return {
            "name": self.name,
            "total_global_mem": self.total_global_mem,
            "multiprocessor_count": self.multiprocessor_count,
            "clock_rate_khz": self.clock_rate_khz,
            "compute_capability": self.compute_capability,
        }


@dataclass(frozen=True)
class PointerAttributes:
    """Result of ``cudaPointerGetAttributes``."""

    is_device: bool
    device_id: int
    size: int


#: The GPUs used in the paper's testbed (AWS p3.8xlarge: 4x V100 16 GB).
V100_PROPERTIES = DeviceProperties(
    name="Tesla V100-SXM2-16GB",
    total_global_mem=16 * GB,
    multiprocessor_count=80,
    clock_rate_khz=1_530_000,
    compute_capability=(7, 0),
)

