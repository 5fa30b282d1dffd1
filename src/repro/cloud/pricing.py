"""Cloud pricing: Table V disk prices and the configuration cost function.

The optimization target of Section VI::

    Cost = f(CoreNum, DiskTypes, DiskSize_HDFS, DiskSize_Spark_Local, Time)

Concretely: every worker node runs one machine instance and attaches two
persistent disks (HDFS and Spark-local); disks are billed per GB-month,
instances per hour, and the job occupies everything for ``Time``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.instance import MachineType
from repro.errors import ConfigurationError
from repro.units import MONTH_HOURS

#: Table V: Google Cloud disk prices per GB-month.
DISK_PRICE_PER_GB_MONTH: dict[str, float] = {
    "pd-standard": 0.040,
    "pd-ssd": 0.170,
}


def disk_price_ratio() -> float:
    """SSD / standard price ratio (the paper quotes 4.2x)."""
    return DISK_PRICE_PER_GB_MONTH["pd-ssd"] / DISK_PRICE_PER_GB_MONTH["pd-standard"]


def disk_cost_per_hour(kind: str, size_gb: float) -> float:
    """Hourly cost of one provisioned disk."""
    try:
        per_month = DISK_PRICE_PER_GB_MONTH[kind]
    except KeyError:
        raise ConfigurationError(
            f"no price for disk kind {kind!r};"
            f" expected one of {sorted(DISK_PRICE_PER_GB_MONTH)}"
        ) from None
    if size_gb < 0:
        raise ConfigurationError("disk size must be non-negative")
    return size_gb * per_month / MONTH_HOURS


@dataclass(frozen=True)
class CloudConfiguration:
    """One point of the Section-VI configuration space.

    Attributes
    ----------
    machine:
        Worker machine type (``CoreNum`` = its vCPUs).
    num_workers:
        ``N`` — worker node count.
    hdfs_disk_kind / hdfs_disk_gb:
        Type and provisioned size of the per-node HDFS disk.
    local_disk_kind / local_disk_gb:
        Type and provisioned size of the per-node Spark-local disk.
    """

    machine: MachineType
    num_workers: int
    hdfs_disk_kind: str
    hdfs_disk_gb: float
    local_disk_kind: str
    local_disk_gb: float

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigurationError("worker count must be positive")
        if self.hdfs_disk_gb <= 0 or self.local_disk_gb <= 0:
            raise ConfigurationError("disk sizes must be positive")

    @property
    def cores_per_node(self) -> int:
        """``P`` for the performance model."""
        return self.machine.vcpus

    def hourly_rate(self) -> float:
        """Cluster cost per hour: instances plus both disks, all workers."""
        per_node = (
            self.machine.price_per_hour
            + disk_cost_per_hour(self.hdfs_disk_kind, self.hdfs_disk_gb)
            + disk_cost_per_hour(self.local_disk_kind, self.local_disk_gb)
        )
        return per_node * self.num_workers

    def cost_for_runtime(self, runtime_seconds: float) -> float:
        """Dollars to run a job of ``runtime_seconds`` on this configuration."""
        if runtime_seconds < 0:
            raise ConfigurationError("runtime must be non-negative")
        return self.hourly_rate() * runtime_seconds / 3600.0

    def label(self) -> str:
        """Readable summary, e.g. ``16vCPU, HDFS=pd-standard 1000GB, ...``."""
        return (
            f"{self.machine.vcpus}vCPU x{self.num_workers},"
            f" HDFS={self.hdfs_disk_kind} {self.hdfs_disk_gb:.0f}GB,"
            f" local={self.local_disk_kind} {self.local_disk_gb:.0f}GB"
        )


def config_dict(config: CloudConfiguration) -> dict:
    """A configuration as the JSON mapping the CLI and the service emit."""
    return {
        "machine": config.machine.name,
        "vcpus": config.machine.vcpus,
        "num_workers": config.num_workers,
        "hdfs_disk_kind": config.hdfs_disk_kind,
        "hdfs_disk_gb": config.hdfs_disk_gb,
        "local_disk_kind": config.local_disk_kind,
        "local_disk_gb": config.local_disk_gb,
        "label": config.label(),
    }


def configuration_cost(
    config: CloudConfiguration, runtime_seconds: float
) -> float:
    """Functional form of ``Cost = f(..., Time)``."""
    return config.cost_for_runtime(runtime_seconds)
