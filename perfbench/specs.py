"""The benchmark's inputs: scaled workload specs and the query catalogues.

Every workload runs the paper's applications at one eighth of their
data volume (``SCALE``).  Partition, block and reducer geometry shrink
with the data, so per-task request sizes stay the paper's and the
profiler's request-size cross-checks still hold; only task counts, and
so simulator work per run, drop.  At full size one cold Fig.-3 grid
takes about 30 s and profiling GATK4 alone about 10 s on a 2-CPU host,
which leaves no room for repeated set-ups and several measured passes
inside one run.

The catalogues below are finite and fixed.  A run's seed only chooses
which catalogue entries it sends and in what order, so the reference
answers recorded in ``reference.json`` cover every seed.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

#: Data-volume divisor applied to every paper workload.
SCALE = 8

#: Profiling cluster size (the paper's four sample runs use N = 3).
PROFILE_NODES = 3

#: The seed a run uses when ``--seed`` is omitted, and the one kept out
#: of tuning, on which a claimed gain must also hold.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: The paper's five-run protocol: a run's seed picks one run index,
#: which selects one task-skew realization for sweep and tenants.
RUN_INDICES = 5


@lru_cache(maxsize=None)
def spec(name: str):
    """A paper workload at ``1/SCALE`` of its data volume."""
    from repro.workloads.gatk4 import Gatk4Parameters, make_gatk4_workload
    from repro.workloads.logistic_regression import (
        LogisticRegressionParameters,
        make_logistic_regression_workload,
    )
    from repro.workloads.pagerank import (
        PageRankParameters,
        make_pagerank_workload,
    )
    from repro.workloads.svm import SvmParameters, make_svm_workload
    from repro.workloads.terasort import (
        TerasortParameters,
        make_terasort_workload,
    )

    if name == "gatk4":
        p = Gatk4Parameters()
        return make_gatk4_workload(Gatk4Parameters(
            input_bytes=round(973 / SCALE) * p.hdfs_block_size,
            output_bytes=p.output_bytes / SCALE,
            shuffle_bytes=p.shuffle_bytes / SCALE,
        ))
    if name == "svm":
        p = SvmParameters()
        return make_svm_workload(SvmParameters(
            num_samples=p.num_samples // SCALE,
            num_partitions=p.num_partitions // SCALE,
            input_bytes=p.input_bytes / SCALE,
            cached_rdd_bytes=p.cached_rdd_bytes / SCALE,
            shuffle_bytes=p.shuffle_bytes / SCALE,
            num_reducers=p.num_reducers // SCALE,
        ))
    if name == "terasort":
        p = TerasortParameters()
        return make_terasort_workload(TerasortParameters(
            num_records=p.num_records // SCALE,
            total_bytes=p.total_bytes / SCALE,
            num_reducers=p.num_reducers // SCALE,
        ))
    if name == "lr":
        p = LogisticRegressionParameters()
        return make_logistic_regression_workload(
            LogisticRegressionParameters(
                num_examples=p.num_examples // SCALE,
                input_bytes=p.input_bytes / SCALE,
                parsed_rdd_bytes=p.parsed_rdd_bytes / SCALE,
            ),
            num_slaves=PROFILE_NODES,
        )
    if name == "pagerank":
        p = PageRankParameters()
        return make_pagerank_workload(PageRankParameters(
            num_vertices=p.num_vertices // SCALE,
            num_partitions=p.num_partitions // SCALE,
            input_bytes=p.input_bytes / SCALE,
            graph_rdd_bytes=p.graph_rdd_bytes / SCALE,
            ranks_bytes=p.ranks_bytes / SCALE,
        ))
    raise KeyError(name)


# -- sweep: the Fig.-3 style exp-vs-model grid --------------------------------

SWEEP_SLAVES = 3
#: ``(workload, core counts)`` rows of the grid; each row runs under
#: both placements below.
SWEEP_ROWS = (("gatk4", (12, 36)), ("svm", (8, 24)), ("terasort", (8, 24)))
SWEEP_PLACEMENTS = (("ssd", "ssd"), ("hdd", "hdd"))
#: The faulted cell: Terasort at P = 8 on 2SSD under this plan, with
#: speculation armed.
FAULT_PLAN = "examples/fault_plans/straggler_throttle.json"
FAULT_CELL = ("terasort", 8)


# -- tenants: cold multi-tenant mixes -----------------------------------------

TENANT_SLAVES = 3
TENANT_CORES = 8
TENANT_POLICIES = ("fifo", "fair")
#: Mix plan files, with the paper workloads they name mapped onto the
#: scaled specs.  The K = 1 mix is a lone Terasort job.
TENANT_MIXES = (
    "examples/mixes/terasort_pagerank.json",
    "examples/mixes/lr_svm_staggered.json",
    None,
)
TENANT_SPEC_NAMES = {
    "terasort": "terasort",
    "pagerank": "pagerank",
    "lr-small": "lr",
    "svm": "svm",
}


# -- search: cold exhaustive cost searches ------------------------------------

SEARCH_WORKLOADS = ("gatk4", "svm", "terasort")
SEARCH_WORKERS = tuple(range(4, 25))
SEARCH_VCPU_GRIDS = (
    (1, 2, 4, 8, 16, 32),
    (2, 4, 8, 16, 32, 64),
    (4, 8, 16, 32),
    (8, 16, 32, 64),
    (1, 4, 16, 64),
    (2, 8, 32),
    (4, 16, 64),
    (1, 2, 4, 8, 16, 32, 64),
)


@lru_cache(maxsize=None)
def search_catalogue() -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """Every ``(workload, num_workers, vcpu_grid)`` search a run may send."""
    return tuple(itertools.product(
        SEARCH_WORKLOADS, SEARCH_WORKERS, SEARCH_VCPU_GRIDS
    ))


# -- serve: open-loop what-if queries -----------------------------------------

SERVE_WORKLOADS = ("svm", "terasort", "lr")
SERVE_WORKERS = (4, 6, 8, 10, 12)
SERVE_VCPUS = (2, 4, 8, 16, 32, 64)
SERVE_DISK_KINDS = ("pd-standard", "pd-ssd")
#: Candidate per-node disk sizes; each (workload, N) keeps the five
#: smallest that satisfy the workload's capacity floor.
SERVE_SIZES_GB = (64.0, 128.0, 256.0, 384.0, 512.0, 768.0, 1024.0, 1536.0,
                  2048.0, 3072.0, 4096.0)
SERVE_SIZES_PER_AXIS = 5
SERVE_OPT_WORKERS = SEARCH_WORKERS
SERVE_OPT_GRIDS = SEARCH_VCPU_GRIDS
#: Optimizes are the middle ``SERVE_OPTIMIZES`` of those searches by
#: work, whose costs span less than 2x.  A 20-s serve run sends 108
#: optimizes and 12 simulates, so it sends each catalogue entry of
#: either kind exactly once, and the tail latency they set does not
#: hinge on which of them a seed happened to draw.
SERVE_OPTIMIZES = 108
#: Simulate queries run on small SVM and LR clusters.
SERVE_SIM_WORKLOADS = ("svm", "lr")
SERVE_SIM_SLAVES = (2, 3)
SERVE_SIM_CORES = (8,)
SERVE_SIM_DISKS = (("ssd", "ssd"), ("hdd", "ssd"), ("hdd", "hdd"))


def _search_work(query: dict) -> tuple[int, int]:
    """Candidates times stages of an exhaustive search: its cost order."""
    from repro.cloud.optimizer import DEFAULT_SIZE_GRID_GB, CostOptimizer

    workload = spec(query["workload"])
    min_hdfs, min_local = CostOptimizer.capacity_requirements(
        workload, num_workers=query["num_workers"]
    )
    candidates = (
        len(query["vcpu_grid"]) * 4
        * sum(size >= min_hdfs for size in DEFAULT_SIZE_GRID_GB)
        * sum(size >= min_local for size in DEFAULT_SIZE_GRID_GB)
    )
    return candidates * len(workload.stages), query["num_workers"]


@lru_cache(maxsize=None)
def serve_catalogue() -> dict[str, tuple[dict, ...]]:
    """Every query payload a serve run may send, by kind.

    Optimizes are the searches of middling work, ordered by it, and
    simulates are ordered by workload and cluster.
    """
    from repro.cloud.optimizer import CostOptimizer

    predicts = []
    for workload in SERVE_WORKLOADS:
        for workers in SERVE_WORKERS:
            min_hdfs, min_local = CostOptimizer.capacity_requirements(
                spec(workload), num_workers=workers
            )
            hdfs_sizes = [s for s in SERVE_SIZES_GB if s >= min_hdfs]
            local_sizes = [s for s in SERVE_SIZES_GB if s >= min_local]
            for vcpus, hdfs_kind, hdfs_gb, local_kind, local_gb in (
                itertools.product(
                    SERVE_VCPUS,
                    SERVE_DISK_KINDS,
                    hdfs_sizes[:SERVE_SIZES_PER_AXIS],
                    SERVE_DISK_KINDS,
                    local_sizes[:SERVE_SIZES_PER_AXIS],
                )
            ):
                predicts.append({
                    "kind": "predict", "workload": workload,
                    "vcpus": vcpus, "num_workers": workers,
                    "hdfs_kind": hdfs_kind, "hdfs_gb": hdfs_gb,
                    "local_kind": local_kind, "local_gb": local_gb,
                })
    searches = sorted(
        (
            {"kind": "optimize", "workload": workload, "num_workers": workers,
             "vcpu_grid": list(grid)}
            for workload, workers, grid in itertools.product(
                SERVE_WORKLOADS, SERVE_OPT_WORKERS, SERVE_OPT_GRIDS
            )
        ),
        key=_search_work,
    )
    middle = (len(searches) - SERVE_OPTIMIZES) // 2
    optimizes = searches[middle:middle + SERVE_OPTIMIZES]
    simulates = [
        {"kind": "simulate", "workload": workload, "slaves": slaves,
         "cores": cores, "hdfs": hdfs, "local": local}
        for workload, slaves, cores, (hdfs, local) in itertools.product(
            SERVE_SIM_WORKLOADS, SERVE_SIM_SLAVES, SERVE_SIM_CORES,
            SERVE_SIM_DISKS,
        )
    ]
    return {
        "predict": tuple(predicts),
        "optimize": tuple(optimizes),
        "simulate": tuple(simulates),
    }
