"""Integration: the shipped volume-scaled mix runs through ``run_mix``.

``run_mix`` profiles each job's volume-scaled spec for its solo
Equation-1 prediction, so a half-volume SVM, whose HDFS reads issue
64 MB requests instead of the spec's 128 MB, must survive the
profiler's iostat request-size cross-check.
"""

from pathlib import Path

from repro.cli import _load_mix_plan
from repro.pipeline import ClusterPlatform, Experiment

PLAN = Path(__file__).resolve().parents[2] / "examples/mixes/lr_svm_staggered.json"


def test_volume_scaled_mix_runs_end_to_end():
    policy, jobs = _load_mix_plan(str(PLAN))
    assert any(job.volume_scale != 1.0 for job in jobs)
    experiment = Experiment(jobs[0].spec, ClusterPlatform())
    result = experiment.run_mix(jobs, policy=policy, nodes=2, cores_per_node=4)
    assert [job.volume_scale for job in result.jobs] == [
        job.volume_scale for job in jobs
    ]
    for job in result.jobs:
        assert job.slowdown >= 1.0 - 1e-9
        assert job.result.predicted_seconds > 0
