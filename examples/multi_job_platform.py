#!/usr/bin/env python3
"""A shared GPU platform with dynamic job churn.

ByteRobust manages an entire fleet (the paper's census covers 778,135
jobs over three months): jobs arrive at any time, queue when the
cluster is full, complete and hand their machines to whoever waits —
and every job carries its own management stack while sharing one
machine pool and one warm-standby reserve.  This example runs three
jobs, breaks two of them, then submits two more mid-simulation: a
high-priority job that jumps the queue the moment capacity frees, and
a small job that backfills into the gap.

Run:  python examples/multi_job_platform.py
"""

from repro.cluster.faults import (
    Fault,
    FaultSymptom,
    JobEffect,
    RootCause,
    RootCauseDetail,
)
from repro.core.platform import JobSpec, TrainingPlatform
from repro.parallelism import ParallelismConfig
from repro.training import TrainingJobConfig
from repro.training.model import ModelSpec


def job_config(name, machines, params):
    return TrainingJobConfig(
        model=ModelSpec(name, params, params, 16, seq_len=4096),
        parallelism=ParallelismConfig(tp=2, pp=2,
                                      dp=machines * 2 // 4,
                                      gpus_per_machine=2),
        global_batch_size=128, gpu_peak_tflops=500.0)


def main() -> None:
    platform = TrainingPlatform(total_machines=32)
    # alpha completes after 1.5 h and returns its 8 machines
    alpha = platform.submit(JobSpec("alpha-7b", job_config("alpha", 8, 7e9),
                                    duration_s=1.5 * 3600))
    # beta and gamma run open-ended and are never preempted
    beta = platform.submit(JobSpec("beta-13b", job_config("beta", 8, 13e9),
                                   preemptible=False))
    platform.submit(JobSpec("gamma-3b", job_config("gamma", 4, 3e9),
                            preemptible=False))
    platform.start()
    print(f"fleet: {len(platform.cluster.machines)} machines; jobs: "
          + ", ".join(f"{m.name} ({m.job.num_machines} machines)"
                      for m in platform.jobs.values()))

    # break alpha with a lost GPU and beta with a hang, 10 min apart
    platform.sim.schedule_at(1800, lambda: platform.injector.inject(
        Fault(symptom=FaultSymptom.GPU_UNAVAILABLE,
              root_cause=RootCause.INFRASTRUCTURE,
              detail=RootCauseDetail.GPU_LOST,
              machine_ids=[alpha.job.machines[2]],
              log_signature="CUDA error: device unavailable",
              exit_code=134)))
    platform.sim.schedule_at(2400, lambda: platform.injector.inject(
        Fault(symptom=FaultSymptom.JOB_HANG,
              root_cause=RootCause.INFRASTRUCTURE,
              detail=RootCauseDetail.DEFECTIVE_CUDA_CORES,
              machine_ids=[beta.job.machines[5]],
              effect=JobEffect.HANG)))

    # mid-simulation arrivals: delta needs more than is free, so the
    # scheduler reserves alpha's machines for it (EASY backfill);
    # epsilon finishes before that reservation and may slip past
    platform.sim.schedule_at(3600, lambda: platform.submit(JobSpec(
        "delta-30b", job_config("delta", 16, 30e9), priority=5)))
    platform.sim.schedule_at(4000, lambda: platform.submit(JobSpec(
        "epsilon-1b", job_config("epsilon", 4, 1e9), duration_s=1200)))

    platform.run_until(8 * 3600)
    report = platform.fleet_report()

    print("\n=== per-job outcomes ===")
    for name, stats in report["jobs"].items():
        wait = (f" wait={stats['wait_s']:.0f}s"
                if stats["wait_s"] else "")
        print(f"  {name:<10} {stats['lifecycle']:<9} "
              f"step={stats['final_step']:>5} "
              f"ETTR={stats['cumulative_ettr']:.4f} "
              f"incidents={stats['incidents']}{wait}")
    print("\n=== incident detail ===")
    for managed in platform.jobs.values():
        for inc in managed.incident_log.resolved():
            print(f"  [{managed.name}] {inc.symptom.value} via "
                  f"{inc.mechanism}, evicted {inc.evicted_machines}, "
                  f"unproductive "
                  f"{inc.total_unproductive_seconds:.0f}s")
    sched = report["scheduler"]
    print(f"\nscheduler: {sched['started']} started, "
          f"{sched['completed']} completed, "
          f"{sched['backfilled']} backfilled")
    print(f"pool after churn: {report['pool']}")
    print(f"standby: target {report['standby']['target']}, "
          f"shortfall {report['standby']['shortfall']}")
    print("\ndelta held a reservation on alpha's machines and started "
          "the moment they came\nback; epsilon backfilled past it "
          "because it finished before that reservation —\ndynamic "
          "churn with per-job isolation and shared spare capacity.")


if __name__ == "__main__":
    main()
