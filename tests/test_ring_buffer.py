"""The collector's metric histories stay bounded at ``max_samples``."""


def test_collector_histories_are_bounded():
    from repro.monitor.collectors import (
        CollectorConfig,
        GaugeSample,
        MetricsCollector,
    )
    from repro.sim import Simulator
    from repro.training.job import TrainingJob
    from repro.training.metrics import StepMetrics
    from repro.workloads.scenarios import _dense_job

    sim = Simulator()
    job = TrainingJob(sim, _dense_job(2))
    collector = MetricsCollector(sim, job,
                                 CollectorConfig(max_samples=16))
    for i in range(100):
        collector.steps.append(StepMetrics(
            step=i, time=float(i), duration_s=1.0, loss=1.0,
            grad_norm=0.4, mfu=0.35, tokens=4096))
        collector.gauges.append(GaugeSample(
            time=float(i), rdma_traffic_frac=1.0,
            tensorcore_util_frac=0.5))
    for buf in (collector.steps, collector.gauges):
        assert len(buf) == 16
        assert buf[0].time == 84.0 and buf[-1].time == 99.0
