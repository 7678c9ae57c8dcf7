"""The repository benchmark: fleet-simulation and sweep-fabric workloads.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a source checkout and
prints one JSON result line; ``BENCHMARK.json`` at the repository root
lists the workloads and metrics.  Modules:

- :mod:`perfbench.run` — the command: repetitions in fresh processes,
  medians, cross-run correctness checks, the result line.
- :mod:`perfbench.rep` — one repetition (set-up, measured run, checks)
  inside a fresh interpreter.
- :mod:`perfbench.trace` — the outside-in span tracer and the
  simulated-time sampler used by traced runs.
- :mod:`perfbench.layers` — layer names, the module → layer table and
  the layer → end-to-end metric → workload predictions.
"""
