"""The README scenario catalog is generated, not hand-maintained.

These tests pin three invariants of the scenario-ized benchmark
surface:

* the README "Scenario catalog" section matches
  ``repro list-scenarios --markdown`` byte for byte (docs cannot rot);
* the registry stays large enough to cover every paper artifact;
* every figure/table/ablation benchmark driver goes through a
  registered scenario + ``SweepSpec`` — no hand-wired scenario
  construction left in ``benchmarks/``;
* each scenario parameter is declared once, as a ``ParamSpec``: the
  builder accepts every declared parameter, requires nothing else, and
  carries no default for a parameter its scenarios always declare.
"""

import functools
import glob
import inspect
import os
import re

from repro.cli import main
from repro.experiments import (
    iter_scenarios,
    list_scenarios,
    scenario_catalog_markdown,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(REPO_ROOT, "README.md")
BEGIN = "<!-- scenario-catalog:begin -->"
END = "<!-- scenario-catalog:end -->"


def readme_catalog_section() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    match = re.search(re.escape(BEGIN) + r"\n(.*?)\n" + re.escape(END),
                      text, flags=re.S)
    assert match, "README is missing the scenario-catalog markers"
    return match.group(1)


def test_readme_catalog_matches_registry():
    assert readme_catalog_section() == scenario_catalog_markdown(), (
        "README scenario catalog is stale — regenerate it with:\n"
        "  python -m repro list-scenarios --markdown\n"
        "and paste the output between the scenario-catalog markers")


def test_readme_catalog_matches_cli_output(capsys):
    assert main(["list-scenarios", "--markdown"]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert readme_catalog_section() == out


def test_registry_covers_the_paper_artifacts():
    names = list_scenarios()
    assert len(names) >= 15
    for expected in ("restart-replay", "hang-breakdown",
                     "replay-localization", "stack-aggregation",
                     "backup-survival", "backup-recovery",
                     "hotupdate-ladder", "hotupdate-policy",
                     "was-time", "incident-census", "root-cause-mix",
                     "detection-latency", "resolution-cost",
                     "scheduling-cost", "checkpoint-efficiency",
                     "eviction-policy", "standby-quantile"):
        assert expected in names


def test_benchmark_drivers_consume_sweeps_only():
    """Every figure/table/ablation driver is a SweepSpec consumer, and
    none constructs a scenario/system by hand."""
    drivers = sorted(glob.glob(os.path.join(
        REPO_ROOT, "benchmarks", "test_*.py")))
    assert len(drivers) >= 18
    forbidden = ("ByteRobustSystem", "small_managed_system",
                 "production_scenario", "Simulator(")
    for path in drivers:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        name = os.path.basename(path)
        assert "SweepSpec" in source, (
            f"{name} does not obtain its data via a SweepSpec")
        for token in forbidden:
            assert token not in source, (
                f"{name} hand-wires scenarios ({token!r}); register a "
                f"scenario in repro.workloads.paper instead")


def _underlying(builder):
    return builder.func if isinstance(builder, functools.partial) \
        else builder


def test_builders_accept_exactly_the_declared_params():
    for spec in iter_scenarios():
        params = inspect.signature(spec.builder).parameters
        for name in spec.params:
            assert name in params, (
                f"{spec.name}: builder does not accept declared "
                f"parameter {name!r}")
        for name, param in params.items():
            if name in spec.params:
                continue
            assert param.kind not in (param.VAR_POSITIONAL,
                                      param.VAR_KEYWORD), spec.name
            assert param.default is not param.empty, (
                f"{spec.name}: builder requires undeclared parameter "
                f"{name!r}")


def test_declared_params_have_no_builder_default():
    """A default on a parameter that every scenario using the builder
    declares is dead code: the registry always passes the
    ``ParamSpec`` default by keyword."""
    declared_by_builder = {}
    for spec in iter_scenarios():
        builder = _underlying(spec.builder)
        names = set(spec.params)
        declared_by_builder[builder] = (
            declared_by_builder.get(builder, names) & names)
    for builder, always_declared in declared_by_builder.items():
        params = inspect.signature(builder).parameters
        for name in sorted(always_declared):
            assert params[name].default is params[name].empty, (
                f"{builder.__name__}: {name!r} is declared by every "
                f"scenario it builds, so it must not carry a default")
