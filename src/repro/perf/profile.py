"""cProfile hotspot reports for registered scenarios.

``repro perf --profile <scenario>`` answers "where does the wall-clock
go?" without leaving the CLI: it runs the scenario once under
:mod:`cProfile` and reports the top functions by cumulative time —
the view that surfaces the expensive *subsystems* (sweeps, scheduler
scans, loss math), not just the innermost leaf calls.

:func:`profile_scenario` returns a JSON-serializable payload (written
via ``--output`` for offline diffing); :func:`format_profile` renders
the human table the CLI prints.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Dict, List, Optional

#: Bump when the payload layout changes.
PROFILE_SCHEMA_VERSION = 1


def _location(filename: str, lineno: int, funcname: str) -> str:
    """Compact ``path:line function`` label, repo paths made relative."""
    if filename == "~":                  # builtins
        return funcname
    for marker in ("/src/", "/site-packages/", "/lib/python"):
        idx = filename.rfind(marker)
        if idx >= 0:
            filename = filename[idx + len(marker):]
            break
    return f"{filename}:{lineno} {funcname}"


def profile_scenario(scenario: str,
                     params: Optional[Dict[str, Any]] = None,
                     top: int = 25) -> Dict[str, Any]:
    """Run ``scenario`` once under cProfile; top-``top`` by cumtime.

    The scenario is built and run exactly as ``repro run`` would
    (registered defaults plus ``params`` overrides); the profiler
    wraps only the build+run, not registry lookup or imports.
    """
    from repro.experiments.registry import get_scenario

    handle = get_scenario(scenario)
    overrides = dict(params or {})
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        handle.build(**overrides).run()
    finally:
        # a build or run that raises must not leave the profiler
        # installed, or the next enable() fails
        profiler.disable()

    stats = pstats.Stats(profiler)
    entries = sorted(stats.stats.items(),  # type: ignore[attr-defined]
                     key=lambda kv: kv[1][3], reverse=True)
    rows: List[Dict[str, Any]] = []
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) \
            in entries[:max(1, top)]:
        rows.append({
            "function": _location(filename, lineno, funcname),
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": tt,
            "cumtime_s": ct,
        })
    return {
        "schema": PROFILE_SCHEMA_VERSION,
        "scenario": scenario,
        "params": overrides,
        "total_s": stats.total_tt,  # type: ignore[attr-defined]
        "top": top,
        "rows": rows,
    }


def format_profile(payload: Dict[str, Any]) -> str:
    """The text table ``repro perf --profile`` prints."""
    lines = [f"# profile {payload['scenario']} "
             f"({payload['total_s']:.2f}s total, "
             f"top {len(payload['rows'])} by cumtime)",
             f"{'cumtime':>9} {'tottime':>9} {'ncalls':>10}  function"]
    for row in payload["rows"]:
        ncalls = (str(row["ncalls"])
                  if row["ncalls"] == row["primitive_calls"]
                  else f"{row['ncalls']}/{row['primitive_calls']}")
        lines.append(f"{row['cumtime_s']:>8.3f}s {row['tottime_s']:>8.3f}s "
                     f"{ncalls:>10}  {row['function']}")
    return "\n".join(lines)
