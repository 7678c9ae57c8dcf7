"""Warm-standby pool sizing (Sec. 6.2) and elastic resizing.

Failures at scale are overwhelmingly independent single-machine events,
so the number of machines failing within one provisioning horizon is
well modeled as Binomial(n, p): n active machines, per-machine failure
probability p over the horizon (estimated from historical daily rates).
ByteRobust provisions the P99 of that distribution as warm standbys —
enough for 99% of eviction events to be absorbed with zero scheduling
delay, without idling significant capacity.

A fleet is not a fixed-size job, though: the active machine count
moves with every arrival, completion and eviction, and a pool sized
once at start drifts out of tune.  :class:`StandbyResizer` closes that
loop — a periodic task that re-derives the target from the *current*
active fleet (either the binomial P99 or a flat target ratio) and
grows/shrinks the warm pool toward it, with a hysteresis deadband so
ordinary churn does not thrash provisioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.pool import MachinePool
    from repro.sim import Simulator


def simultaneous_failure_pmf(n: int, p: float,
                             k_max: Optional[int] = None) -> List[float]:
    """Binomial(n, p) pmf values for k = 0..k_max (numerically stable)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if k_max is None:
        k_max = n
    k_max = min(k_max, n)
    pmf = []
    # iterate via the recurrence pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p)
    if p == 0.0:
        return [1.0] + [0.0] * k_max
    if p == 1.0:
        return [0.0] * k_max + ([1.0] if k_max == n else [0.0])
    log_q = math.log1p(-p)
    current = math.exp(n * log_q)           # pmf(0)
    ratio = p / (1.0 - p)
    for k in range(k_max + 1):
        pmf.append(current)
        current *= (n - k) / (k + 1) * ratio
    return pmf


def binomial_quantile(n: int, p: float, q: float) -> int:
    """Smallest k with CDF(k) >= q.

    Streams the same pmf recurrence as
    :func:`simultaneous_failure_pmf` and stops at the quantile instead
    of materializing all n+1 terms — the resizer re-derives this every
    tick over fleet-sized n, where the answer sits at small k.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return 0
    if p == 1.0:
        return n
    log_q = math.log1p(-p)
    current = math.exp(n * log_q)           # pmf(0)
    ratio = p / (1.0 - p)
    cdf = 0.0
    for k in range(n + 1):
        cdf += current
        if cdf >= q:
            return k
        current *= (n - k) / (k + 1) * ratio
    return n


def binomial_p99(n: int, p: float) -> int:
    """P99 of simultaneous failures — the standby pool size."""
    return binomial_quantile(n, p, 0.99)


@dataclass
class StandbyPolicy:
    """Sizing policy for the warm-standby pool.

    ``daily_failure_prob`` is the per-machine probability of failing
    within the provisioning horizon, estimated from historical data.
    The default (0.12% per machine-day) makes the P99 column reproduce
    Table 5 exactly: 2 / 2 / 3 / 4 standbys at 128 / 256 / 512 / 1024
    machines.
    """

    daily_failure_prob: float = 0.0012
    quantile: float = 0.99
    #: never provision fewer than this many standbys
    min_standbys: int = 1

    def standby_count(self, num_active_machines: int) -> int:
        if num_active_machines <= 0:
            # an empty active fleet (dynamic platforms between jobs)
            # still keeps the configured floor warm
            return self.min_standbys
        k = binomial_quantile(num_active_machines, self.daily_failure_prob,
                              self.quantile)
        return max(self.min_standbys, k)

    def table5_row(self, num_active_machines: int,
                   gpus_per_machine: int) -> dict:
        """The #P99 column of Table 5 for one training scale."""
        count = self.standby_count(num_active_machines)
        return {
            "machines": num_active_machines,
            "gpus_per_machine": gpus_per_machine,
            "p99_standby_machines": count,
            "p99_standby_gpus": count * gpus_per_machine,
        }


@dataclass
class StandbyResizeConfig:
    """Knobs for elastic warm-pool resizing.

    ``target_ratio`` > 0 targets ``ceil(ratio * active)`` standbys;
    at 0 the target comes from the binomial :class:`StandbyPolicy`
    (the P99 sizing, now re-evaluated continuously instead of once).
    ``hysteresis`` is a deadband in machines: the resizer only acts
    when supply is more than ``hysteresis`` away from the target, so a
    single arrival or completion does not bounce a provisioning.
    """

    #: standbys per active machine (0 = use the binomial policy)
    target_ratio: float = 0.0
    #: seconds between resize evaluations
    interval_s: float = 900.0
    #: deadband in machines before any grow/shrink
    hysteresis: int = 1
    #: never shrink below this floor
    min_standbys: int = 1
    #: hard cap on the warm pool (None = uncapped)
    max_standbys: Optional[int] = None


@dataclass
class StandbyResizer:
    """Periodic elastic resizing of a shared warm-standby pool.

    Runs on the simulator's coalesced tick path
    (:meth:`~repro.sim.engine.Simulator.every_tick`), so fleets with
    many periodic tasks at the same cadence pay one heap entry.
    Supply counts in-flight provisioning, otherwise every tick during
    a pod build would re-provision the same gap; shrink only touches
    *ready* standbys (never cancels a build — a later tick reclaims
    surplus once built).
    """

    sim: "Simulator"
    pool: "MachinePool"
    sizing: StandbyPolicy = field(default_factory=StandbyPolicy)
    config: StandbyResizeConfig = field(
        default_factory=StandbyResizeConfig)
    stats: dict = field(default_factory=lambda: {
        "ticks": 0, "resizes": 0, "grown": 0, "shrunk": 0,
        "last_target": 0})
    _task: object = None

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("resizer already started")
        self._task = self.sim.every_tick(self.config.interval_s,
                                         self.resize_once)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    def target(self) -> int:
        """Standby target for the *current* active fleet."""
        active = len(self.pool.active)
        if self.config.target_ratio > 0:
            raw = math.ceil(self.config.target_ratio * active)
        else:
            raw = self.sizing.standby_count(active)
        raw = max(self.config.min_standbys, raw)
        if self.config.max_standbys is not None:
            raw = min(self.config.max_standbys, raw)
        return raw

    def resize_once(self) -> int:
        """One evaluation; returns the signed machine delta acted on."""
        self.stats["ticks"] += 1
        target = self.target()
        self.stats["last_target"] = target
        supply = self.pool.standby_supply
        if abs(target - supply) <= self.config.hysteresis:
            return 0
        if target > supply:
            grow = min(target - supply, self.pool.available())
            if grow > 0:
                self.pool.provision_standbys(grow)
                self.stats["resizes"] += 1
                self.stats["grown"] += grow
            return grow
        shrink = min(supply - target, len(self.pool.standby))
        released = self.pool.release_standbys(shrink)
        if released:
            self.stats["resizes"] += 1
            self.stats["shrunk"] += len(released)
        return -len(released)

    def report(self) -> dict:
        """JSON-safe resizer rollup for ``fleet_report()``."""
        return {
            "enabled": True,
            "interval_s": float(self.config.interval_s),
            "target_ratio": float(self.config.target_ratio),
            "hysteresis": int(self.config.hysteresis),
            **{k: int(v) for k, v in sorted(self.stats.items())},
        }
