"""Cluster-level wiring: machines hanging off a two-level switch fabric.

Switch state matters because a down leaf switch simultaneously takes
every attached machine off the network — the paper's inspection rules
treat switch events specially (two consecutive unresponsive events
before alerting, Table 3) precisely because switches sometimes recover
on their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.cluster.components import ComponentStore, Machine, MachineSpec


class Switch:
    """A leaf switch connecting a block of machines; ``up`` lives in
    the cluster's :class:`ComponentStore`."""

    __slots__ = ("id", "machine_ids", "_store")

    def __init__(self, id: int, machine_ids: List[int],
                 store: ComponentStore):
        self.id = id
        #: Machines cabled to this switch (ids).
        self.machine_ids = machine_ids
        self._store = store

    @property
    def up(self) -> bool:
        return self._store.switch_up.item(self.id)

    @up.setter
    def up(self, value: bool) -> None:
        self._store.set_switch(self.id, value)


@dataclass(frozen=True)
class ClusterSpec:
    """Fleet shape: how many machines, their hardware, and cabling."""

    num_machines: int
    machine_spec: MachineSpec = field(default_factory=MachineSpec)
    machines_per_switch: int = 16

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ValueError("cluster needs at least one machine")
        if self.machines_per_switch < 1:
            raise ValueError("machines_per_switch must be >= 1")

    @property
    def total_gpus(self) -> int:
        return self.num_machines * self.machine_spec.gpus_per_machine


class Cluster:
    """The full fleet: machines + switches with health queries."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        n, per = spec.num_machines, spec.machines_per_switch
        #: The single source of component health for the whole fleet.
        self.store = ComponentStore(
            n, spec.machine_spec, np.arange(n, dtype=np.intp) // per)
        self.machines: List[Machine] = [
            Machine(i, spec.machine_spec, self.store) for i in range(n)]
        for machine in self.machines:
            machine.switch_id = machine.id // per
        self.switches: List[Switch] = [
            Switch(sw_id, list(range(sw_id * per, min((sw_id + 1) * per, n))),
                   self.store)
            for sw_id in range(-(-n // per))]

    def health_version(self) -> int:
        """Cluster-wide change counter: bumps on *any* component write.

        Equal values across two instants prove no machine or switch
        state changed in between, which lets periodic sweeps skip
        re-scanning a provably-unchanged fleet.
        """
        return self.store.version

    # ------------------------------------------------------------------
    def machine(self, machine_id: int) -> Machine:
        if not 0 <= machine_id < len(self.machines):
            raise ValueError(f"machine {machine_id} out of range")
        return self.machines[machine_id]

    def switch_of(self, machine_id: int) -> Switch:
        sw_id = self.machine(machine_id).switch_id
        assert sw_id is not None
        return self.switches[sw_id]

    def machines_on_switch(self, switch_id: int) -> List[Machine]:
        return [self.machines[i] for i in self.switches[switch_id].machine_ids]

    def switches_of(self, machine_ids: Iterable[int]) -> List[int]:
        """Distinct leaf-switch ids the machine set hangs off, sorted."""
        return sorted({self.machine(mid).switch_id for mid in machine_ids})

    def switch_span(self, machine_ids: Iterable[int]) -> int:
        """How many leaf switches the machine set touches — the blast-
        radius / traffic-locality score the placement policies optimize
        (:mod:`repro.cluster.placement`)."""
        return len(self.switches_of(machine_ids))

    def network_reachable(self, machine_id: int) -> bool:
        """Machine has a working network path (NICs up and switch up)."""
        machine = self.machine(machine_id)
        return (self.switch_of(machine_id).up
                and any(n.up for n in machine.nics))

    def unhealthy_machines(self,
                           among: Optional[Iterable[int]] = None
                           ) -> List[int]:
        ids = range(len(self.machines)) if among is None else among
        return [i for i in ids
                if not self.machines[i].healthy()
                or not self.network_reachable(i)]

    @property
    def total_gpus(self) -> int:
        return self.spec.total_gpus

    def __len__(self) -> int:
        return len(self.machines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cluster {len(self.machines)} machines, "
                f"{len(self.switches)} switches>")
