"""RCCE power-management API: runtime voltage/frequency control.

The SCC exposes 6 voltage islands (2x2 tiles, 8 cores each) and a
frequency divider per tile; RCCE wraps them in ``RCCE_iset_power`` /
``RCCE_wait_power``.  The paper's Sec. IV-D configurations are *boot*
settings, but the same machinery allows changing core frequency at run
time — this module models it:

- :class:`PowerManager` tracks the live per-tile frequencies and
  per-island voltages of a chip and computes live power;
- frequency-only changes are fast (divider reprogram, microseconds);
  raising voltage stalls the island for ~1 ms (RC ramp), matching the
  asymmetry RCCE documents;
- :meth:`RCCEComm.set_power <repro.rcce.api.RCCEComm>` is wired through
  :meth:`PowerManager.request_transition` by the runtime.

``examples/power_aware_spmv.py`` uses this to race-to-idle a skewed
SpMV: UEs that finish their block early clock their island down.
"""

from __future__ import annotations

from typing import List, Tuple

from ..scc.chip import SCCConfig
from ..scc.params import CORE_FREQS_MHZ
from ..scc.power import chip_power, core_voltage
from ..scc.topology import SCCTopology

__all__ = [
    "N_VOLTAGE_DOMAINS",
    "FREQ_CHANGE_SECONDS",
    "VOLTAGE_RAMP_SECONDS",
    "PowerManager",
]

#: six 2x2-tile voltage islands on the 6x4 mesh.
N_VOLTAGE_DOMAINS = 6

#: reprogramming a tile's frequency divider (fast path).
FREQ_CHANGE_SECONDS = 2e-6
#: ramping an island's voltage up or down (slow path).
VOLTAGE_RAMP_SECONDS = 1e-3


def domain_of_tile(tile_x: int, tile_y: int) -> int:
    """Voltage island of the tile at mesh coordinate (x, y)."""
    return (tile_y // 2) * 3 + (tile_x // 2)


class PowerManager:
    """Live frequency/voltage state of one SCC chip.

    Starts from a boot :class:`SCCConfig`; islands may then be retuned
    at run time.  All mutation goes through
    :meth:`request_transition`, which returns the stall time the
    requesting core observes (the RCCE_wait_power semantics).
    """

    def __init__(self, config: SCCConfig, topology: SCCTopology | None = None) -> None:
        self.topology = topology or SCCTopology()
        self.config = config
        self.tile_mhz: List[float] = list(config.tile_mhz)
        self._domain_tiles: List[List[int]] = [[] for _ in range(N_VOLTAGE_DOMAINS)]
        for t in self.topology.tiles:
            self._domain_tiles[domain_of_tile(t.x, t.y)].append(t.tile_id)
        self._domain_voltage: List[float] = [0.0] * N_VOLTAGE_DOMAINS
        for d in range(N_VOLTAGE_DOMAINS):
            self._domain_voltage[d] = self._required_voltage(d)
        #: audit trail of (domain, mhz, stall_seconds) transitions.
        self.transitions: List[Tuple[int, float, float]] = []

    # -- lookups ---------------------------------------------------------

    def domain_of_core(self, core: int) -> int:
        """Voltage island owning this core's tile."""
        t = self.topology.tile_of_core(core)
        return domain_of_tile(t.x, t.y)

    def tiles_of_domain(self, domain: int) -> List[int]:
        """Tile ids of one 2x2 voltage island."""
        if not 0 <= domain < N_VOLTAGE_DOMAINS:
            raise ValueError(f"domain {domain} out of range [0, {N_VOLTAGE_DOMAINS})")
        return list(self._domain_tiles[domain])

    def frequency_of_core(self, core: int) -> float:
        """Current clock (MHz) of the core's tile."""
        return self.tile_mhz[self.topology.tile_of_core(core).tile_id]

    def voltage_of_domain(self, domain: int) -> float:
        """Current supply voltage of one island."""
        if not 0 <= domain < N_VOLTAGE_DOMAINS:
            raise ValueError(f"domain {domain} out of range [0, {N_VOLTAGE_DOMAINS})")
        return self._domain_voltage[domain]

    def _required_voltage(self, domain: int) -> float:
        freqs = [self.tile_mhz[t] for t in self._domain_tiles[domain]]
        return max(core_voltage(f) for f in freqs if f > 0) if any(freqs) else 0.0

    # -- mutation ---------------------------------------------------------

    def request_transition(self, domain: int, mhz: float) -> float:
        """Set every tile of ``domain`` to ``mhz``; returns stall seconds.

        The stall is asymmetric, as on the chip: *raising* voltage must
        complete before the divider can switch up (the requester blocks
        for the ramp), while *lowering* switches the divider first and
        lets the voltage ramp down in the background — the requester
        only pays the divider reprogram.
        """
        if mhz not in CORE_FREQS_MHZ:
            raise ValueError(f"core frequency {mhz} MHz not on the menu {CORE_FREQS_MHZ}")
        old_voltage = self._domain_voltage[domain]
        for t in self.tiles_of_domain(domain):
            self.tile_mhz[t] = mhz
        new_voltage = self._required_voltage(domain)
        self._domain_voltage[domain] = new_voltage
        stall = FREQ_CHANGE_SECONDS
        if new_voltage > old_voltage:
            stall += VOLTAGE_RAMP_SECONDS
        self.transitions.append((domain, mhz, stall))
        return stall

    # -- observation --------------------------------------------------------

    def chip_power(self) -> float:
        """Live full-chip wattage at the current operating points."""
        return chip_power(self.tile_mhz, self.config.mesh_mhz, self.config.mem_mhz)

    def energy_rate_snapshot(self) -> Tuple[Tuple[float, ...], float]:
        """(per-tile MHz, watts) — for integrating energy over intervals."""
        return tuple(self.tile_mhz), self.chip_power()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        uniq = sorted(set(self.tile_mhz))
        return f"<PowerManager tiles@{uniq} MHz, {self.chip_power():.1f} W>"
