"""The abstract machine description every model substrate plugs into.

The paper's study is expressed against one hard-wired machine — the
48-core SCC — but its *method* (calibrated per-core timing + cache
characterization + interconnect/MC contention + power) generalizes to
any many-core whose memory system is the first-order effect.  This
module defines the contract a machine must satisfy for
:class:`repro.core.experiment.SpMVExperiment` to run on it:

- :class:`CacheGeometry` — the per-core cache hierarchy the stream
  characterizer (:mod:`repro.core.trace`) is parameterized by;
- :class:`Topology` — core count, per-core memory-controller
  assignment and hop distances (drives the distance-reduction mapping
  and the Eq.-1-style latency);
- :class:`MemorySystemModel` — per-MC bandwidth plus the three latency
  coefficients of the paper's Eq. 1 form
  ``lat_core/f_core + lat_mesh_per_hop*hops/f_mesh + lat_mem/f_mem``;
- :class:`InterconnectModel` — point-to-point message timing, enough
  for the analytic barrier recurrence
  (:func:`repro.core.timing.barrier_exit_times`);
- :class:`MachineConfig` — a bootable configuration (clocks, L2
  switch, full-chip power);
- :class:`MachineModel` — the factory tying them together, registered
  under a stable id in :mod:`repro.machine.registry`.

This module is deliberately free of imports from the rest of the
package: concrete machines (:mod:`repro.machine.sccmachine`,
:mod:`repro.machine.xeonphi`, :mod:`repro.machine.ft2000plus`) depend
on it, never the other way around (:meth:`MachineModel.cache_key`
alone looks up the registry instance, at call time).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Protocol, Tuple, runtime_checkable

__all__ = [
    "DEFAULT_MACHINE",
    "CacheGeometry",
    "CoreTimingParams",
    "MachineConfig",
    "UniformMachineConfig",
    "Topology",
    "MemorySystemModel",
    "InterconnectModel",
    "PowerModel",
    "MachineParams",
    "MachineModel",
]

#: registry id of the machine every default resolves to (the paper's).
DEFAULT_MACHINE = "scc-48"


@dataclass(frozen=True)
class CacheGeometry:
    """Per-core cache hierarchy the analytic stream model sees.

    ``l2_bytes`` is the capacity *available to one core* — for machines
    whose L2 is shared by a cluster (FT-2000+: 2 MB per 4 cores) it is
    the per-core share, which is what the HOTL working-set model needs.
    """

    line_bytes: int
    l1_bytes: int
    l2_bytes: int
    assoc: int

    def __post_init__(self) -> None:
        for name in ("line_bytes", "l1_bytes", "l2_bytes", "assoc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class CoreTimingParams:
    """Per-element SpMV cycle costs of one core (generic machines).

    Field-compatible with :class:`repro.scc.params.P54CTimingParams` —
    the timing composition
    (:func:`repro.sparse.fastpath.base_compute_times`) duck-types over
    exactly these four fields, so any machine can supply its own.
    """

    base_cycles_per_nnz: float
    row_overhead_cycles: float
    l2_hit_cycles: float
    call_overhead_cycles: float

    def __post_init__(self) -> None:
        for name in (
            "base_cycles_per_nnz",
            "row_overhead_cycles",
            "l2_hit_cycles",
            "call_overhead_cycles",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@runtime_checkable
class MachineConfig(Protocol):
    """Structural type of a bootable machine configuration.

    The SCC's :class:`~repro.scc.chip.SCCConfig` (per-tile frequency
    vector) and the generic :class:`UniformMachineConfig` both satisfy
    it; generic code paths (:mod:`repro.core.experiment`,
    :mod:`repro.core.timing`) annotate against this name rather than
    the SCC-specific one.
    """

    name: str
    mesh_mhz: float
    mem_mhz: float
    l2_enabled: bool

    def core_mhz_of_core(self, core: int) -> float: ...

    def full_chip_power(self) -> float: ...


@dataclass(frozen=True)
class UniformMachineConfig:
    """A configuration whose cores all run one clock (non-SCC machines).

    ``power_watts`` is the calibrated full-chip power of this operating
    point (source papers publish chip/TDP-class figures, not a per-rail
    model like the SCC's); ``full_chip_power`` simply reports it so the
    MFLOPS/W metrics compose identically across the zoo.
    """

    name: str
    core_mhz: float
    mesh_mhz: float
    mem_mhz: float
    l2_enabled: bool = True
    power_watts: float = 0.0

    def __post_init__(self) -> None:
        for name in ("core_mhz", "mesh_mhz", "mem_mhz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.power_watts < 0:
            raise ValueError(f"power_watts must be >= 0, got {self.power_watts}")

    def core_mhz_of_core(self, core: int) -> float:
        """Core clock (MHz); uniform across the chip."""
        return self.core_mhz

    @property
    def is_uniform(self) -> bool:
        return True

    @property
    def core_mhz_value(self) -> float:
        return self.core_mhz

    def full_chip_power(self) -> float:
        """Calibrated full-chip watts of this operating point."""
        return self.power_watts

    def with_l2(self, enabled: bool) -> "UniformMachineConfig":
        """Copy of this config with the L2 caches toggled."""
        suffix = "" if enabled else "+noL2"
        return replace(self, name=self.name + suffix, l2_enabled=enabled)


@runtime_checkable
class Topology(Protocol):
    """Chip layout surface the mapping and memory layers consume."""

    @property
    def n_cores(self) -> int: ...

    @property
    def n_controllers(self) -> int: ...

    def mc_index_of_core(self, core: int) -> int: ...

    def hops_to_mc(self, core: int) -> int: ...

    def cores_by_distance(self) -> Tuple[int, ...]: ...

    def cores_at_distance(self, hops: int) -> Tuple[int, ...]: ...

    def distance_histogram(self) -> Dict[int, int]: ...


class MemorySystemModel(Protocol):
    """Memory-side surface of a machine at one configuration.

    Must expose ``mem_mhz``, ``line_bytes``, ``topology``,
    ``controllers`` (objects with a ``bandwidth`` in bytes/s — the MC
    contention solver divides by ``line_bytes`` for line capacity) and
    the three Eq.-1-form latency coefficients (``lat_core_cycles``,
    ``lat_mesh_cycles_per_hop``, ``lat_mem_cycles``), which
    :func:`repro.sparse.fastpath.memory_latencies` turns into per-core
    latencies.  :class:`repro.machine.generic.TableMemorySystem` is the
    implementation every machine uses.
    """

    mem_mhz: float
    line_bytes: int
    lat_core_cycles: float
    lat_mesh_cycles_per_hop: float
    lat_mem_cycles: float


class InterconnectModel(Protocol):
    """Point-to-point message timing (barrier tokens, MPB transfers)."""

    mesh_mhz: float

    def core_message_time(self, src_core: int, dst_core: int, size_bytes: int) -> float: ...


class PowerModel(Protocol):
    """Full-chip power of one configuration."""

    def chip_power(self, config: MachineConfig) -> float: ...


@dataclass(frozen=True)
class MachineParams:
    """Headline structural facts of one machine (provenance record)."""

    machine_id: str
    display_name: str
    n_cores: int
    n_controllers: int
    cache: CacheGeometry
    interconnect: str          #: e.g. "6x4 2D mesh", "bidirectional ring"
    source: str                #: citation the calibration traces back to


class MachineModel(ABC):
    """One many-core target of the study, behind a stable id.

    Subclasses provide the substrates; :mod:`repro.core.experiment`
    composes them exactly as it always composed the SCC's — the SCC
    itself is just the first registered machine
    (:class:`repro.machine.sccmachine.SCCMachine`), re-expressed with
    zero behavioral drift.
    """

    #: stable registry id, e.g. ``"scc-48"``.
    machine_id: str = ""
    #: human-readable name for tables and docs.
    display_name: str = ""
    #: short label used in cross-architecture comparison rows.
    comparison_label: str = ""
    #: citation of the source paper the model is calibrated against.
    source: str = ""
    #: run modes this machine supports; only the SCC carries the
    #: event-driven runtime and the trace-exact replay engine.
    supported_modes: Tuple[str, ...] = ("model", "predict")

    # -- substrates ------------------------------------------------------

    @property
    @abstractmethod
    def topology(self) -> Topology:
        """The machine's (stateless, shareable) topology."""

    @property
    @abstractmethod
    def cache(self) -> CacheGeometry:
        """Per-core cache geometry."""

    @property
    @abstractmethod
    def timing(self) -> Any:
        """Per-element core timing params (four duck-typed cycle fields)."""

    @property
    @abstractmethod
    def presets(self) -> Mapping[str, MachineConfig]:
        """Named bootable configurations, ``"conf0"`` first."""

    @property
    def default_config(self) -> MachineConfig:
        """The configuration experiments run on unless told otherwise."""
        return self.presets["conf0"]

    @abstractmethod
    def memory_system(
        self,
        config: MachineConfig,
        topology: Optional[Topology] = None,
    ) -> Any:
        """A :class:`MemorySystemModel` at this configuration."""

    @abstractmethod
    def interconnect(
        self,
        config: MachineConfig,
        topology: Optional[Topology] = None,
        tracer: Optional[Any] = None,
    ) -> Any:
        """An :class:`InterconnectModel` at this configuration."""

    def chip_power(self, config: MachineConfig) -> float:
        """Full-chip watts of ``config`` (default: ask the config)."""
        return config.full_chip_power()

    # -- identity --------------------------------------------------------

    @property
    def n_cores(self) -> int:
        """Total cores of the machine."""
        return self.topology.n_cores

    def cache_key(self) -> str:
        """Stable token mixed into content-store and predictor addresses.

        Two machines must never share a key (the same matrix replayed
        or modeled on different machines is a different artifact).  The
        key is ``machine_id`` when the machine's values equal those of
        the registry instance of that id, and ``machine_id@<digest>``
        otherwise, so a re-parameterized machine never answers from the
        registry machine's entries.  A *structural* change to an
        existing machine must be accompanied by a schema-version bump at
        the consuming store namespace — exactly the rule the SCC
        constants already follow.
        """
        # The registry depends on this module; resolve it at call time.
        from .registry import MACHINE_REGISTRY, get_machine

        if self.machine_id in MACHINE_REGISTRY:
            registered = get_machine(self.machine_id)
            if registered is self or registered._values_digest == self._values_digest:
                return self.machine_id
        return f"{self.machine_id}@{self._values_digest[:16]}"

    @cached_property
    def _values_digest(self) -> str:
        """SHA-256 of the values a model answer depends on.

        The provenance record, the core timing, the default
        configuration's memory system (clock, line size, Eq.-1
        coefficients, per-controller bandwidth, each core's controller
        and hop count) and the interconnect's core-to-core token times.
        """
        config = self.default_config
        mem = self.memory_system(config)
        net = self.interconnect(config)
        cores = range(self.topology.n_cores)
        values = (
            self.params(),
            self.timing,
            (mem.mem_mhz, mem.line_bytes, mem.lat_core_cycles,
             mem.lat_mesh_cycles_per_hop, mem.lat_mem_cycles),
            tuple(c.bandwidth for c in mem.controllers),
            tuple((mem.topology.mc_index_of_core(c), mem.topology.hops_to_mc(c)) for c in cores),
            tuple(net.core_message_time(a, b, 8) for a in cores for b in cores),
        )
        return hashlib.sha256(repr(values).encode()).hexdigest()

    @abstractmethod
    def params(self) -> MachineParams:
        """The provenance record of this machine."""

    def supports_mode(self, mode: str) -> bool:
        """Whether this machine can run the given experiment mode."""
        return mode in self.supported_modes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.machine_id!r}: {self.display_name}>"

