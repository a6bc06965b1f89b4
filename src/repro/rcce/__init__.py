"""RCCE-style message-passing runtime over the simulated SCC.

- :class:`~repro.rcce.runtime.RCCERuntime` — boot a job of n UEs on a
  list of physical cores under a chip configuration.
- :class:`~repro.rcce.api.RCCEComm` — per-UE communicator (send/recv,
  barrier, bcast, reduce, allreduce, gather, wtime, compute).
- :mod:`~repro.rcce.mpb` — the 8 KB-per-core message-passing buffer
  model and matched mailboxes.
"""

from .api import RCCEComm, payload_bytes
from .comm_meta import (
    COLLECTIVE_METHODS,
    COMM_API,
    COMM_GEN_METHODS,
    LOCAL_METHODS,
    P2P_METHODS,
    CommOp,
)
from .collectives import (
    RESERVED_TAG_BASE,
    allreduce,
    barrier,
    bcast,
    gather,
    reduce,
    tag_name,
)
from .errors import RCCEDeadlockError, RCCEError, format_wait_for
from .mpb import MPB_BYTES_PER_CORE, Envelope, Mailbox, chunked_transfer_time
from .onesided import FLAG_CLEAR, FLAG_SET, MPBWindow, OneSided
from .power import (
    FREQ_CHANGE_SECONDS,
    N_VOLTAGE_DOMAINS,
    VOLTAGE_RAMP_SECONDS,
    PowerManager,
)
from .runtime import RCCERuntime, UEResult, checks_enabled_by_default

__all__ = [
    "RCCEComm",
    "payload_bytes",
    "CommOp",
    "COMM_API",
    "COMM_GEN_METHODS",
    "COLLECTIVE_METHODS",
    "P2P_METHODS",
    "LOCAL_METHODS",
    "RESERVED_TAG_BASE",
    "tag_name",
    "RCCEError",
    "RCCEDeadlockError",
    "format_wait_for",
    "checks_enabled_by_default",
    "allreduce",
    "barrier",
    "bcast",
    "gather",
    "reduce",
    "MPB_BYTES_PER_CORE",
    "Envelope",
    "Mailbox",
    "chunked_transfer_time",
    "FLAG_CLEAR",
    "FLAG_SET",
    "MPBWindow",
    "OneSided",
    "FREQ_CHANGE_SECONDS",
    "N_VOLTAGE_DOMAINS",
    "VOLTAGE_RAMP_SECONDS",
    "PowerManager",
    "RCCERuntime",
    "UEResult",
]
