"""Seeded-bug fixture: a rendezvous ring exchange that deadlocks.

Every UE issues its blocking ``send`` to the right neighbor *first*.
Under RCCE rendezvous semantics the send does not complete until the
destination consumes it, so all ranks block on their ack simultaneously
and nobody ever reaches the ``recv`` — a wait-for cycle spanning the
whole ring, at every core count >= 2.

``repro check --ues 2:48`` must report it (RT801) at every core count
the SCC can boot.  The congruent fix is ``df_ring_fixed.py``.
"""

from __future__ import annotations

import numpy as np

RING_TAG = 3


def ring_exchange_deadlock(comm):
    """Broken neighbor exchange: everyone sends first, nobody receives."""
    me = comm.ue
    n = comm.num_ues
    right = (me + 1) % n
    payload = np.full(16, float(me))
    yield from comm.send(payload, right, tag=RING_TAG)  # blocks forever
    incoming = yield from comm.recv(source=(me - 1) % n, tag=RING_TAG)
    total = yield from comm.allreduce(float(incoming[0]))
    return total
