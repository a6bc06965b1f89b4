"""The congruent fix for ``df_deadlock_ring.py``.

Identical communication structure (same neighbors, same tag, same
payload, same trailing allreduce), but the exchange is staggered: even
ranks send before receiving, odd ranks receive before sending, so at
every core count some rank is always ready to consume a pending
rendezvous send and the ring drains.  ``repro check --ues 2:48`` must
report zero findings on this program at every core count.
"""

from __future__ import annotations

import numpy as np

RING_TAG = 3


def ring_exchange_fixed(comm):
    """Correct neighbor exchange: even ranks send first, odd recv first."""
    me = comm.ue
    n = comm.num_ues
    right = (me + 1) % n
    left = (me - 1) % n
    payload = np.full(16, float(me))
    if n == 1:
        return 0.0
    if me % 2 == 0:
        yield from comm.send(payload, right, tag=RING_TAG)
        incoming = yield from comm.recv(source=left, tag=RING_TAG)
    else:
        incoming = yield from comm.recv(source=left, tag=RING_TAG)
        yield from comm.send(payload, right, tag=RING_TAG)
    total = yield from comm.allreduce(float(incoming[0]))
    return total
