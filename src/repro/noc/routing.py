"""The dateline rule: deadlock-free minimal routing around a ring.

Every topology class in :mod:`repro.noc.topology` holds its own
deterministic route, ``route(current, dst) -> (out_port, vc_class)``:

- ``out_port`` — the output port at ``current`` (``PORT_LOCAL`` on
  arrival);
- ``vc_class`` — ``None`` when the route is deadlock-free on any VC
  (XY on a mesh, star+XY on a cmesh), or ``0``/``1`` when the topology
  has wrap-around links and needs dateline escape VCs.  The router then
  restricts VC allocation to the class's half of the vnet's VCs.

The two wrap-around fabrics (each torus dimension, each ring direction)
share the one rule here.  On a ring of size ``n``, a packet travelling
in the ``+1`` direction starts in class 0 and is in class 1 exactly when
``current > dst`` (it still has to cross the ``n-1 -> 0`` wrap);
symmetrically, a ``-1``-direction packet is in class 1 when
``current < dst``.  Within one class the channel-dependency graph is
acyclic (class 0 never uses the wrap link; a class-1 chain cannot extend
past the wrap), and dimension order breaks cycles between dimensions, so
the route is deadlock-free with 2 VCs per vnet.
"""

from __future__ import annotations

from typing import Optional, Tuple

RouteDecision = Tuple[int, Optional[int]]


def ring_step(
    current: int, dst: int, n: int, plus_port: int, minus_port: int
) -> RouteDecision:
    """One minimal step around a ring of ``n`` nodes with dateline classes.

    Ties between the two directions go to ``plus_port`` so the choice is
    deterministic and distance-symmetric pairs agree on a direction.
    """
    forward = (dst - current) % n
    backward = (current - dst) % n
    if forward <= backward:
        return plus_port, 1 if current > dst else 0
    return minus_port, 1 if current < dst else 0
