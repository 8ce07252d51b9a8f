"""Set-top box peers.

Each cable subscriber's set-top box contributes disk space and two
coaxial channels to the neighborhood's cooperative cache (paper sections
IV-B.3 and V-C).  :mod:`repro.peers.settop` models the box and its
two-stream limit; the storage it contributes is accounted by the
neighborhood's :class:`~repro.cache.segments.PlacementMap`, which a box
exposes only as read-only ``used_bytes``/``free_bytes`` views.
"""

from repro.peers.settop import SetTopBox

__all__ = ["SetTopBox"]
