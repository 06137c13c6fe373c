"""From an estimated access profile to the database the allocator sees.

Closes the loop of the paper's Figure 1: the broadcast program is
generated from access frequencies, and the server estimates those
frequencies from the requests it actually observes.  There is one
estimator, :class:`~repro.workloads.sketch.CountMinSketch`: its
:meth:`~repro.workloads.sketch.CountMinSketch.estimate_profile` turns
(optionally time-decayed) counts into a smoothed profile, each item
getting ``(count + α) / (Σ counts + α·N)``.  The live service feeds it
one request at a time; an offline caller feeds a whole trace through
``CountMinSketch(..., exact=True).extend(trace)``, whose exact counters
make the profile the plain (or, with a half-life, exponentially
decayed) relative counts.  This module supplies the two steps around
it:

* :func:`estimate_database` splices a profile onto the catalogue's
  known item sizes — the one place a profile becomes a believed
  :class:`~repro.core.database.BroadcastDatabase`;
* :func:`profile_l1_error` measures how far two profiles are apart
  (the service's drift test, the adaptive driver's error against the
  truth).

**The zero-frequency edge case.**  An item the stream never requested
is still in the catalogue, and with ``smoothing = 0`` its estimated
frequency is exactly 0.  The analytical model rejects that at two
depths: :class:`~repro.core.item.DataItem` refuses ``frequency <= 0``
on construction (``InvalidItemError``), and even if a zero slipped
through, Eq. (1)'s frequency-weighted average over a zero-frequency
channel is undefined (``InvalidAllocationError`` in
:mod:`repro.core.cost`).  :func:`estimate_database` therefore checks
the profile up front and raises a :class:`SimulationError` naming the
unobserved items and the fix — the smoothing floor: any ``smoothing >
0`` gives every catalogued item a positive pseudo-count, at the price
of biasing hot items slightly down.  Behaviour is pinned by
``tests/test_estimator.py::TestZeroFrequencyEdgeCases``.

This module is an extension beyond the paper (DESIGN.md §6).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.exceptions import SimulationError

__all__ = ["estimate_database", "profile_l1_error"]


def estimate_database(
    profile: Mapping[str, float], sizes: Mapping[str, float]
) -> BroadcastDatabase:
    """Build the believed broadcast database from a profile and sizes.

    ``sizes`` is the catalogue: every item the server can broadcast,
    with its size, in the order the database lists its items.
    ``profile`` is a smoothed frequency per catalogue item, as
    :meth:`~repro.workloads.sketch.CountMinSketch.estimate_profile`
    returns it; it must cover exactly the catalogue.
    """
    if not sizes:
        raise SimulationError("the catalogue of sizes cannot be empty")
    missing = [item_id for item_id in sizes if item_id not in profile]
    if missing or len(profile) != len(sizes):
        extra = sorted(set(profile) - set(sizes))
        raise SimulationError(
            "the profile does not cover the catalogue "
            f"(missing from profile: {missing[:5]}, "
            f"not in catalogue: {extra[:5]})"
        )
    unobserved = [item_id for item_id in sizes if profile[item_id] <= 0.0]
    if unobserved:
        # Surface the modelling problem here, with a fix, rather than
        # letting DataItem's InvalidItemError (or, later, the cost
        # model's InvalidAllocationError for a zero-frequency channel)
        # fire deep inside the allocation path.
        raise SimulationError(
            f"{len(unobserved)} catalogue item(s) were never observed and "
            f"got frequency 0 (first: {unobserved[:3]}); the analytical "
            "model requires every item to have positive frequency — "
            "estimate the profile with smoothing > 0"
        )
    return BroadcastDatabase(
        [
            DataItem(item_id, frequency=profile[item_id], size=size)
            for item_id, size in sizes.items()
        ]
    )


def profile_l1_error(
    estimated: Mapping[str, float], truth: Mapping[str, float]
) -> float:
    """Total variation-style L1 distance between two frequency profiles.

    Both mappings must cover the same item ids.  Range [0, 2]; 0 means a
    perfect estimate.
    """
    if set(estimated) != set(truth):
        missing = sorted(set(truth) - set(estimated))
        extra = sorted(set(estimated) - set(truth))
        raise SimulationError(
            "estimated and true profiles cover different items "
            f"(missing from estimate: {missing[:5]}, "
            f"not in truth: {extra[:5]})"
        )
    return math.fsum(
        abs(estimated[item_id] - truth[item_id]) for item_id in truth
    )
