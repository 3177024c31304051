"""Reference temporal engine: the per-day (−7d,+7d) window scan (§5.1).

The test oracle for :mod:`repro.core.sweep`.  For each address active on
the reference day it re-scans every window day with the structured-dtype
membership test of :mod:`tests.oracles.setops` and keeps the earliest and
latest day the address was seen, using scalar-dispatch
``np.minimum.at``/``np.maximum.at`` updates;
the gap ``latest - earliest`` is the stability witness.
"""

import numpy as np

from repro.data import store as obstore
from tests.oracles import setops


def reference_classify_day(
    observations, reference_day, window_before=7, window_after=7
):
    """Return ``(active, gaps)`` for ``reference_day`` by rescanning its window."""
    active = observations.array(reference_day)
    size = obstore.array_size(active)
    min_day = np.full(size, reference_day, dtype=np.int64)
    max_day = np.full(size, reference_day, dtype=np.int64)
    for day in range(
        reference_day - window_before, reference_day + window_after + 1
    ):
        if day == reference_day or day not in observations:
            continue
        present = setops.member_mask(active, observations.array(day))
        if day < reference_day:
            np.minimum.at(min_day, np.nonzero(present)[0], day)
        else:
            np.maximum.at(max_day, np.nonzero(present)[0], day)
    return active, max_day - min_day
