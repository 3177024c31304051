"""repro: reproduction of Plonka & Berger, "Temporal and Spatial
Classification of Active IPv6 Addresses" (ACM IMC 2015).

The package implements the paper's classifiers from scratch, together
with every substrate the study depends on:

* :mod:`repro.net` — IPv6 address/prefix/MAC machinery;
* :mod:`repro.core` — the temporal and spatial classifiers, the
  address-format classifier, the Malone-style baseline, MRA, population
  distributions, dense prefixes (the paper's densify, run on sorted
  address arrays), longest-stable-prefix discovery, and the census
  pipeline;
* :mod:`repro.data` — the day-indexed observation store and log I/O;
* :mod:`repro.sim` — the synthetic internet + CDN-log simulator that
  substitutes for the paper's proprietary data sources;
* :mod:`repro.viz` — MRA plots, CCDFs and box plots as data and ASCII;
* :mod:`repro.analysis` — paper-style table formatting.

Quick start::

    from repro.sim import build_internet, InternetConfig, EPOCH_2015_03
    from repro.core import census, classify_day

    internet = build_internet(seed=7, config=InternetConfig(scale=0.2))
    store = internet.build_store(range(EPOCH_2015_03 - 8, EPOCH_2015_03 + 8))
    row = census(store.array(EPOCH_2015_03))
    stability = classify_day(store, EPOCH_2015_03)
    print(row.other, stability.stable_count(3))
"""

from repro.core import (
    census,
    classify,
    classify_day,
    classify_week,
    find_dense,
    profile,
    stability_table,
    table3,
)
from repro.data import ObservationStore
from repro.net import IPv6Address, Prefix

__version__ = "1.0.0"

__all__ = [
    "IPv6Address",
    "ObservationStore",
    "Prefix",
    "__version__",
    "census",
    "classify",
    "classify_day",
    "classify_week",
    "find_dense",
    "profile",
    "stability_table",
    "table3",
]
