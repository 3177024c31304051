"""Test setup: the benchmark's modules and the program sources on sys.path.

Run from the repository root::

    python3 -m pytest pipebench/tests -q
"""

from __future__ import annotations

import dataclasses
import os
import sys
from typing import Any, Dict, Tuple

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import reference  # noqa: E402

#: Input size factor for the tests' datasets.
SCALE = 0.05


def scaled(spec: gen.Spec) -> gen.Spec:
    """The spec with ``per_day`` and ``days`` (to no fewer than 30) scaled by SCALE."""
    return dataclasses.replace(spec, days=min(spec.days, max(30, int(spec.days * SCALE))),
                               per_day=max(200, int(spec.per_day * SCALE)))


@pytest.fixture(scope="session")
def datasets(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    """Small generated dataset of each workload: (dir, plan, expected)."""
    out = {}
    for name in gen.SPECS:
        directory = str(tmp_path_factory.mktemp(name))
        ds = gen.write_logs(directory, name, 7, scaled(gen.SPECS[name]))
        plan = reference.plan(ds)
        out[name] = (directory, plan, reference.expected(ds, plan))
    return out
