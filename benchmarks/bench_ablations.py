"""Ablations for the design choices called out in DESIGN.md.

* **MRA backend**: the sorted-array aggregate-count computation versus a
  straightforward radix-trie walk.  Identical results; the bench records
  both costs (the array path is the library default because it touches
  each address once regardless of the 129 lengths).
* **Density backend**: the fixed-length fast path (the paper's own
  shortcut, in its reference ``Counter`` form) versus the general
  densify, for the same n@/p class.  Identical dense-prefix sets when
  the general result is widened; the fast path is what Table 3 uses.

The radix trie and the fixed-length reference come from the test
oracles (``tests/oracles/tree.py``).
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.mra import aggregate_counts  # noqa: E402
from repro.core.spatial import general_dense_prefixes  # noqa: E402
from repro.data import store as obstore  # noqa: E402
from repro.net.addr import ADDRESS_BITS  # noqa: E402
from repro.sim import EPOCH_2015_03  # noqa: E402
from tests.oracles.tree import build_tree, dense_prefixes_fixed  # noqa: E402


def trie_aggregate_counts(addresses) -> np.ndarray:
    """Reference MRA backend: count covering prefixes via a radix trie.

    A node of the Patricia tree at length L with its subtree covers one
    /p prefix for every p <= L on the node's path... more precisely,
    n_p equals the number of trie edges crossing depth p plus one; this
    implementation walks the tree once accumulating, for every node, the
    span of lengths (parent_length, node_length] at which the node's
    subtree is a distinct aggregate.
    """
    tree = build_tree(set(addresses))
    counts = np.zeros(ADDRESS_BITS + 1, dtype=np.int64)
    if tree.total_count == 0:
        return counts
    # Each node distinct from its parent contributes +1 to n_p for all
    # parent_length < p <= node_length; the root contributes n_0 = 1.
    stack = [(tree.root, -1)]
    deltas = np.zeros(ADDRESS_BITS + 2, dtype=np.int64)
    while stack:
        node, parent_length = stack.pop()
        start = parent_length + 1
        deltas[start] += 1
        deltas[node.length + 1] -= 1
        for child in (node.left, node.right):
            if child is not None:
                stack.append((child, node.length))
    running = np.cumsum(deltas[: ADDRESS_BITS + 1])
    # Below the deepest nodes every address sits alone: n_p = N there.
    counts[:] = running
    counts[counts > tree.total_count] = tree.total_count
    return counts


@pytest.fixture(scope="module")
def day_array(epoch_stores):
    return epoch_stores[EPOCH_2015_03].array(EPOCH_2015_03)


@pytest.mark.benchmark(group="ablation-mra")
def test_ablation_mra_sorted_array(benchmark, day_array, report):
    counts = benchmark(aggregate_counts, day_array)
    report.section("Ablation: MRA via sorted arrays (library default)")
    report.add(f"N={counts[128]}, n_32={counts[32]}, n_64={counts[64]}")
    assert counts[0] == 1


@pytest.mark.benchmark(group="ablation-mra")
def test_ablation_mra_trie_walk(benchmark, day_array, report):
    addresses = obstore.from_array(day_array)
    counts = benchmark.pedantic(
        trie_aggregate_counts, args=(addresses,), rounds=2, iterations=1
    )
    reference = aggregate_counts(day_array)
    report.section("Ablation: MRA via radix-trie walk (reference)")
    report.add(f"matches sorted-array result: {bool((counts == reference).all())}")
    assert (counts == reference).all(), "backends must agree exactly"


@pytest.mark.benchmark(group="ablation-density")
def test_ablation_density_fixed_fast_path(benchmark, day_array, report):
    result = benchmark(dense_prefixes_fixed, day_array_ints(day_array), 2, 112)
    report.section("Ablation: fixed-length dense search (fast path)")
    report.add(f"2@/112-dense prefixes: {len(result)}")
    assert all(length == 112 for _n, length, _c in result)


@pytest.mark.benchmark(group="ablation-density")
def test_ablation_density_general_densify(benchmark, day_array, report):
    addresses = day_array_ints(day_array)
    general = benchmark.pedantic(
        general_dense_prefixes, args=(addresses, 2, 112, True), rounds=1,
        iterations=1,
    )
    fixed = dense_prefixes_fixed(addresses, 2, 112)
    report.section("Ablation: general densify vs fast path")
    report.add(f"general (widened): {len(general)}; fixed: {len(fixed)}")
    assert {(network, length) for network, length, _c in general} == {
        (network, length) for network, length, _c in fixed
    }


def day_array_ints(day_array):
    """Materialize the day's addresses as ints (shared by both paths)."""
    return obstore.from_array(day_array)
