"""Unit tests for the Patricia tree behind the densify oracle."""

import pytest

from repro.net import addr
from tests.oracles.tree import RadixTree


def p(text: str) -> int:
    return addr.parse(text)


class TestInsertion:
    def test_single_address(self):
        tree = RadixTree()
        node = tree.add_address(p("2001:db8::1"))
        assert node.length == 128
        assert node.count == 1
        assert tree.total_count == 1

    def test_duplicate_accumulates(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        node = tree.add_address(p("2001:db8::1"), count=4)
        assert node.count == 5
        assert tree.total_count == 5

    def test_split_creates_branch_at_divergence(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        tree.add_address(p("2001:db8::4"))
        # ::1 = ...0001, ::4 = ...0100 -> common prefix length 125.
        branch = tree.find(p("2001:db8::"), 125)
        assert branch is not None
        assert branch.count == 0
        assert branch.left is not None and branch.right is not None

    def test_insert_prefix_at_branch_point(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        tree.add_address(p("2001:db8::4"))
        node = tree.add_prefix(p("2001:db8::"), 125, count=7)
        assert node.count == 7
        assert node.length == 125

    def test_insert_shorter_prefix_above_existing(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        node = tree.add_prefix(p("2001:db8::"), 32)
        assert node.length == 32
        assert tree.lookup(p("2001:db8:ffff::9")) is node

    def test_host_bits_truncated_on_insert(self):
        tree = RadixTree()
        node = tree.add_prefix(p("2001:db8::ffff"), 112)
        assert node.network == p("2001:db8::")

    def test_negative_count_rejected(self):
        tree = RadixTree()
        with pytest.raises(ValueError):
            tree.add_address(1, count=-1)

    def test_node_count_tracks_structure(self):
        tree = RadixTree()
        assert len(tree) == 1  # root
        tree.add_address(p("2001:db8::1"))
        assert len(tree) == 2
        tree.add_address(p("2001:db8::4"))
        assert len(tree) == 4  # + leaf + branch


class TestLookup:
    def test_longest_prefix_match(self):
        tree = RadixTree()
        tree.add_prefix(p("2001:db8::"), 32, count=1)
        tree.add_prefix(p("2001:db8:1::"), 48, count=1)
        hit = tree.lookup(p("2001:db8:1::5"))
        assert hit is not None and hit.length == 48
        hit = tree.lookup(p("2001:db8:2::5"))
        assert hit is not None and hit.length == 32

    def test_lookup_requires_positive_count(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        tree.add_address(p("2001:db8::4"))
        # The /125 branch node exists with count 0; lookup of a third
        # address inside it must not return the structural node.
        assert tree.lookup(p("2001:db8::6")) is None

    def test_lookup_miss(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        assert tree.lookup(p("2a00::1")) is None

    def test_find_exact(self):
        tree = RadixTree()
        tree.add_prefix(p("2001:db8::"), 48, count=3)
        assert tree.find(p("2001:db8::"), 48).count == 3
        assert tree.find(p("2001:db8::"), 47) is None
        assert tree.find(p("2001:db9::"), 48) is None


class TestTraversal:
    def test_preorder_parent_before_children(self):
        tree = RadixTree()
        for text in ("2001:db8::1", "2001:db8::4", "2a00::1"):
            tree.add_address(p(text))
        seen = list(tree.nodes_preorder())
        positions = {id(node): index for index, node in enumerate(seen)}
        for node in seen:
            for child in (node.left, node.right):
                if child is not None:
                    assert positions[id(node)] < positions[id(child)]

    def test_postorder_children_before_parent(self):
        tree = RadixTree()
        for text in ("2001:db8::1", "2001:db8::4", "2a00::1"):
            tree.add_address(p(text))
        seen = list(tree.nodes_postorder())
        positions = {id(node): index for index, node in enumerate(seen)}
        for node in seen:
            for child in (node.left, node.right):
                if child is not None:
                    assert positions[id(node)] > positions[id(child)]

    def test_counted_prefixes_only_positive(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        tree.add_address(p("2001:db8::4"))
        counted = list(tree.counted_prefixes())
        assert len(counted) == 2
        assert all(count > 0 for _n, _l, count in counted)


class TestAggregation:
    def test_absorb_children(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        tree.add_address(p("2001:db8::4"))
        branch = tree.find(p("2001:db8::"), 125)
        tree.absorb_children(branch)
        assert branch.count == 2
        assert branch.is_leaf
        assert tree.total_count == 2
        assert len(tree) == 2  # root + absorbed branch

    def test_absorb_leaf_is_noop(self):
        tree = RadixTree()
        node = tree.add_address(p("2001:db8::1"))
        tree.absorb_children(node)
        assert node.count == 1

    def test_subtree_count(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        tree.add_address(p("2001:db8::4"), count=2)
        assert tree.root.subtree_count == 3

    def test_compact_removes_passthrough(self):
        tree = RadixTree()
        tree.add_address(p("2001:db8::1"))
        tree.add_address(p("2001:db8::4"))
        branch = tree.find(p("2001:db8::"), 125)
        # Remove one child by absorbing it manually, creating a
        # zero-count single-child chain.
        branch.left = None
        tree._node_count -= 1
        before = len(tree)
        tree.compact()
        assert len(tree) == before - 1
        assert tree.lookup(p("2001:db8::4")).length == 128
