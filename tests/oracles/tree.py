"""Reference spatial engines: the Patricia tree and the paper's densify.

Test oracles for :mod:`repro.core.spatial`.  :class:`RadixTree` is a
binary Patricia (radix) tree over the 128-bit IPv6 address space: each
node is a prefix (network, length), internal nodes exist only at branch
points, and each node carries a ``count`` of observations attributed to
exactly that prefix (:attr:`RadixNode.subtree_count` gives the inclusive
total).  :func:`densify` is the paper's §5.2.3 post-order fold over that
tree, and :func:`compute_dense_prefixes_tree` the end-to-end general
densify that :func:`repro.core.spatial.general_dense_prefixes` must match
bit for bit.  :func:`dense_prefixes_fixed` is the paper's fixed-length
shortcut ("add each address with a /p and skip to step 3") as a plain
``Counter`` loop, the oracle for :func:`repro.core.spatial.dense_runs`.

The tree is deliberately iterative (explicit stacks) so that very deep,
degenerate insert orders cannot hit Python's recursion limit.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.spatial import density_threshold, widen_dense_prefixes
from repro.net import addr
from repro.net.addr import ADDRESS_BITS
from repro.net.prefix import Prefix, check_length


class RadixNode:
    """A node of the Patricia tree: a prefix with a local count.

    Attributes:
        network: the node's network address (host bits zero).
        length: the node's prefix length.
        count: observations attributed to this exact prefix.
        left: child whose next bit is 0, or None.
        right: child whose next bit is 1, or None.
    """

    __slots__ = ("network", "length", "count", "left", "right")

    def __init__(self, network: int, length: int, count: int = 0) -> None:
        self.network = network
        self.length = length
        self.count = count
        self.left: Optional[RadixNode] = None
        self.right: Optional[RadixNode] = None

    @property
    def prefix(self) -> Prefix:
        """The node's prefix as a :class:`Prefix` object."""
        return Prefix(self.network, self.length)

    @property
    def is_leaf(self) -> bool:
        """True if the node has no children."""
        return self.left is None and self.right is None

    @property
    def subtree_count(self) -> int:
        """Total count of this node plus all descendants."""
        total = 0
        stack = [self]
        while stack:
            node = stack.pop()
            total += node.count
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return total

    def children(self) -> Tuple[Optional["RadixNode"], Optional["RadixNode"]]:
        """Return the (left, right) child pair."""
        return self.left, self.right

    def __repr__(self) -> str:
        return (
            f"RadixNode({addr.format_address(self.network)}/{self.length}, "
            f"count={self.count})"
        )


def _branch_bit(value: int, length: int) -> int:
    """Return the bit of ``value`` immediately after a length-``length`` prefix."""
    return (value >> (ADDRESS_BITS - 1 - length)) & 1


class RadixTree:
    """Patricia tree keyed by (network, prefix length) with counts.

    Supports insertion of addresses (as /128s) or arbitrary prefixes,
    longest-prefix match, and the traversals that aggregation needs.
    """

    def __init__(self) -> None:
        self.root = RadixNode(0, 0)
        self._node_count = 1

    def __len__(self) -> int:
        """Number of nodes currently in the tree (including the root)."""
        return self._node_count

    @property
    def total_count(self) -> int:
        """Sum of all node counts in the tree."""
        return self.root.subtree_count

    def add_address(self, value: int, count: int = 1) -> RadixNode:
        """Insert an address as a /128 with the given count."""
        return self.add_prefix(value, ADDRESS_BITS, count)

    def add_prefix(self, network: int, length: int, count: int = 1) -> RadixNode:
        """Insert (or update) a prefix node, adding ``count`` to it.

        Creates intermediate branch nodes as needed; returns the node for
        the inserted prefix.
        """
        addr.check_address(network)
        check_length(length)
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        network = addr.truncate(network, length)

        parent: Optional[RadixNode] = None
        node = self.root
        while True:
            shared = addr.common_prefix_len(network, node.network)
            shared = min(shared, node.length, length)

            if shared < node.length:
                # The new prefix diverges inside this node's edge: split by
                # inserting a branch node for the shared prefix.
                branch = RadixNode(addr.truncate(network, shared), shared)
                self._node_count += 1
                self._replace_child(parent, node, branch)
                self._attach(branch, node)
                if shared == length:
                    # New prefix IS the branch point.
                    branch.count += count
                    return branch
                leaf = RadixNode(network, length, count)
                self._node_count += 1
                self._attach(branch, leaf)
                return leaf

            if node.length == length:
                # Exact node already exists.
                node.count += count
                return node

            # Descend: node.length < length and the prefixes agree so far.
            bit = _branch_bit(network, node.length)
            child = node.right if bit else node.left
            if child is None:
                leaf = RadixNode(network, length, count)
                self._node_count += 1
                self._attach(node, leaf)
                return leaf
            parent = node
            node = child

    def _attach(self, parent: RadixNode, child: RadixNode) -> None:
        """Attach ``child`` under ``parent`` on the side its next bit selects."""
        if _branch_bit(child.network, parent.length):
            parent.right = child
        else:
            parent.left = child

    def _replace_child(
        self, parent: Optional[RadixNode], old: RadixNode, new: RadixNode
    ) -> None:
        """Swap ``old`` for ``new`` under ``parent`` (or at the root)."""
        if parent is None:
            self.root = new
        elif parent.left is old:
            parent.left = new
        else:
            parent.right = new

    def lookup(self, value: int) -> Optional[RadixNode]:
        """Longest-prefix match: deepest node whose prefix contains ``value``.

        Only nodes with a positive count qualify; returns None when no
        counted prefix covers the address.
        """
        addr.check_address(value)
        best: Optional[RadixNode] = None
        node: Optional[RadixNode] = self.root
        while node is not None:
            if addr.truncate(value, node.length) != node.network:
                break
            if node.count > 0:
                best = node
            if node.length == ADDRESS_BITS:
                break
            bit = _branch_bit(value, node.length)
            node = node.right if bit else node.left
        return best

    def find(self, network: int, length: int) -> Optional[RadixNode]:
        """Return the exact node for (network, length), or None."""
        addr.check_address(network)
        check_length(length)
        network = addr.truncate(network, length)
        node: Optional[RadixNode] = self.root
        while node is not None:
            if node.length > length:
                return None
            if addr.truncate(network, node.length) != node.network:
                return None
            if node.length == length:
                return node if node.network == network else None
            bit = _branch_bit(network, node.length)
            node = node.right if bit else node.left
        return None

    def nodes_preorder(self) -> Iterator[RadixNode]:
        """Yield nodes in pre-order (parent before children, left first).

        For prefixes this is also in-order by (network, length): a parent's
        network is never greater than its children's.
        """
        stack: List[RadixNode] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def nodes_postorder(self) -> Iterator[RadixNode]:
        """Yield nodes in post-order (children before parent).

        This is the traversal the densify operation uses: by the time a
        node is visited, its children's counts are final.
        """
        stack: List[Tuple[RadixNode, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            if node.right is not None:
                stack.append((node.right, False))
            if node.left is not None:
                stack.append((node.left, False))

    def counted_prefixes(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (network, length, count) for every node with count > 0."""
        for node in self.nodes_preorder():
            if node.count > 0:
                yield node.network, node.length, node.count

    def absorb_children(self, node: RadixNode) -> None:
        """Fold the entire subtree below ``node`` into its own count.

        This is aguri "pruning": the node takes on its descendants' counts
        and the descendants are removed.
        """
        if node.is_leaf:
            return
        absorbed = node.subtree_count - node.count
        removed = self._count_nodes(node) - 1
        node.count += absorbed
        node.left = None
        node.right = None
        self._node_count -= removed

    @staticmethod
    def _count_nodes(node: RadixNode) -> int:
        """Return the number of nodes in the subtree rooted at ``node``."""
        total = 0
        stack = [node]
        while stack:
            current = stack.pop()
            total += 1
            if current.left is not None:
                stack.append(current.left)
            if current.right is not None:
                stack.append(current.right)
        return total

    def compact(self) -> None:
        """Remove zero-count pass-through branch nodes with a single child.

        Splitting and aggregation can leave chains of structural nodes; this
        restores the Patricia invariant that internal zero-count nodes have
        two children.  The root is always kept.
        """
        # Iterative rebuild: walk with parent links, splicing as we go.
        changed = True
        while changed:
            changed = False
            stack: List[Tuple[Optional[RadixNode], RadixNode]] = [(None, self.root)]
            while stack:
                parent, node = stack.pop()
                only_child = None
                if node.count == 0 and parent is not None:
                    if node.left is not None and node.right is None:
                        only_child = node.left
                    elif node.right is not None and node.left is None:
                        only_child = node.right
                if only_child is not None:
                    self._replace_child(parent, node, only_child)
                    self._node_count -= 1
                    changed = True
                    stack.append((parent, only_child))
                    continue
                if node.left is not None:
                    stack.append((node, node.left))
                if node.right is not None:
                    stack.append((node, node.right))


def build_tree(addresses: Iterable[int]) -> RadixTree:
    """Populate a radix tree with addresses, each a /128 with count 1.

    Duplicate addresses accumulate on the same node; callers who want
    distinct-address semantics should deduplicate first.
    """
    tree = RadixTree()
    for value in addresses:
        tree.add_address(value)
    return tree


def densify(tree: RadixTree, n: int, p: int, max_length: int = 127) -> None:
    """Aggregate the tree in place so dense prefixes become single nodes.

    Implements the paper's densify post-order traversal: when visiting a
    node that has children and whose subtree count meets the density
    ``n / 2**(128 - p)`` for the node's own prefix length, the children are
    folded into the node.  Nodes longer than ``max_length`` (127 per the
    paper, so a lone /128 never reports as a "prefix") always fold upward
    when their parent qualifies.
    """
    check_length(max_length)
    for node in tree.nodes_postorder():
        if node.is_leaf:
            continue
        if node.length > max_length:
            tree.absorb_children(node)
            continue
        combined = node.subtree_count
        if combined >= density_threshold(n, p, node.length):
            tree.absorb_children(node)


def dense_prefixes(
    tree: RadixTree, n: int, min_length: int = 0, max_length: int = 127
) -> List[Tuple[int, int, int]]:
    """Report (network, length, count) for densified nodes with count >= n.

    Run after :func:`densify`; performs the paper's step 3.  Sparse
    addresses remain as low-count nodes and are skipped.  ``min_length``
    optionally filters out prefixes shorter than the requested class;
    ``max_length`` defaults to 127 per the paper, so a lone /128 address
    never reports as a dense *prefix*.
    """
    results: List[Tuple[int, int, int]] = []
    for network, length, count in tree.counted_prefixes():
        if count >= n and min_length <= length <= max_length:
            results.append((network, length, count))
    results.sort()
    return results


def compute_dense_prefixes_tree(
    addresses: Iterable[int], n: int, p: int, widen: bool = False
) -> List[Tuple[int, int, int]]:
    """Tree-based general densify: build tree, densify, report.

    The reference implementation — one :class:`RadixNode` per address,
    then the paper's post-order fold.  Kept for verification: the
    array-native engine (:func:`repro.core.spatial.general_dense_prefixes`)
    is asserted bit-identical to this path in the tests and in
    ``benchmarks/bench_spatial.py``.
    """
    tree = build_tree(set(addresses))
    densify(tree, n, p)
    found = dense_prefixes(tree, n)
    if not widen:
        return found
    return widen_dense_prefixes(found, p)


def dense_prefixes_fixed(
    addresses: Iterable[int], n: int, p: int
) -> List[Tuple[int, int, int]]:
    """Fixed-length dense-prefix computation (the paper's shortcut).

    Equivalent to adding every address with a /p and reporting nodes with
    count >= n: no tree required, just counting distinct addresses per
    truncated /p network.  Returns (network, p, count) tuples sorted by
    network.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    check_length(p)
    counts: Counter[int] = Counter()
    for value in set(addresses):
        counts[addr.truncate(value, p)] += 1
    return sorted(
        (network, p, count) for network, count in counts.items() if count >= n
    )
