"""IPv6 prefix (CIDR block) machinery.

A :class:`Prefix` is an immutable (network, length) pair over the 128-bit
address space.  Prefixes are the unit of the paper's spatial analysis: BGP
prefixes, /64 network identifiers, and the *n@/p-dense* blocks are all
instances of this type.

The module also provides free functions operating directly on
``(int, int)`` pairs for hot paths that avoid object construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.net import addr
from repro.net.addr import ADDRESS_BITS, AddressError, MAX_ADDRESS


class PrefixError(ValueError):
    """Raised when a prefix is malformed (bad length, host bits set, syntax)."""


def check_length(length: int) -> int:
    """Validate a prefix length (0..128), returning it unchanged."""
    if not isinstance(length, int) or isinstance(length, bool):
        raise PrefixError(f"expected int prefix length, got {type(length).__name__}")
    if not 0 <= length <= ADDRESS_BITS:
        raise PrefixError(f"prefix length out of range: {length}")
    return length


def mask_for(length: int) -> int:
    """Return the 128-bit network mask for a prefix length."""
    check_length(length)
    if length == 0:
        return 0
    return MAX_ADDRESS ^ ((1 << (ADDRESS_BITS - length)) - 1)


def span(length: int) -> int:
    """Return the number of addresses covered by a prefix of this length."""
    check_length(length)
    return 1 << (ADDRESS_BITS - length)


class Prefix:
    """An immutable IPv6 prefix (CIDR block).

    The network address must have all host bits zero; use
    :meth:`Prefix.containing` to derive the prefix covering an arbitrary
    address.
    """

    __slots__ = ("_network", "_length")

    def __init__(self, network: "int | str | addr.IPv6Address", length: int = None) -> None:
        if isinstance(network, str) and length is None:
            network, length = _parse_cidr(network)
        elif isinstance(network, str):
            network = addr.parse(network)
        elif isinstance(network, addr.IPv6Address):
            network = network.value
        if length is None:
            raise PrefixError("prefix length required")
        check_length(length)
        addr.check_address(network)
        if network & ~mask_for(length) & MAX_ADDRESS:
            raise PrefixError(
                f"host bits set in network {addr.format_address(network)}/{length}"
            )
        self._network = network
        self._length = length

    @classmethod
    def containing(cls, address: "int | str | addr.IPv6Address", length: int) -> "Prefix":
        """Return the length-``length`` prefix containing ``address``."""
        if isinstance(address, str):
            address = addr.parse(address)
        elif isinstance(address, addr.IPv6Address):
            address = address.value
        return cls(addr.truncate(address, length), length)

    @property
    def network(self) -> int:
        """The network address as a 128-bit integer (host bits zero)."""
        return self._network

    @property
    def length(self) -> int:
        """The prefix length in bits (0..128)."""
        return self._length

    @property
    def first(self) -> int:
        """The numerically lowest address in the block."""
        return self._network

    @property
    def last(self) -> int:
        """The numerically highest address in the block."""
        return self._network | (~mask_for(self._length) & MAX_ADDRESS)

    @property
    def num_addresses(self) -> int:
        """Number of addresses spanned by this prefix (``2**(128-length)``)."""
        return span(self._length)

    @property
    def key(self) -> Tuple[int, int]:
        """A hashable ``(network, length)`` tuple."""
        return (self._network, self._length)

    def contains(self, item: "int | str | addr.IPv6Address | Prefix") -> bool:
        """True if an address or a more-specific prefix lies inside this block."""
        if isinstance(item, Prefix):
            if item._length < self._length:
                return False
            return addr.truncate(item._network, self._length) == self._network
        if isinstance(item, str):
            item = addr.parse(item)
        elif isinstance(item, addr.IPv6Address):
            item = item.value
        addr.check_address(item)
        return addr.truncate(item, self._length) == self._network

    def __contains__(self, item: "int | str | addr.IPv6Address | Prefix") -> bool:
        return self.contains(item)

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two blocks share any address."""
        shorter, longer = (self, other) if self._length <= other._length else (other, self)
        return addr.truncate(longer._network, shorter._length) == shorter._network

    def supernet(self, new_length: int = None) -> "Prefix":
        """Return the enclosing prefix of ``new_length`` (default: one bit shorter)."""
        if new_length is None:
            new_length = self._length - 1
        check_length(new_length)
        if new_length > self._length:
            raise PrefixError(
                f"supernet length {new_length} longer than prefix length {self._length}"
            )
        return Prefix(addr.truncate(self._network, new_length), new_length)

    def subnets(self, new_length: int = None) -> Iterator["Prefix"]:
        """Yield the subnets of ``new_length`` (default: one bit longer).

        The number of subnets is ``2**(new_length - length)``; callers are
        responsible for not asking for astronomically many.
        """
        if new_length is None:
            new_length = self._length + 1
        check_length(new_length)
        if new_length < self._length:
            raise PrefixError(
                f"subnet length {new_length} shorter than prefix length {self._length}"
            )
        step = span(new_length)
        count = 1 << (new_length - self._length)
        for index in range(count):
            yield Prefix(self._network + index * step, new_length)

    def addresses(self) -> Iterator[int]:
        """Yield every address in the block as an integer (use with care)."""
        return iter(range(self._network, self.last + 1))

    def __str__(self) -> str:
        return f"{addr.format_address(self._network)}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self._network == other._network and self._length == other._length
        return NotImplemented

    def __lt__(self, other: "Prefix") -> bool:
        if isinstance(other, Prefix):
            return (self._network, self._length) < (other._network, other._length)
        return NotImplemented

    def __le__(self, other: "Prefix") -> bool:
        if isinstance(other, Prefix):
            return (self._network, self._length) <= (other._network, other._length)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._network, self._length))


def _parse_cidr(text: str) -> Tuple[int, int]:
    """Parse ``"2001:db8::/32"`` into a (network, length) pair."""
    network_text, slash, length_text = text.partition("/")
    if not slash:
        raise PrefixError(f"missing '/' in prefix: {text!r}")
    try:
        network = addr.parse(network_text)
    except AddressError as exc:
        raise PrefixError(f"bad network in prefix {text!r}: {exc}") from exc
    if not length_text.isdigit():
        raise PrefixError(f"bad length in prefix: {text!r}")
    return network, int(length_text)


def parse_prefix(text: str) -> Prefix:
    """Parse a prefix in CIDR notation, e.g. ``"2001:db8::/32"``."""
    network, length = _parse_cidr(text)
    return Prefix(network, length)


def common_prefix(a: Prefix, b: Prefix) -> Prefix:
    """Return the longest prefix containing both ``a`` and ``b``."""
    shared = addr.common_prefix_len(a.network, b.network)
    length = min(shared, a.length, b.length)
    return Prefix(addr.truncate(a.network, length), length)


def covering_prefixes(
    addresses: Iterable[int], length: int
) -> List[Tuple[int, int]]:
    """Return the sorted, distinct length-``length`` networks covering addresses.

    This is the "active aggregate" set from Kohler et al.: the smallest set
    of /p prefixes that contains all of the given addresses.  Networks are
    returned as raw integers paired with the length, ready to wrap in
    :class:`Prefix` if object form is needed.
    """
    check_length(length)
    networks = sorted({addr.truncate(value, length) for value in addresses})
    return [(network, length) for network in networks]


def aggregate(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Collapse a set of prefixes to the minimal non-overlapping cover.

    Removes prefixes contained in others and merges sibling pairs into their
    parent, repeating to a fixed point — the classic CIDR aggregation used
    when reporting dense-prefix sets.
    """
    work = sorted(set(prefixes))
    # Drop prefixes covered by an earlier (shorter-or-equal, sorted-first) one.
    kept: List[Prefix] = []
    for prefix in work:
        if kept and kept[-1].contains(prefix):
            continue
        kept.append(prefix)
    # Merge sibling pairs to a fixed point.
    merged = True
    while merged:
        merged = False
        result: List[Prefix] = []
        index = 0
        while index < len(kept):
            current = kept[index]
            if index + 1 < len(kept):
                sibling = kept[index + 1]
                if (
                    current.length == sibling.length
                    and current.length > 0
                    and addr.truncate(current.network, current.length - 1)
                    == addr.truncate(sibling.network, sibling.length - 1)
                    and current.network != sibling.network
                ):
                    result.append(current.supernet())
                    index += 2
                    merged = True
                    continue
            result.append(current)
            index += 1
        kept = result
    return kept
