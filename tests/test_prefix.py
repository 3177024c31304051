"""Unit tests for repro.net.prefix: CIDR blocks and their algebra."""

import pytest

from repro.net import addr
from repro.net.prefix import (
    Prefix,
    PrefixError,
    aggregate,
    common_prefix,
    covering_prefixes,
    mask_for,
    parse_prefix,
    span,
)


class TestConstruction:
    def test_from_string_cidr(self):
        p = Prefix("2001:db8::/32")
        assert p.network == addr.parse("2001:db8::")
        assert p.length == 32

    def test_from_int_and_length(self):
        p = Prefix(addr.parse("2001:db8::"), 32)
        assert str(p) == "2001:db8::/32"

    def test_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix(addr.parse("2001:db8::1"), 32)

    def test_rejects_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix(0, 129)
        with pytest.raises(PrefixError):
            Prefix(0, -1)

    def test_containing_truncates(self):
        p = Prefix.containing("2001:db8:ffff::1", 32)
        assert str(p) == "2001:db8::/32"

    def test_parse_prefix_errors(self):
        with pytest.raises(PrefixError):
            parse_prefix("2001:db8::")  # missing length
        with pytest.raises(PrefixError):
            parse_prefix("2001:db8::/abc")
        with pytest.raises(PrefixError):
            parse_prefix("nonsense/32")

    def test_zero_length_prefix_spans_everything(self):
        p = Prefix(0, 0)
        assert p.num_addresses == 1 << 128
        assert p.contains(addr.MAX_ADDRESS)


class TestGeometry:
    def test_first_last(self):
        p = Prefix("2001:db8::/112")
        assert p.first == addr.parse("2001:db8::")
        assert p.last == addr.parse("2001:db8::ffff")

    def test_num_addresses(self):
        assert Prefix("2001:db8::/112").num_addresses == 65536
        assert Prefix("::/128").num_addresses == 1

    def test_span_and_mask(self):
        assert span(112) == 65536
        assert mask_for(128) == addr.MAX_ADDRESS
        assert mask_for(0) == 0

    def test_contains_address_and_prefix(self):
        p = Prefix("2001:db8::/32")
        assert p.contains("2001:db8:1234::1")
        assert not p.contains("2001:db9::1")
        assert p.contains(Prefix("2001:db8:ffff::/48"))
        assert not p.contains(Prefix("2001::/16"))  # shorter never contained
        assert "2001:db8::5" in p

    def test_overlaps(self):
        a = Prefix("2001:db8::/32")
        b = Prefix("2001:db8:1::/48")
        c = Prefix("2001:db9::/32")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_supernet(self):
        p = Prefix("2001:db8::/32")
        assert str(p.supernet()) == "2001:db8::/31"
        assert str(p.supernet(16)) == "2001::/16"
        with pytest.raises(PrefixError):
            p.supernet(48)

    def test_subnets(self):
        p = Prefix("2001:db8::/32")
        halves = list(p.subnets())
        assert [str(s) for s in halves] == ["2001:db8::/33", "2001:db8:8000::/33"]
        quads = list(p.subnets(34))
        assert len(quads) == 4
        assert all(p.contains(s) for s in quads)
        with pytest.raises(PrefixError):
            next(p.subnets(16))

    def test_addresses_enumeration(self):
        p = Prefix("2001:db8::/126")
        assert len(list(p.addresses())) == 4


class TestSetOperations:
    def test_equality_and_hash(self):
        assert Prefix("2001:db8::/32") == Prefix("2001:db8::/32")
        assert Prefix("2001:db8::/32") != Prefix("2001:db8::/33")
        assert len({Prefix("::/0"), Prefix("::/0")}) == 1

    def test_ordering(self):
        assert Prefix("2001:db8::/32") < Prefix("2001:db9::/32")
        assert Prefix("2001:db8::/32") < Prefix("2001:db8::/33")

    def test_common_prefix(self):
        a = Prefix("2001:db8::/48")
        b = Prefix("2001:db9::/48")
        assert str(common_prefix(a, b)) == "2001:db8::/31"
        assert common_prefix(a, a) == a

    def test_covering_prefixes(self):
        values = [addr.parse("2001:db8::1"), addr.parse("2001:db8::2"),
                  addr.parse("2001:db9::1")]
        covers = covering_prefixes(values, 32)
        assert len(covers) == 2
        assert covers[0] == (addr.parse("2001:db8::"), 32)

    def test_aggregate_merges_siblings(self):
        merged = aggregate([Prefix("2001:db8::/33"), Prefix("2001:db8:8000::/33")])
        assert merged == [Prefix("2001:db8::/32")]

    def test_aggregate_removes_contained(self):
        merged = aggregate([Prefix("2001:db8::/32"), Prefix("2001:db8:1::/48")])
        assert merged == [Prefix("2001:db8::/32")]

    def test_aggregate_recursive_merge(self):
        quads = list(Prefix("2001:db8::/32").subnets(34))
        assert aggregate(quads) == [Prefix("2001:db8::/32")]

    def test_aggregate_keeps_disjoint(self):
        a, b = Prefix("2001:db8::/32"), Prefix("2001:dba::/32")
        assert aggregate([a, b]) == [a, b]
