"""The workload generator: determinism, text format and input shape."""

from __future__ import annotations

import hashlib
import ipaddress
import os

import numpy as np
import pytest

import gen
from conftest import scaled


def tree_digest(directory):
    """SHA-256 over every log file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for entry in sorted(os.listdir(directory)):
        digest.update(entry.encode())
        with open(os.path.join(directory, entry), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(gen.SPECS))
def test_byte_identical_per_seed_and_different_across_seeds(tmp_path, name):
    spec = scaled(gen.SPECS[name])
    digests = []
    for run, seed in (("a", 3), ("b", 3), ("c", 4)):
        directory = str(tmp_path / run)
        gen.write_logs(directory, name, seed, spec)
        digests.append(tree_digest(directory))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_lines_match_stdlib_canonical_form():
    rng = np.random.default_rng(0)
    n = 5000
    hi = rng.integers(0, 2**63, n).astype(np.uint64) * np.uint64(2)
    lo = rng.integers(0, 2**63, n).astype(np.uint64)
    for column in (hi, lo):
        for group in range(4):
            zero = rng.random(n) < 0.5
            column[zero] &= ~np.uint64(0xFFFF << (16 * group))
    edges = [0, 1, (1 << 128) - 1, 1 << 64, (1 << 64) - 1, 0x20010DB8 << 96,
             (0x2002 << 112) | 1, 0xFE80 << 112]
    hi[: len(edges)] = [e >> 64 for e in edges]
    lo[: len(edges)] = [e & ((1 << 64) - 1) for e in edges]
    hits = rng.integers(1, 10**12, n).astype(np.uint64)
    hits[0] = 1
    lines = gen.format_lines(hi, lo, hits).decode("ascii").splitlines()
    assert len(lines) == n
    for i, line in enumerate(lines):
        text, count = line.split(" ")
        value = (int(hi[i]) << 64) | int(lo[i])
        assert text == ipaddress.IPv6Address(value).compressed
        assert int(count) == int(hits[i])


def test_construction_labels_follow_the_address_formats(tmp_path):
    ds = gen.write_logs(str(tmp_path), "dense", 5, scaled(gen.SPECS["dense"]))
    counts = np.bincount(ds.u_cat, minlength=4)
    assert (counts > 0).all()
    for i in range(0, ds.u_hi.shape[0], 7):
        address = ipaddress.IPv6Address((int(ds.u_hi[i]) << 64) | int(ds.u_lo[i]))
        isatap = (int(ds.u_lo[i]) >> 32) & 0xFDFFFFFF == 0x5EFE
        assert (address.teredo is not None) == (ds.u_cat[i] == gen.CAT_TEREDO)
        assert (address.sixtofour is not None) == (ds.u_cat[i] == gen.CAT_6TO4)
        if ds.u_cat[i] == gen.CAT_NATIVE:
            assert not isatap
        if ds.u_cat[i] == gen.CAT_ISATAP:
            assert isatap
    assert (gen.eui_macs(ds.u_lo) != np.uint64(1 << 63)).any()


def test_daily_logs_arrive_unsorted_with_duplicate_lines(tmp_path):
    ds = gen.write_logs(str(tmp_path), "daily", 9, scaled(gen.SPECS["daily"]))
    with open(ds.paths[0], encoding="ascii") as handle:
        entries = [line.split() for line in handle if not line.startswith("#")]
    values = [int(ipaddress.IPv6Address(text)) for text, _hits in entries]
    assert values != sorted(values)
    assert len(set(values)) < len(values)
    merged = {}
    for value, (_text, hits) in zip(values, entries):
        merged[value] = merged.get(value, 0) + int(hits)
    ids = ds.day_ids[0]
    truth = {(int(ds.u_hi[i]) << 64) | int(ds.u_lo[i]): int(h)
             for i, h in zip(ids, ds.day_hits[0])}
    assert merged == truth


def test_sorted_workloads_write_sorted_unique_logs(tmp_path):
    ds = gen.write_logs(str(tmp_path), "campaign", 9, scaled(gen.SPECS["campaign"]))
    with open(ds.paths[-1], encoding="ascii") as handle:
        first = handle.readline()
        values = [int(ipaddress.IPv6Address(line.split()[0])) for line in handle]
    assert first.startswith("# repro aggregated log day=")
    assert values == sorted(set(values))
    assert os.path.basename(ds.paths[-1]) == f"log-{ds.days[-1]}.txt"
