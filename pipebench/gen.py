"""Seeded, vectorized workload generator for the pipeline benchmark.

Builds one workload's daily aggregated logs from a seed, together with
the ground truth the checks compare against.  Nothing here imports the
``repro`` package: the logs are formatted by this module's own RFC 5952
writer, so a change to the program's formatter or parser cannot change
the benchmark's inputs.

Address mix.  Every share is a share of the per-day target ``N`` and is
taken from the paper's March 2015 figures as recorded in
``EXPERIMENTS.md`` (Table 1, Table 2, and Section 6.2.2); the constants
below name their source.  Shares the paper gives no figure for say so.

* 6to4 4.19%, Teredo 0.01% and ISATAP 0.04% of daily addresses
  (Table 1), new every day.  Teredo and ISATAP take at least one
  address a day, so small workloads still exercise those census columns.
* 3d-stable addresses 9.44% of the day (Table 2): dense low-IID blocks,
  router links, low-IID servers, and static devices (EUI-64 and random
  static IIDs) in household /64s, each active on 85-90% of days.
* EUI-64 outside 6to4 1.35% (Table 1): 85% static household devices,
  15% mobile devices whose MAC reappears in a new carrier /64, a split
  that makes a week hold about 1.66 EUI-64 addresses per MAC (Table 1:
  16.2M vs 9.74M).
* The rest is privacy churn: a fresh random IID per device and day,
  30% in fixed household /64s and 70% in reused carrier-pool /64s.  The
  split, the pool size and the devices per /64 have no paper figure;
  they are set so that a day's native addresses per /64 come to about
  2.63 (Table 1) and most daily /64s are 3d-stable (Table 2: 89.8%).
* Dense low-IID blocks (runs ``::1 .. ::k``) hold 0.43% of the day, as
  2@/112-dense prefixes hold 1.38M of 318M daily client addresses
  (Section 6.2.2).  Router links, /127 (``::0``/``::1``) and /126
  (``::1``/``::2``) pairs, have no paper figure among client addresses
  and take a token 0.1%.
* ``dense`` deliberately raises blocks to 25% and links to 8%: Table 3
  is measured on a router-address corpus, where such prefixes are the
  bulk, and ``dense`` stands in for it.  Those rows come out of the
  privacy churn.
* Hit counts are heavy-tailed (Pareto, shape 1.1).

Universe ids are assigned in (hi, lo) order, so every day's sorted id
array lists that day's addresses in the order the store holds them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: First day number of every workload (2014-03-17 as days since 1970).
BASE_DAY = 16146

CAT_NATIVE, CAT_TEREDO, CAT_6TO4, CAT_ISATAP = 0, 1, 2, 3

U64 = np.uint64


#: Daily shares of ``N`` with a paper source (EXPERIMENTS.md, March 2015).
SIXTO4 = 0.0419  # Table 1: 6to4
TEREDO = 0.0001  # Table 1: Teredo
ISATAP = 0.0004  # Table 1: ISATAP
EUI64 = 0.0135  # Table 1: EUI-64 addresses outside 6to4
STABLE = 0.0944  # Table 2: daily addresses that are 3d-stable
BLOCKS = 0.0043  # Section 6.2.2: 1.38M of 318M in 2@/112-dense prefixes

#: Shares without a paper figure.
LINKS = 0.001  # router interfaces are rare among CDN clients
SERVERS = 0.04  # low-IID static hosts, part of STABLE
POOL = 0.7  # share of privacy churn in carrier-pool /64s
POOL_SIZE = 3.0  # carrier-pool /64s per daily draw
#: Share of EUI-64 rows from mobile devices, set so that a week holds about
#: 1.66 EUI-64 addresses per MAC (Table 1: 16.2M addresses, 9.74M MACs).
MOBILE = 0.15
#: The rest of STABLE: random static IIDs in household /64s.
STATIC = STABLE - BLOCKS - LINKS - SERVERS - EUI64 * (1 - MOBILE)
#: Daily take of each persistent part; a part's population is its share
#: over its take.
STABLE_TAKE = 0.85  # servers and static devices
INFRA_TAKE = 0.9  # blocks and links
DEVICE_TAKE = 0.8  # privacy devices in fixed households
MOBILE_TAKE = 0.7  # mobile EUI-64 devices
#: Privacy devices per household and pool addresses per carrier /64 draw,
#: set (with POOL and POOL_SIZE) so that a day's native addresses per /64
#: come to about 2.63 (Table 1).
HOUSEHOLD_DEVICES = 3.0
DRAW_ADDRS = 2.0


@dataclass(frozen=True)
class Spec:
    """Size and shape of one workload's input."""

    days: int
    per_day: int
    arrival_order: bool  # unsorted lines with duplicates (the daily feed)
    block_share: float = BLOCKS  # share of N in dense low-IID blocks
    link_share: float = LINKS  # share of N in router-link pairs
    dup_share: float = 0.0  # share of rows written as two lines


SPECS: Dict[str, Spec] = {
    "campaign": Spec(days=150, per_day=3600, arrival_order=False),
    # Blocks and links skewed up to stand in for Table 3's router corpus.
    "dense": Spec(days=15, per_day=46000, arrival_order=False,
                  block_share=0.25, link_share=0.08),
    "daily": Spec(days=130, per_day=2700, arrival_order=True, dup_share=0.15),
}


# ---------------------------------------------------------------------------
# Address construction
# ---------------------------------------------------------------------------


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def _u64(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2**63, n, dtype=np.int64).astype(U64) * U64(2) + \
        rng.integers(0, 2, n, dtype=np.int64).astype(U64)


def _native_prefixes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random native /64s under 2400::/6-ish space, never 2001:0::/32 or 2002::/16."""
    top = (U64(0x2400) + rng.integers(0, 0x0C00, n).astype(U64)) << U64(48)
    return top | (_u64(rng, n) & U64(0x0000FFFFFFFFFFFF))


def _clean_iid(lo: np.ndarray) -> np.ndarray:
    """Clear accidental EUI-64 (ff:fe) and ISATAP (5efe) markers from IIDs."""
    lo = lo.copy()
    eui = ((lo >> U64(24)) & U64(0xFFFF)) == U64(0xFFFE)
    lo[eui] ^= U64(1 << 24)
    isatap = ((lo >> U64(32)) & U64(0xFDFFFFFF)) == U64(0x5EFE)
    lo[isatap] ^= U64(1 << 33)
    return lo


def _eui64(mac: np.ndarray) -> np.ndarray:
    """EUI-64 IIDs of 48-bit MACs (u bit flipped, ff:fe inserted)."""
    flipped = mac ^ U64(0x020000000000)
    return ((flipped >> U64(24)) << U64(40)) | (U64(0xFFFE) << U64(24)) | (
        flipped & U64(0xFFFFFF)
    )


def _macs(rng: np.random.Generator, n: int) -> np.ndarray:
    # Unicast, globally administered: clear the two low bits of the first octet.
    return _u64(rng, n) & U64(0xFCFFFFFFFFFF)


def _pareto_hits(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.random(n)
    return np.minimum(np.floor(1.0 / np.power(1.0 - u, 1.0 / 1.1)), 1e7).astype(U64)


def _count(share: float, n: int, least: int = 0) -> int:
    return max(least, int(round(share * n)))


class _Population:
    """Persistent (cross-day) state of the generated address mix."""

    def __init__(self, seed: int, spec: Spec) -> None:
        n = spec.per_day
        rng = _rng(seed, 1)
        self.n = n
        self.spec = spec
        # Servers: low IIDs, one per /64.
        k = _count(SERVERS / STABLE_TAKE, n)
        self.server_hi = _native_prefixes(rng, k)
        self.server_lo = rng.integers(1, 256, k).astype(U64)
        # Households: fixed /64s holding static devices (random static and
        # EUI-64 IIDs, same address every day) and privacy devices.
        self.privacy = n - _count(SIXTO4, n) - _count(TEREDO, n, 1) - _count(ISATAP, n, 1) \
            - _count(spec.block_share, n) - _count(spec.link_share, n) \
            - _count(SERVERS, n) - _count(STATIC, n) - _count(EUI64, n)
        self.privacy_fixed = int(round((1.0 - POOL) * self.privacy))
        devices = int(round(self.privacy_fixed / DEVICE_TAKE))
        homes = _native_prefixes(rng, max(1, int(round(devices / HOUSEHOLD_DEVICES))))
        self.device_hi = homes[rng.integers(0, homes.shape[0], devices)]
        static = _count(STATIC / STABLE_TAKE, n)
        eui = _count(EUI64 * (1 - MOBILE) / STABLE_TAKE, n)
        self.static_hi = homes[rng.integers(0, homes.shape[0], static + eui)]
        self.static_lo = np.concatenate([_clean_iid(_u64(rng, static)),
                                         _eui64(_macs(rng, eui))])
        # Carrier pool of /64s, drawn with replacement every day, and the
        # mobile EUI-64 devices that land in it.
        self.privacy_pool = self.privacy - self.privacy_fixed
        self.mobile_rows = _count(EUI64, n) - _count(EUI64 * (1 - MOBILE), n)
        self.draws = max(1, int(round(self.privacy_pool / DRAW_ADDRS)))
        self.pool_hi = _native_prefixes(rng, int(round(POOL_SIZE * self.draws)))
        self.mobile_macs = _macs(rng, int(round(self.mobile_rows / MOBILE_TAKE)))
        # Dense low-IID blocks: sizes chosen to hit every Table 3 class.
        sizes = np.array([2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 100, 200], dtype=np.int64)
        block_sizes: List[int] = []
        target = max(2, int(round(spec.block_share * n / INFRA_TAKE)))
        while sum(block_sizes) < target:
            block_sizes.append(int(sizes[rng.integers(0, sizes.shape[0])]))
        block_sizes[-1] -= sum(block_sizes) - target  # same total for every seed
        b = len(block_sizes)
        block_hi = _native_prefixes(rng, b)
        # Blocks start at ::1 or at a /112-aligned offset inside the /64.
        base = np.where(rng.random(b) < 0.5, U64(1),
                        (rng.integers(0, 1 << 16, b).astype(U64) << U64(16)) + U64(1))
        counts = np.array(block_sizes, dtype=np.int64)
        owner = np.repeat(np.arange(b), counts)
        offset = np.arange(owner.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
        self.block_hi = block_hi[owner]
        self.block_lo = base[owner] + offset.astype(U64)
        # Router links: half /127 (::0, ::1), half /126 (::1, ::2).
        pairs = max(1, int(round(spec.link_share * n / 2 / INFRA_TAKE)))
        link_hi = _native_prefixes(rng, pairs)
        first = np.where(rng.random(pairs) < 0.5, U64(0), U64(1))
        self.link_hi = np.repeat(link_hi, 2)
        self.link_lo = np.repeat(first, 2) + np.tile(np.array([0, 1], dtype=U64), pairs)
        # ISATAP sites: a few native /64s.
        self.isatap_sites = _native_prefixes(rng, max(1, n // 2000))


def _sixto4(rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
    v4 = rng.integers(0x01000000, 0xDF000000, n).astype(U64)
    hi = (U64(0x2002) << U64(48)) | (v4 << U64(16)) | rng.integers(0, 4, n).astype(U64)
    kind = rng.random(n)
    lo = np.where(kind < 0.3, _eui64(_macs(rng, n)),
                  np.where(kind < 0.6, rng.integers(1, 3, n).astype(U64),
                           _clean_iid(_u64(rng, n))))
    return hi, lo


def _teredo(rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
    server = rng.integers(0x41000000, 0x42000000, n).astype(U64)
    hi = (U64(0x20010000) << U64(32)) | server
    flags = np.where(rng.random(n) < 0.5, U64(0x8000), U64(0))
    port = rng.integers(0, 1 << 16, n).astype(U64)
    client = rng.integers(0, 1 << 32, n).astype(U64)
    return hi, _clean_iid((flags << U64(48)) | (port << U64(32)) | client)


def _day_rows(pop: _Population, seed: int, index: int) -> Tuple[np.ndarray, ...]:
    """One day's (hi, lo, category, hits) rows, before merging duplicates."""
    rng = _rng(seed, 2, index)
    n = pop.n
    parts: List[Tuple[np.ndarray, np.ndarray, int]] = []

    def pick(size: int, rows: int) -> np.ndarray:
        # An exact count, so every seed yields the same number of rows.
        return rng.choice(size, size=min(rows, size), replace=False)

    def take(hi: np.ndarray, lo: np.ndarray, rows: int, cat: int = CAT_NATIVE) -> None:
        keep = pick(hi.shape[0], rows)
        parts.append((hi[keep], lo[keep], cat))

    take(pop.server_hi, pop.server_lo, _count(SERVERS, n))
    take(pop.static_hi, pop.static_lo, _count(STATIC, n) + _count(EUI64 * (1 - MOBILE), n))
    take(pop.block_hi, pop.block_lo, _count(pop.spec.block_share, n))
    take(pop.link_hi, pop.link_lo, _count(pop.spec.link_share, n))
    # Privacy churn: every active device shows a fresh IID.
    hi = pop.device_hi[pick(pop.device_hi.shape[0], pop.privacy_fixed)]
    parts.append((hi, _clean_iid(_u64(rng, hi.shape[0])), CAT_NATIVE))
    draws = pop.pool_hi[rng.integers(0, pop.pool_hi.shape[0], pop.draws)]
    parts.append((draws[rng.integers(0, pop.draws, pop.privacy_pool)],
                  _clean_iid(_u64(rng, pop.privacy_pool)), CAT_NATIVE))
    macs = pop.mobile_macs[pick(pop.mobile_macs.shape[0], pop.mobile_rows)]
    parts.append((draws[rng.integers(0, pop.draws, macs.shape[0])], _eui64(macs), CAT_NATIVE))
    parts.append((*_sixto4(rng, _count(SIXTO4, n)), CAT_6TO4))
    parts.append((*_teredo(rng, _count(TEREDO, n, 1)), CAT_TEREDO))
    k = _count(ISATAP, n, 1)
    v4 = rng.integers(0x0A000000, 0xDF000000, k).astype(U64)
    marker = np.where(rng.random(k) < 0.5, U64(0x00005EFE), U64(0x02005EFE))
    parts.append((pop.isatap_sites[rng.integers(0, pop.isatap_sites.shape[0], k)],
                  (marker << U64(32)) | v4, CAT_ISATAP))
    hi = np.concatenate([p[0] for p in parts])
    lo = np.concatenate([p[1] for p in parts])
    cat = np.concatenate([np.full(p[0].shape[0], p[2], dtype=np.uint8) for p in parts])
    return hi, lo, cat, _pareto_hits(rng, hi.shape[0])


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


def eui_macs(lo: np.ndarray) -> np.ndarray:
    """MAC behind each EUI-64 IID, 2**63 where the IID is not EUI-64."""
    is_eui = ((lo >> U64(24)) & U64(0xFFFF)) == U64(0xFFFE)
    mac = (((lo >> U64(40)) << U64(24)) | (lo & U64(0xFFFFFF))) ^ U64(0x020000000000)
    return np.where(is_eui, mac, U64(1 << 63))


# ---------------------------------------------------------------------------
# RFC 5952 text, vectorized
# ---------------------------------------------------------------------------

_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HITS_WIDTH = 20


def format_lines(hi: np.ndarray, lo: np.ndarray, hits: np.ndarray) -> bytes:
    """``"<canonical address> <hits>\\n"`` lines for the given rows.

    Builds a fixed-width byte matrix with NUL in unused cells, then drops
    the NULs: the longest run of two or more zero groups (leftmost on a
    tie) becomes ``::``, groups lose leading zeros, hex is lower case.
    """
    n = hi.shape[0]
    if n == 0:
        return b""
    groups = np.empty((n, 8), dtype=np.int64)
    for i in range(4):
        groups[:, i] = ((hi >> U64(48 - 16 * i)) & U64(0xFFFF)).astype(np.int64)
        groups[:, 4 + i] = ((lo >> U64(48 - 16 * i)) & U64(0xFFFF)).astype(np.int64)
    run = np.zeros((n, 9), dtype=np.int64)
    for j in range(7, -1, -1):
        run[:, j] = np.where(groups[:, j] == 0, run[:, j + 1] + 1, 0)
    best = run[:, :8].max(axis=1)
    start = run[:, :8].argmax(axis=1)
    best = np.where(best >= 2, best, 0)
    start = np.where(best >= 2, start, 8)
    end = start + best
    col = np.arange(8)[None, :]
    in_run = (col >= start[:, None]) & (col < end[:, None])
    # Per group: 4 hex cells, then one separator cell.
    cells = np.zeros((n, 8, 5), dtype=np.uint8)
    ndigits = np.where(groups >= 0x1000, 4, np.where(groups >= 0x100, 3,
                                                     np.where(groups >= 0x10, 2, 1)))
    for k in range(4):
        digit = (groups >> (4 * (3 - k))) & 0xF
        cells[:, :, k] = np.where((4 - k <= ndigits) & ~in_run, _HEX[digit], 0)
    sep = (col < 7) & ~in_run & (col != start[:, None] - 1)
    cells[:, :, 4] = np.where(sep, ord(":"), 0)
    # "::" sits in the first two cells of the run's first group.
    first = col == start[:, None]
    cells[:, :, 0] = np.where(first, ord(":"), cells[:, :, 0])
    cells[:, :, 1] = np.where(first, ord(":"), cells[:, :, 1])
    text = np.zeros((n, 40 + 2 + _HITS_WIDTH), dtype=np.uint8)
    text[:, :40] = cells.reshape(n, 40)
    text[:, 40] = ord(" ")
    value = hits.astype(U64).copy()
    for k in range(_HITS_WIDTH - 1, -1, -1):
        digit = (value % U64(10)).astype(np.uint8) + ord("0")
        nonzero = (value > 0) | (k == _HITS_WIDTH - 1)
        text[:, 41 + k] = np.where(nonzero, digit, 0)
        value //= U64(10)
    text[:, -1] = ord("\n")
    flat = text.ravel()
    return flat[flat != 0].tobytes()


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """A generated workload: log paths plus ground truth in universe ids."""

    name: str
    seed: int
    days: List[int]
    paths: List[str]
    u_hi: np.ndarray
    u_lo: np.ndarray
    u_cat: np.ndarray  # construction category of each universe address
    day_ids: List[np.ndarray]  # sorted universe ids active per day
    day_hits: List[np.ndarray]  # summed hits, parallel to day_ids
    log_bytes: int


def build(seed: int, spec: Spec) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray,
                                         List[np.ndarray], List[np.ndarray]]:
    """Ground truth: days, universe (hi, lo, category), per-day ids and hits."""
    pop = _Population(seed, spec)
    rows = [_day_rows(pop, seed, i) for i in range(spec.days)]
    hi = np.concatenate([r[0] for r in rows])
    lo = np.concatenate([r[1] for r in rows])
    order = np.lexsort((lo, hi))
    shi, slo = hi[order], lo[order]
    new = np.ones(shi.shape[0], dtype=bool)
    new[1:] = (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1])
    uid_sorted = np.cumsum(new) - 1
    uid = np.empty_like(uid_sorted)
    uid[order] = uid_sorted
    u_hi, u_lo = shi[new], slo[new]
    # The construction ranges are disjoint, so a repeated address always
    # carries the same category.
    u_cat = np.concatenate([r[2] for r in rows])[order][new]
    day_ids: List[np.ndarray] = []
    day_hits: List[np.ndarray] = []
    at = 0
    for row in rows:
        hits = row[3]
        ids = uid[at:at + hits.shape[0]]
        at += hits.shape[0]
        unique, inverse = np.unique(ids, return_inverse=True)
        summed = np.zeros(unique.shape[0], dtype=U64)
        np.add.at(summed, inverse, hits)
        day_ids.append(unique)
        day_hits.append(summed)
    days = [BASE_DAY + i for i in range(spec.days)]
    return days, u_hi, u_lo, u_cat, day_ids, day_hits


def _arrival_rows(rng: np.random.Generator, ids: np.ndarray, hits: np.ndarray,
                  dup_share: float) -> Tuple[np.ndarray, np.ndarray]:
    """Shuffle a day's rows and split some hit counts over two lines."""
    split = (rng.random(ids.shape[0]) < dup_share) & (hits >= U64(2))
    part = np.floor(rng.random(int(split.sum())) * (hits[split] - U64(1)).astype(np.float64))
    first = part.astype(U64) + U64(1)
    out_ids = np.concatenate([ids, ids[split]])
    out_hits = hits.copy()
    out_hits[split] = first
    out_hits = np.concatenate([out_hits, hits[split] - first])
    perm = rng.permutation(out_ids.shape[0])
    return out_ids[perm], out_hits[perm]


def write_logs(directory: str, name: str, seed: int, spec: Spec) -> Dataset:
    """Generate and write one workload's logs; returns the dataset."""
    days, u_hi, u_lo, u_cat, day_ids, day_hits = build(seed, spec)
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    total = 0
    for i, day in enumerate(days):
        ids, hits = day_ids[i], day_hits[i]
        if spec.arrival_order:
            ids, hits = _arrival_rows(_rng(seed, 3, i), ids, hits, spec.dup_share)
        payload = f"# repro aggregated log day={day}\n".encode("ascii") + format_lines(
            u_hi[ids], u_lo[ids], hits
        )
        path = os.path.join(directory, f"log-{day}.txt")
        with open(path, "wb") as handle:
            handle.write(payload)
        paths.append(path)
        total += len(payload)
    return Dataset(name, seed, days, paths, u_hi, u_lo, u_cat, day_ids, day_hits, total)
