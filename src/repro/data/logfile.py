"""Aggregated-log file format: the on-disk form of the paper's input.

One text file per day, one log entry per line::

    <address-presentation-format> <hit-count>

with ``#``-prefixed comment lines (the header records the day number).
This mirrors the paper's aggregated logs — hit counts per client address
per 24-hour period — in a form that sorts and greps well.  The format is
deliberately plain so external datasets (public hitlists, zmap output)
can be converted in with a one-line awk script.

Semantics:

* **Duplicate addresses are merged** by summing their hit counts.  The
  aggregated logs are per-address totals, so two lines for the same
  address mean the aggregator flushed twice; a reader must never count
  the address twice.  :func:`read_daily_log` keeps first-seen order for
  merged entries; :func:`read_daily_log_arrays` returns them sorted.
* **Hit counts are ASCII digits only** (``0-9``).  Unicode digits such
  as ``"٣"`` satisfy ``str.isdigit()`` and convert via ``int()``, but
  are not valid log syntax and raise :class:`LogFormatError`.

Ingestion is columnar: the whole file is tokenized with vectorized
numpy passes over the raw bytes, address bytes are gathered into a
matrix and parsed by :func:`repro.net.batchparse.parse_matrix`, and hit
counts are evaluated with a handful of vectorized digit passes.  Only
exotic rows (embedded IPv4, >19-digit counts, …) fall back to scalar
code.  :func:`load_store` can additionally fan days out across worker
processes (days are independent) and reuse the binary columnar cache in
:mod:`repro.data.daycache`.

Error handling is two-mode.  ``errors="strict"`` (the default) raises
:class:`LogFormatError` on the first malformed line — bit-for-bit the
historical behavior.  ``errors="quarantine"`` diverts each malformed
line (and, in :func:`load_store`, each unreadable day file) into a
structured :class:`repro.runtime.quarantine.QuarantineReport` and keeps
going, with :class:`repro.runtime.quarantine.QuarantinePolicy`
thresholds bounding the tolerated loss — dirty year-long campaigns
degrade gracefully instead of aborting on one bad byte, and the loss is
always reported.  Parallel loading runs under the supervised pool
(:mod:`repro.runtime.pool`): crashed or wedged parse workers are
detected, retried with backoff, and finally re-executed serially.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.store import DailyObservations, ObservationStore, canonical_columns
from repro.net import addr, batchparse
from repro.runtime.pool import PoolConfig, RunReport, supervised_map
from repro.runtime.quarantine import (
    ERRORS_QUARANTINE,
    ERRORS_STRICT,
    QuarantinePolicy,
    QuarantineReport,
    check_errors_mode,
)


class LogFormatError(ValueError):
    """Raised when a log line cannot be parsed."""


_NEWLINE = 0x0A
_HASH = ord("#")
_ZERO = ord("0")
_NINE = ord("9")

#: Hit counts of at most this many digits are parsed vectorized; longer
#: ones take the scalar path (and must still fit in uint64).
_MAX_FAST_HIT_DIGITS = 19

_UINT64_MAX = (1 << 64) - 1


def write_daily_log(
    path: str,
    day: int,
    entries: Iterable[Tuple[int, int]],
) -> None:
    """Write one day's aggregated log: (address, hits) pairs."""
    pairs = list(entries)
    hi, lo = batchparse.ints_to_halves([address for address, _hits in pairs])
    texts = batchparse.format_batch(hi, lo)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# repro aggregated log day={day}\n")
        handle.writelines(
            f"{text} {int(hits)}\n"
            for text, (_address, hits) in zip(texts, pairs)
        )


def write_daily_log_arrays(
    path: str,
    day: int,
    hi: np.ndarray,
    lo: np.ndarray,
    hits: Optional[np.ndarray] = None,
) -> None:
    """Write one day's log directly from columnar (hi, lo, hits) arrays.

    The output is canonical: addresses are sorted, duplicates merged by
    summing their hit counts.  Readers detect the sorted form and skip
    their own merge pass.
    """
    hi = np.ascontiguousarray(hi, dtype=np.uint64)
    lo = np.ascontiguousarray(lo, dtype=np.uint64)
    counts = (
        np.ones(hi.shape[0], dtype=np.uint64)
        if hits is None
        else np.asarray(hits, dtype=np.uint64)
    )
    hi, lo, merged_hits = canonical_columns(hi, lo, counts)
    texts = batchparse.format_batch(hi, lo)
    lines = [f"{text} {int(h)}\n" for text, h in zip(texts, merged_hits)]
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# repro aggregated log day={day}\n")
        handle.writelines(lines)


def _day_from_comment(line: str) -> Optional[int]:
    if "day=" not in line:
        return None
    try:
        return int(line.split("day=", 1)[1].split()[0])
    except (ValueError, IndexError):
        return None


def _error(path: str, line_number: int, message: str) -> LogFormatError:
    return LogFormatError(f"{path}:{line_number}: {message}")


def read_daily_log(
    path: str,
    errors: str = ERRORS_STRICT,
    report: Optional[QuarantineReport] = None,
) -> Tuple[Optional[int], List[Tuple[int, int]]]:
    """Read one day's aggregated log; returns (day, entries).

    The day comes from the header comment when present, else None.
    Duplicate addresses are merged by summing hit counts (first-seen
    order is kept).  With ``errors="strict"`` malformed lines raise
    :class:`LogFormatError` with the line number; with
    ``errors="quarantine"`` they are diverted into ``report`` and
    skipped.
    """
    quarantine = check_errors_mode(errors) == ERRORS_QUARANTINE
    if quarantine and report is None:
        report = QuarantineReport()
    day: Optional[int] = None
    address_texts: List[str] = []
    hit_values: List[int] = []
    line_numbers: List[int] = []
    entry_line_count = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if day is None:
                    day = _day_from_comment(line)
                continue
            entry_line_count += 1
            parts = line.split()
            if len(parts) != 2:
                if not quarantine:
                    raise _error(
                        path, line_number, f"expected 'address hits', got {line!r}"
                    )
                assert report is not None
                report.line_fault(path, line_number, "bad-line-shape", line)
                continue
            hits_text = parts[1]
            if not hits_text or any(
                not ("0" <= ch <= "9") for ch in hits_text
            ):
                if not quarantine:
                    raise _error(path, line_number, f"bad hit count {hits_text!r}")
                assert report is not None
                report.line_fault(path, line_number, "bad-hit-count", line)
                continue
            address_texts.append(parts[0])
            hit_values.append(int(hits_text))
            line_numbers.append(line_number)
    if quarantine:
        assert report is not None
        report.note_lines(path, entry_line_count)
    try:
        values = batchparse.parse_batch_ints(address_texts)
    except addr.AddressError:
        if quarantine:
            assert report is not None
            values = []
            kept_hits: List[int] = []
            for text, hits, line_number in zip(
                address_texts, hit_values, line_numbers
            ):
                try:
                    values.append(addr.parse(text))
                    kept_hits.append(hits)
                except addr.AddressError:
                    report.line_fault(path, line_number, "bad-address", text)
            hit_values = kept_hits
        else:
            # Re-scan scalar to report the first offending line precisely.
            for text, line_number in zip(address_texts, line_numbers):
                try:
                    addr.parse(text)
                except addr.AddressError as exc:
                    raise _error(path, line_number, str(exc)) from exc
            raise  # pragma: no cover - batch/scalar disagreement
    merged: Dict[int, int] = {}
    for value, hits in zip(values, hit_values):
        merged[value] = merged.get(value, 0) + hits
    return day, list(merged.items())


def _token_spans(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized tokenizer: (starts, ends, line_index) of all tokens."""
    is_nl = data == _NEWLINE
    is_ws = (data == 0x20) | (data == 0x09) | (data == 0x0D) | is_nl
    word = ~is_ws
    starts_mask = word.copy()
    starts_mask[1:] &= ~word[:-1]
    ends_mask = word.copy()
    ends_mask[:-1] &= ~word[1:]
    starts = np.nonzero(starts_mask)[0]
    ends = np.nonzero(ends_mask)[0] + 1
    newlines_before = np.cumsum(is_nl, dtype=np.int64)
    lines = newlines_before[starts]  # starts are never newlines
    return starts, ends, lines


def _gather_matrix(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """Gather variable-length byte tokens into a NUL-padded matrix."""
    span = np.arange(width)
    index = starts[:, None] + span
    valid = span < lengths[:, None]
    np.clip(index, 0, data.shape[0] - 1, out=index)
    matrix = data[index]
    matrix[~valid] = 0
    return matrix


def _line_excerpt(raw: np.ndarray, line_id: int) -> str:
    """Decode one line of the raw byte buffer for a quarantine record."""
    newline_positions = np.nonzero(raw == _NEWLINE)[0]
    start = 0 if line_id == 0 else int(newline_positions[line_id - 1]) + 1
    end = (
        int(newline_positions[line_id])
        if line_id < newline_positions.shape[0]
        else raw.shape[0]
    )
    return bytes(raw[start:end]).decode("utf-8", errors="replace").strip()


def _parse_log_bytes(
    data: bytes,
    path: str,
    errors: str = ERRORS_STRICT,
    report: Optional[QuarantineReport] = None,
) -> Tuple[Optional[int], np.ndarray, np.ndarray, np.ndarray]:
    """Columnar day-log parse: returns (day, hi, lo, hits) merged+sorted.

    With ``errors="quarantine"``, malformed entry lines are recorded in
    ``report`` and dropped instead of raising; the surviving rows merge
    and sort exactly as in strict mode.
    """
    quarantine = errors == ERRORS_QUARANTINE
    if quarantine and report is None:
        report = QuarantineReport()
    raw = np.frombuffer(data, dtype=np.uint8)
    empty = (
        None,
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.uint64),
    )
    if raw.shape[0] == 0:
        return empty
    starts, ends, lines = _token_spans(raw)
    if starts.shape[0] == 0:
        return empty

    # `lines` is nondecreasing, so line groups are contiguous runs — no
    # need for np.unique's sort.
    boundary = np.empty(lines.shape[0], dtype=bool)
    boundary[0] = True
    np.not_equal(lines[1:], lines[:-1], out=boundary[1:])
    first_token = np.nonzero(boundary)[0]
    line_ids = lines[first_token]
    tokens_per_line = np.diff(np.append(first_token, lines.shape[0]))
    is_comment_line = raw[starts[first_token]] == _HASH

    # Day header: first comment line mentioning day=.
    day: Optional[int] = None
    if is_comment_line.any():
        newline_positions = np.nonzero(raw == _NEWLINE)[0]
        for line_id in line_ids[is_comment_line]:
            start = 0 if line_id == 0 else int(newline_positions[line_id - 1]) + 1
            end = (
                int(newline_positions[line_id])
                if line_id < newline_positions.shape[0]
                else raw.shape[0]
            )
            day = _day_from_comment(
                bytes(raw[start:end]).decode("utf-8", errors="replace")
            )
            if day is not None:
                break

    bad_counts = ~is_comment_line & (tokens_per_line != 2)
    if quarantine:
        assert report is not None
        report.note_lines(path, int((~is_comment_line).sum()))
    if bad_counts.any():
        if not quarantine:
            bad_line = int(line_ids[bad_counts][0]) + 1
            raise _error(path, bad_line, "expected 'address hits'")
        assert report is not None
        for line_id in line_ids[bad_counts]:
            report.line_fault(
                path,
                int(line_id) + 1,
                "bad-line-shape",
                _line_excerpt(raw, int(line_id)),
            )

    keep = np.repeat(~is_comment_line & ~bad_counts, tokens_per_line)
    starts, ends, lines = starts[keep], ends[keep], lines[keep]
    if starts.shape[0] == 0:
        return (day, *empty[1:])

    address_starts, address_ends = starts[0::2], ends[0::2]
    hit_starts, hit_ends = starts[1::2], ends[1::2]
    entry_lines = lines[0::2] + 1  # 1-based line numbers

    # --- address column ---
    address_lengths = address_ends - address_starts
    width = int(address_lengths.max())
    overlong = address_lengths > batchparse._MAX_WIDTH
    matrix = _gather_matrix(
        raw,
        address_starts,
        np.where(overlong, 0, address_lengths),
        min(width, batchparse._MAX_WIDTH),
    )
    hi, lo, fast = batchparse.parse_matrix(matrix)
    fast &= ~overlong
    bad_rows = np.zeros(hi.shape[0], dtype=bool)
    if not fast.all():
        for i in np.nonzero(~fast)[0]:
            token = bytes(raw[address_starts[i] : address_ends[i]])
            try:
                value = addr.parse(token.decode("utf-8", errors="replace"))
            except addr.AddressError as exc:
                if not quarantine:
                    raise _error(path, int(entry_lines[i]), str(exc)) from exc
                assert report is not None
                report.line_fault(
                    path,
                    int(entry_lines[i]),
                    "bad-address",
                    token.decode("utf-8", errors="replace"),
                )
                bad_rows[i] = True
                continue
            hi[i] = value >> 64
            lo[i] = value & addr.IID_MASK

    # --- hit-count column ---
    hit_lengths = hit_ends - hit_starts
    slow_hits = hit_lengths > _MAX_FAST_HIT_DIGITS
    hit_matrix = _gather_matrix(
        raw,
        hit_starts,
        np.where(slow_hits, 0, hit_lengths),
        min(int(hit_lengths.max()), _MAX_FAST_HIT_DIGITS),
    )
    in_token = np.arange(hit_matrix.shape[1]) < hit_lengths[:, None]
    digit_ok = (hit_matrix >= _ZERO) & (hit_matrix <= _NINE)
    bad_digit = (in_token & ~digit_ok).any(axis=1)
    if bad_digit.any():
        if not quarantine:
            i = int(np.nonzero(bad_digit)[0][0])
            token = bytes(raw[hit_starts[i] : hit_ends[i]])
            raise _error(
                path,
                int(entry_lines[i]),
                f"bad hit count {token.decode('utf-8', errors='replace')!r}",
            )
        assert report is not None
        for i in np.nonzero(bad_digit & ~bad_rows)[0]:
            token = bytes(raw[hit_starts[i] : hit_ends[i]])
            report.line_fault(
                path,
                int(entry_lines[i]),
                "bad-hit-count",
                token.decode("utf-8", errors="replace"),
            )
        bad_rows |= bad_digit
    digits = (hit_matrix - _ZERO).astype(np.uint64)
    hits = np.zeros(hit_lengths.shape[0], dtype=np.uint64)
    for column in range(hit_matrix.shape[1]):
        active = column < hit_lengths
        hits = np.where(active, hits * np.uint64(10) + digits[:, column], hits)
    if slow_hits.any():
        for i in np.nonzero(slow_hits)[0]:
            if bad_rows[i]:
                continue
            token = bytes(raw[hit_starts[i] : hit_ends[i]]).decode(
                "utf-8", errors="replace"
            )
            fault: Optional[str] = None
            if any(not ("0" <= ch <= "9") for ch in token):
                fault = f"bad hit count {token!r}"
            elif int(token) > _UINT64_MAX:
                fault = f"hit count exceeds 64 bits: {token!r}"
            if fault is not None:
                if not quarantine:
                    raise _error(path, int(entry_lines[i]), fault)
                assert report is not None
                report.line_fault(path, int(entry_lines[i]), "bad-hit-count", token)
                bad_rows[i] = True
                continue
            hits[i] = int(token)

    if quarantine and bad_rows.any():
        good = ~bad_rows
        hi, lo, hits = hi[good], lo[good], hits[good]
        if hi.shape[0] == 0:
            return (day, *empty[1:])

    # --- merge duplicates, sort ---
    # Logs written by save_store are already sorted and unique; the merge
    # kernel detects that with a few vectorized passes and skips its sort.
    hi, lo, merged_hits = canonical_columns(hi, lo, hits)
    return day, hi, lo, merged_hits


def read_daily_log_arrays(
    path: str,
    errors: str = ERRORS_STRICT,
    report: Optional[QuarantineReport] = None,
) -> Tuple[Optional[int], np.ndarray, np.ndarray, np.ndarray]:
    """Columnar fast path: read a day log straight into uint64 arrays.

    Returns ``(day, hi, lo, hits)`` with addresses sorted, deduplicated,
    and duplicate hit counts summed — exactly the layout
    :class:`repro.data.store.DailyObservations` holds, so no per-element
    Python work happens anywhere on this path.  ``errors="quarantine"``
    diverts malformed lines into ``report`` instead of raising.
    """
    check_errors_mode(errors)
    with open(path, "rb") as handle:
        data = handle.read()
    return _parse_log_bytes(data, path, errors=errors, report=report)


#: A load_store worker task: (path, cache_dir, errors).
_DayTask = Tuple[str, Optional[str], str]

#: A worker's answer: (payload or None for a lost day, delta report).
_DayResult = Tuple[
    Optional[Tuple[Optional[int], np.ndarray, np.ndarray, np.ndarray]],
    Optional[QuarantineReport],
]


def _load_day_task(task: _DayTask) -> _DayResult:
    """Load one day as arrays, through the binary cache when enabled.

    Runs in a (possibly forked) pool worker; in quarantine mode every
    fault lands in the returned delta report, which the parent merges —
    including whole-day loss (unreadable file), returned as a ``None``
    payload so the day becomes an explicit gap rather than an abort.
    Threshold enforcement is deliberately left to the parent: a
    threshold breach must abort the *run*, not look like a worker fault
    the supervisor would pointlessly retry.
    """
    path, cache_dir, errors = task
    quarantine = errors == ERRORS_QUARANTINE
    delta = QuarantineReport() if quarantine else None
    try:
        if cache_dir is not None:
            from repro.data import daycache

            payload = daycache.load_day(path, cache_dir, errors=errors, report=delta)
        else:
            payload = read_daily_log_arrays(path, errors=errors, report=delta)
    except OSError as exc:
        if not quarantine:
            raise
        assert delta is not None
        delta.day_fault(path, "unreadable-file", str(exc))
        return None, delta
    return payload, delta


def save_store(store: ObservationStore, directory: str, prefix: str = "log") -> List[str]:
    """Write every day of a store as ``<prefix>-<day>.txt`` files."""
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for observations in store.iter_days():
        path = os.path.join(directory, f"{prefix}-{observations.day}.txt")
        write_daily_log_arrays(
            path,
            observations.day,
            observations.addresses["hi"],
            observations.addresses["lo"],
            observations.hits,
        )
        paths.append(path)
    return paths


def load_store(
    paths: Iterable[str],
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    errors: str = ERRORS_STRICT,
    report: Optional[QuarantineReport] = None,
    policy: Optional[QuarantinePolicy] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> ObservationStore:
    """Load daily log files into an observation store.

    Files without a day header take the next integer after the current
    maximum (so ordering of pathnames defines their sequence).

    Args:
        paths: the daily log files, in day order.
        jobs: number of worker processes.  ``None`` or 1 loads serially;
            0 uses all CPUs; a negative value raises ``ValueError``
            (see :func:`repro.runtime.pool.resolve_jobs`).  Days are
            independent, so the parse work fans out cleanly under the
            supervised pool (crashed/wedged workers are retried, then
            re-run serially).
        cache_dir: when given, each file's parsed columns are persisted
            in (and reused from) a binary columnar cache keyed by the
            file's content hash — see :mod:`repro.data.daycache`.
        errors: ``"strict"`` (default) raises on the first malformed
            line or unreadable file; ``"quarantine"`` diverts faults
            into ``report`` — malformed lines are dropped, unreadable
            days become explicit gaps, duplicate day numbers merge with
            an info record.
        report: quarantine sink; a fresh one is created when omitted.
        policy: loss budgets enforced in quarantine mode (defaults to
            :class:`QuarantinePolicy`); raises
            :class:`repro.runtime.quarantine.QuarantineThresholdError`
            when exceeded.
        report_sink: when given, receives the pool's
            :class:`repro.runtime.pool.RunReport`.
    """
    quarantine = check_errors_mode(errors) == ERRORS_QUARANTINE
    if quarantine and report is None:
        report = QuarantineReport()
    if quarantine and policy is None:
        policy = QuarantinePolicy()
    path_list = [os.fspath(p) for p in paths]
    tasks: List[_DayTask] = [(p, cache_dir, errors) for p in path_list]
    config = PoolConfig(label="load-store")
    outcomes = supervised_map(
        _load_day_task, tasks, jobs=jobs, config=config, report_sink=report_sink
    )
    store = ObservationStore()
    next_day = 0
    for path, (payload, delta) in zip(path_list, outcomes):
        if quarantine and delta is not None:
            assert report is not None
            report.merge(delta)
        if payload is None:
            continue  # lost day: explicit gap, already in the report
        day, hi, lo, hits = payload
        if day is None:
            day = next_day
        if quarantine and day in store:
            assert report is not None
            report.info(
                path, "duplicate-day", f"day {day} already loaded; replacing"
            )
        store.add_observations(
            DailyObservations.from_halves(day, hi, lo, hits, merged=True)
        )
        next_day = day + 1
    if quarantine:
        assert report is not None and policy is not None
        for path in path_list:
            report.enforce_day(path, policy)
        report.enforce_run(policy, len(path_list))
    return store
