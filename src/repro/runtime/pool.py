"""Supervised fork-based worker pools for the pipeline's fan-out paths.

The bare ``multiprocessing.Pool``/``ProcessPoolExecutor`` fan-outs the
engines used before this module had three failure modes a year-long run
cannot afford: a worker killed by the OOM killer poisons or hangs the
whole map, a wedged worker stalls it forever, and a transient fault
(NFS hiccup, cache race) aborts instead of retrying.  ``run_supervised``
replaces them with one supervisor that provides:

* **persistent, isolated workers** — each call forks at most ``jobs``
  workers once and feeds them task attempts over their pipes; killing
  a wedged or crashed worker loses only that worker's in-flight
  attempt, and a replacement is forked for the work that remains;
* **crashed-worker detection** — a worker that dies without reporting
  (nonzero exit, lost pipe) is detected and the task retried;
* **per-task timeouts** — a worker exceeding ``timeout`` seconds on an
  attempt is killed and the task retried;
* **bounded retry with exponential backoff + jitter** — deterministic
  jitter derived from :mod:`repro.sim.rng` substreams, so two
  supervisors retrying the same task never thunder in lockstep and a
  rerun with the same seed schedules identically;
* **serial re-execution fallback** — a poison task that exhausts its
  retries is re-run inline in the parent, where a genuine exception
  surfaces with its real traceback instead of a pickled shadow;
* **a structured** :class:`RunReport` of every attempt, retry,
  timeout, crash, and fallback, so "it worked" and "it worked after
  recovering from three dead workers" are distinguishable.

Workers inherit parent state by fork (copy-on-write), exactly like the
engines' previous pools: callers set their module-level worker globals
before calling ``run_supervised`` and clear them after.  Only a task's
index travels to a worker; the task list itself is inherited, never
pickled.  Where fork is unavailable the supervisor degrades to serial
in-process execution — slower, never wrong.

Results are returned in task order regardless of completion order; the
optional ``on_result`` callback fires in *completion* order and is the
checkpoint layer's hook.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: Outcomes a task attempt can end in.
OUTCOME_OK = "ok"
OUTCOME_CRASH = "crash"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"
OUTCOME_SERIAL_OK = "serial-ok"
OUTCOME_SERIAL_FAIL = "serial-fail"

_WORKER_OUTCOMES = (OUTCOME_CRASH, OUTCOME_TIMEOUT, OUTCOME_ERROR)


@dataclass(frozen=True)
class PoolConfig:
    """Supervision parameters for one ``run_supervised`` call.

    ``retries`` bounds *additional* worker attempts after the first;
    once exhausted, the task falls back to serial in-parent execution
    (unless ``fallback`` is False, in which case a
    :class:`PoolTaskError` is raised).  ``timeout`` is per attempt, in
    seconds; ``None`` disables it.  Backoff before retry ``k`` is
    ``min(max_delay, base_delay * 2**k)`` scaled by deterministic
    jitter in [0.5, 1.5) derived from ``(seed, label, task, k)``.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0
    label: str = "pool"
    fallback: bool = True


@dataclass(frozen=True)
class TaskAttempt:
    """One attempt at one task: which, how it ended, and how long it took."""

    index: int
    attempt: int
    outcome: str
    detail: str = ""
    elapsed: float = 0.0


@dataclass
class RunReport:
    """Structured account of a supervised run's attempts and recoveries."""

    label: str
    tasks: int
    attempts: List[TaskAttempt] = field(default_factory=list)

    def _count(self, *outcomes: str) -> int:
        return sum(1 for a in self.attempts if a.outcome in outcomes)

    @property
    def crashes(self) -> int:
        """Worker attempts that died without reporting a result."""
        return self._count(OUTCOME_CRASH)

    @property
    def timeouts(self) -> int:
        """Worker attempts killed for exceeding the per-task timeout."""
        return self._count(OUTCOME_TIMEOUT)

    @property
    def errors(self) -> int:
        """Worker attempts that raised and reported an exception."""
        return self._count(OUTCOME_ERROR)

    @property
    def retries(self) -> int:
        """Worker attempts beyond each task's first."""
        worker_outcomes = (OUTCOME_OK,) + _WORKER_OUTCOMES
        return sum(
            1 for a in self.attempts if a.attempt > 0 and a.outcome in worker_outcomes
        )

    @property
    def fallbacks(self) -> int:
        """Tasks that were re-executed serially in the parent."""
        return self._count(OUTCOME_SERIAL_OK, OUTCOME_SERIAL_FAIL)

    @property
    def clean(self) -> bool:
        """True when every task succeeded on its first worker attempt."""
        return all(a.outcome == OUTCOME_OK and a.attempt == 0 for a in self.attempts)

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        return (
            f"{self.label}: {self.tasks} task(s), "
            f"{len(self.attempts)} attempt(s) — "
            f"{self.crashes} crash(es), {self.timeouts} timeout(s), "
            f"{self.errors} error(s), {self.fallbacks} serial fallback(s)"
        )


class PoolTaskError(RuntimeError):
    """A task failed every worker attempt and serial fallback was disabled."""

    def __init__(self, label: str, index: int, detail: str) -> None:
        super().__init__(
            f"{label}: task {index} failed all worker attempts: {detail}"
        )
        self.index = index
        self.detail = detail


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None``/1 -> serial; 0 -> all CPUs; N -> N workers."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0: {jobs}")
    return jobs


def backoff_delay(config: PoolConfig, index: int, attempt: int) -> float:
    """Deterministic backoff-with-jitter before retry ``attempt``."""
    from repro.sim.rng import stable_uniform

    delay = min(config.max_delay, config.base_delay * (2.0 ** max(attempt - 1, 0)))
    jitter = 0.5 + stable_uniform(config.seed, config.label, "backoff", index, attempt)
    return delay * jitter


def _worker_main(
    func: Callable[[Any], Any],
    tasks: Sequence[Any],
    label: str,
    conn: Any,
    inherited: Sequence[Any],
) -> None:
    """Forked worker body: run the attempts the supervisor sends until stopped.

    Each message is ``(index, attempt)``; the reply is one ``(outcome,
    payload)``.  ``None`` (or EOF, when the supervisor is gone) stops
    the worker.  ``inherited`` holds the parent-side pipe ends this
    worker got through fork — its own and its older siblings' — which
    are closed first: a copy left open here would keep a dead
    supervisor's pipes from ever reaching EOF, so its workers would
    block in ``recv`` forever.  Fault-injection hooks (see
    :mod:`repro.sim.faults`) run before every attempt, so a
    deterministic "kill this worker" plan lands before any real work.
    Exits via ``os._exit`` so the parent's inherited atexit handlers
    and buffered streams are never run twice.
    """
    for end in inherited:
        end.close()
    code = 0
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            index, attempt = message
            try:
                if os.environ.get("REPRO_FAULTS"):
                    from repro.sim.faults import apply_worker_faults

                    apply_worker_faults(label, index, attempt)
                # The result is sent and dropped at once: a worker that
                # lives across tasks must not keep earlier results alive.
                conn.send((OUTCOME_OK, func(tasks[index])))
            except BaseException:  # noqa: BLE001 - the pipe is the error channel
                conn.send((OUTCOME_ERROR, traceback.format_exc()))
    except (EOFError, OSError):
        code = 2
    finally:
        os._exit(code)


@dataclass
class _Worker:
    """A persistent forked worker and the attempt it is running, if any."""

    process: Any
    conn: Any
    index: int = -1
    attempt: int = 0
    deadline: Optional[float] = None
    started: float = 0.0


def run_supervised(
    func: Callable[[Any], Any],
    tasks: Sequence[Any],
    config: PoolConfig,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> Tuple[List[Any], RunReport]:
    """Run ``func`` over ``tasks`` under supervision; see module docstring.

    Returns ``(results, report)`` with ``results[i] = func(tasks[i])``
    in task order.  Serial execution (``jobs <= 1``, a single task, or
    no fork support) runs everything inline with no supervision
    overhead — exceptions propagate unchanged, exactly like a plain
    loop.  Otherwise at most ``config.jobs`` workers are forked, each
    once, and a worker is replaced only after it crashes or is killed
    for a timeout.  No worker outlives the call.
    """
    task_list = list(tasks)
    report = RunReport(label=config.label, tasks=len(task_list))
    results: List[Any] = [None] * len(task_list)
    if not task_list:
        return results, report
    use_fork = (
        config.jobs > 1
        and len(task_list) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    if not use_fork:
        for index, task in enumerate(task_list):
            started = time.monotonic()
            results[index] = func(task)
            report.attempts.append(
                TaskAttempt(
                    index, 0, OUTCOME_OK, elapsed=time.monotonic() - started
                )
            )
            if on_result is not None:
                on_result(index, results[index])
        return results, report

    context = multiprocessing.get_context("fork")
    pending: Deque[Tuple[int, int]] = deque(
        (index, 0) for index in range(len(task_list))
    )
    #: (ready_time, index, attempt) — tasks sleeping out a backoff.
    waiting: List[Tuple[float, int, int]] = []
    idle: List[_Worker] = []
    busy: Dict[Any, _Worker] = {}
    done = 0

    def finish(index: int, value: Any) -> None:
        nonlocal done
        results[index] = value
        done += 1
        if on_result is not None:
            on_result(index, value)

    def spawn() -> _Worker:
        conn, child_conn = context.Pipe()
        inherited = [conn] + [w.conn for w in idle] + list(busy)
        process = context.Process(
            target=_worker_main,
            args=(func, task_list, config.label, child_conn, inherited),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, conn)

    def retire(worker: _Worker) -> None:
        """Kill and reap a worker that crashed, overran, or is still busy."""
        try:
            worker.process.kill()
        except (OSError, ValueError):
            pass
        worker.process.join()
        worker.conn.close()

    def fail(worker: _Worker, outcome: str, detail: str, elapsed: float) -> None:
        """Record a failed attempt, then retry it, fall back to serial, or raise."""
        index, attempt = worker.index, worker.attempt
        report.attempts.append(
            TaskAttempt(index, attempt, outcome, detail=detail, elapsed=elapsed)
        )
        if attempt < config.retries:
            ready = time.monotonic() + backoff_delay(config, index, attempt + 1)
            waiting.append((ready, index, attempt + 1))
            return
        if not config.fallback:
            raise PoolTaskError(config.label, index, detail)
        started = time.monotonic()
        try:
            value = func(task_list[index])
        except BaseException:
            report.attempts.append(
                TaskAttempt(
                    index,
                    attempt + 1,
                    OUTCOME_SERIAL_FAIL,
                    detail=detail,
                    elapsed=time.monotonic() - started,
                )
            )
            raise
        report.attempts.append(
            TaskAttempt(
                index,
                attempt + 1,
                OUTCOME_SERIAL_OK,
                detail=detail,
                elapsed=time.monotonic() - started,
            )
        )
        finish(index, value)

    try:
        while done < len(task_list):
            now = time.monotonic()
            if waiting:
                still: List[Tuple[float, int, int]] = []
                for ready, index, attempt in waiting:
                    if ready <= now:
                        pending.append((index, attempt))
                    else:
                        still.append((ready, index, attempt))
                waiting[:] = still
            while pending and len(busy) < config.jobs:
                worker = idle.pop() if idle else spawn()
                worker.index, worker.attempt = pending.popleft()
                worker.started = time.monotonic()
                worker.deadline = (
                    None
                    if config.timeout is None
                    else worker.started + config.timeout
                )
                busy[worker.conn] = worker
                try:
                    worker.conn.send((worker.index, worker.attempt))
                except OSError:
                    pass  # a dead worker's pipe reads as EOF below: a crash
            if not busy:
                if waiting:
                    time.sleep(max(0.0, min(r for r, _i, _a in waiting) - now))
                    continue
                break  # pragma: no cover - supervisor invariant

            poll: Optional[float] = None
            bounds = [
                worker.deadline for worker in busy.values() if worker.deadline
            ] + [ready for ready, _i, _a in waiting]
            if bounds:
                poll = max(0.01, min(bounds) - time.monotonic())
            ready_connections = connection_wait(list(busy), timeout=poll)

            for connection in ready_connections:
                worker = busy[connection]
                try:
                    kind, payload = connection.recv()
                except (EOFError, OSError):
                    kind, payload = OUTCOME_CRASH, ""
                del busy[connection]
                elapsed = time.monotonic() - worker.started
                if kind == OUTCOME_CRASH:
                    retire(worker)
                    detail = (
                        f"worker pid {worker.process.pid} died "
                        f"(exitcode {worker.process.exitcode})"
                    )
                    fail(worker, OUTCOME_CRASH, detail, elapsed)
                    continue
                idle.append(worker)
                if kind == OUTCOME_OK:
                    report.attempts.append(
                        TaskAttempt(worker.index, worker.attempt, OUTCOME_OK, elapsed=elapsed)
                    )
                    finish(worker.index, payload)
                else:
                    fail(worker, OUTCOME_ERROR, str(payload), elapsed)

            now = time.monotonic()
            for connection, worker in list(busy.items()):
                if worker.deadline is not None and now > worker.deadline:
                    busy.pop(connection)
                    retire(worker)
                    detail = (
                        f"worker pid {worker.process.pid} exceeded "
                        f"{config.timeout}s timeout"
                    )
                    fail(worker, OUTCOME_TIMEOUT, detail, now - worker.started)
    finally:
        for worker in busy.values():
            retire(worker)
        for worker in idle:
            try:
                worker.conn.send(None)  # stop sentinel: the worker exits
            except OSError:
                pass  # the worker is already gone; join reaps it
        for worker in idle:
            worker.process.join()
            worker.conn.close()
    return results, report


def supervised_map(
    func: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    config: Optional[PoolConfig] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> List[Any]:
    """Convenience wrapper: resolve ``jobs``, run, collect the report.

    ``report_sink`` (when given) receives the :class:`RunReport`, so
    callers that only sometimes care about supervision detail can get
    it without threading tuples everywhere.
    """
    base = config if config is not None else PoolConfig()
    workers = min(resolve_jobs(jobs if jobs is not None else base.jobs), max(len(tasks), 1))
    results, report = run_supervised(
        func, tasks, replace(base, jobs=workers), on_result=on_result
    )
    if report_sink is not None:
        report_sink.append(report)
    return results
