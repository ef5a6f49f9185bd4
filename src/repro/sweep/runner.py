"""Fan-out execution of sweep jobs with failure isolation.

``run_sweep`` takes a list of :class:`SweepJob` and produces one
:class:`SweepRecord` per job, in submission order, regardless of worker
count or completion order:

* cache hits are answered from the persistent :class:`ResultCache`
  without spawning anything;
* misses are grouped into *tasks* — one job, or with ``lanes=B`` up to
  ``B`` jobs differing only in seed, simulated as the lanes of one
  batch — and the tasks run either in-process (``workers=0``, the
  serial reference path) or in dedicated child processes
  (``workers >= 1``) so that a crashing or deadlocking configuration is
  *captured* — error type and message preserved in a ``failed`` record
  — instead of taking the whole sweep down;
* the serial path lowers and buffers each kernel once and simulates
  each distinct circuit once (:func:`repro.pipeline.shared_simulations`):
  tasks of the same kernel, style, scale and size overrides start their
  sharing passes from clones of one buffered circuit, and seeds whose
  prepared circuits, inputs and simulation settings are identical share
  one verified run, in one-job tasks and lane batches alike; a pooled
  sweep forks a child per task and shares nothing;
* each child gets ``timeout`` seconds of wall clock per job of its task;
  a failing batch re-queues its jobs as one-job tasks, and each failing
  one-job task is retried ``retries`` times before its failure is
  recorded.

Child processes prefer the ``fork`` start method (cheap on Linux, and
lets tests inject worker functions that need not survive pickling);
``spawn`` is the fallback where ``fork`` is unavailable.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..analysis.lp_sizing import load_solver
from ..errors import ReproError
from ..pipeline import (
    SimulationMemo,
    TechniqueResult,
    run_technique,  # noqa: F401  (perfbench's traced run wraps it here)
    run_technique_batch,
    shared_simulations,
)
from .cache import ResultCache
from .job import SweepJob

STATUS_OK = "ok"
STATUS_FAILED = "failed"


class SweepTimeoutError(Exception):
    """A sweep job exceeded its per-job wall-clock budget."""


def execute_jobs(jobs: List[SweepJob]) -> List[TechniqueResult]:
    """The default worker: one row per job of a task.

    A task's jobs differ only in seed (:meth:`SweepJob.batch_key`), so
    one :func:`~repro.pipeline.run_technique_batch` call prepares, lints
    and estimates their circuit once and simulates their seeds as one
    batch.  Its rows equal one ``run_technique`` call per job.
    """
    first = jobs[0]
    return run_technique_batch(
        first.kernel,
        first.technique,
        seeds=[job.seed for job in jobs],
        style=first.style,
        scale=first.scale,
        simulate=first.simulate,
        max_cycles=first.max_cycles,
        sim_backend=first.sim_backend,
        **first.overrides,
    )


@dataclass
class SweepRecord:
    """The outcome of one job: a result row or a preserved failure."""

    job: SweepJob
    status: str
    result: Optional[TechniqueResult] = None
    cached: bool = False
    error_type: Optional[str] = None
    error: Optional[str] = None
    wall_time_s: float = 0.0
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": self.job.to_dict(),
            "status": self.status,
            "cached": self.cached,
            "result": self.result.to_dict() if self.result else None,
            "error_type": self.error_type,
            "error": self.error,
            "wall_time_s": self.wall_time_s,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepRecord":
        res = data.get("result")
        return cls(
            job=SweepJob.from_dict(data["job"]),
            status=data["status"],
            result=TechniqueResult.from_dict(res) if res else None,
            cached=data.get("cached", False),
            error_type=data.get("error_type"),
            error=data.get("error"),
            wall_time_s=data.get("wall_time_s", 0.0),
            attempts=data.get("attempts", 0),
        )


@dataclass
class SweepOutcome:
    """All records of one sweep plus its aggregate accounting."""

    records: List[SweepRecord] = field(default_factory=list)
    workers: int = 0
    wall_time_s: float = 0.0
    #: Rows whose preparation a serial sweep started from a clone of an
    #: earlier row's buffered circuit (always 0 for pooled sweeps).
    shared_preparations: int = 0
    #: Rows whose simulation a serial sweep served from an earlier row
    #: with an identical circuit (always 0 for pooled sweeps).
    shared_simulations: int = 0

    @property
    def failed_records(self) -> List[SweepRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    @property
    def executed_time_s(self) -> float:
        """Sum of per-job execution wall times (the serial-cost estimate)."""
        return sum(r.wall_time_s for r in self.records if not r.cached)

    @property
    def speedup(self) -> float:
        """Aggregate speedup of this sweep vs running every miss serially."""
        if self.wall_time_s <= 0:
            return 1.0
        return self.executed_time_s / self.wall_time_s

    def results(self) -> List[TechniqueResult]:
        """Successful rows, in submission order."""
        return [r.result for r in self.records if r.ok and r.result]

    def raise_on_failure(self) -> "SweepOutcome":
        """Turn failed rows back into an exception (for benches/tests)."""
        if self.failed_records:
            lines = [
                f"{r.job.label()}: {r.error_type}: {r.error}"
                for r in self.failed_records
            ]
            raise RuntimeError(
                "sweep had %d failed job(s):\n  %s"
                % (len(lines), "\n  ".join(lines))
            )
        return self


#: A sweep worker: the jobs of one task in, one row per job out.
Worker = Callable[[List[SweepJob]], List[TechniqueResult]]


def run_sweep(
    jobs: List[SweepJob],
    workers: int = 0,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    worker_fn: Worker = execute_jobs,
    on_record: Optional[Callable[[SweepRecord], None]] = None,
    lanes: Optional[int] = None,
) -> SweepOutcome:
    """Run every job, answering from ``cache`` where possible.

    ``workers=0`` executes misses serially in-process (no timeout
    enforcement — the serial reference path).  It lowers and places
    buffers once per kernel, style, scale and size overrides, and each
    technique shares from a clone of that circuit (counted in
    ``shared_preparations``; every row's ``opt_time_s`` adds the one
    placement measurement to its own sharing time).  It simulates each
    distinct circuit once per seed: rows with identical prepared
    circuits, inputs and simulation settings share one verified run,
    lane batches included, counted in ``shared_simulations``.
    ``workers >= 1`` fans misses out over that many isolated child
    processes, which share nothing.  The returned records are in
    submission order independent of completion order.  A negative
    ``workers`` or a ``timeout`` of 0 or less raises
    :class:`~repro.errors.ReproError`.

    Misses run as *tasks*, one ``worker_fn`` call each, which takes the
    task's jobs and returns one row per job (default
    :func:`execute_jobs`).  A task is one job, or with ``lanes=B`` up to
    ``B`` jobs that differ only in ``seed``: one batched simulation
    replaces up to ``B`` scalar runs, while every job still gets its own
    record and its own per-seed cache row — warm reruns hit the cache
    identically either way.  A failing batch is retried job by job (full
    ``retries`` budget), so failure isolation is no coarser than without
    lanes.  Per-job ``wall_time_s`` of a batch is the batch's wall clock
    divided evenly over its jobs: they shared one pass.  ``timeout`` is
    per job, so a batch of ``B`` jobs has ``B * timeout`` seconds.
    """
    if workers < 0:
        raise ReproError(
            f"workers must be 0 (serial, in-process) or a positive number "
            f"of worker processes, not {workers}"
        )
    if timeout is not None and timeout <= 0:
        raise ReproError(
            f"timeout must be a positive number of seconds, not {timeout}"
        )
    t_start = time.perf_counter()
    records: Dict[int, SweepRecord] = {}
    misses: List[Tuple[int, SweepJob]] = []

    for index, job in enumerate(jobs):
        hit = cache.get(job) if cache is not None else None
        if hit is not None:
            record = SweepRecord(
                job=job, status=STATUS_OK, result=hit, cached=True,
                wall_time_s=0.0, attempts=0,
            )
            records[index] = record
            if on_record:
                on_record(record)
        else:
            misses.append((index, job))

    queue = _Queue(_plan_tasks(misses, lanes or 1), retries, records, cache,
                   on_record)
    if workers == 0:
        with shared_simulations() as memo:
            _run_serial(queue, worker_fn)
    else:
        memo = SimulationMemo()  # stays empty: pooled children share nothing
        _run_pool(queue, workers, worker_fn, timeout)

    return SweepOutcome(
        records=[records[i] for i in range(len(jobs))],
        workers=workers,
        wall_time_s=time.perf_counter() - t_start,
        shared_preparations=memo.shared_preparations,
        shared_simulations=memo.shared,
    )


# --------------------------------------------------------------------------
# tasks: one job, or the lanes of one batch


#: A unit of execution: ``(index, job)`` pairs, one ``worker_fn`` call.
Task = List[Tuple[int, SweepJob]]


def _plan_tasks(misses: List[Tuple[int, SweepJob]], lanes: int) -> List[Task]:
    """Split cache misses into tasks of at most ``lanes`` jobs of the
    same ``batch_key``."""
    if lanes < 2:
        return [[miss] for miss in misses]
    groups: Dict[tuple, Task] = {}
    for index, job in misses:
        groups.setdefault(job.batch_key(), []).append((index, job))
    return [
        members[i:i + lanes]
        for members in groups.values()
        for i in range(0, len(members), lanes)
    ]


class _Queue:
    """The tasks still to run, and the records of the finished ones."""

    def __init__(
        self,
        tasks: List[Task],
        retries: int,
        records: Dict[int, SweepRecord],
        cache: Optional[ResultCache],
        on_record: Optional[Callable[[SweepRecord], None]],
    ) -> None:
        #: Entries: (task, attempt, wall time spent by earlier attempts).
        self.pending: Deque[Tuple[Task, int, float]] = deque(
            (task, 1, 0.0) for task in tasks
        )
        self.retries = retries
        self.records = records
        self.cache = cache
        self.on_record = on_record

    def _record(self, index: int, record: SweepRecord) -> None:
        if record.ok and record.result is not None and self.cache is not None:
            self.cache.put(record.job, record.result)
        self.records[index] = record
        if self.on_record:
            self.on_record(record)

    def settle(
        self,
        task: Task,
        attempt: int,
        elapsed: float,
        results: Optional[List[TechniqueResult]],
        error: Optional[Tuple[str, str]],
    ) -> None:
        """Record a finished task's rows, or queue what must run again.

        ``elapsed`` includes the wall time of the task's earlier
        attempts.  A failed batch is not retried as a batch: its jobs go
        back on the queue as one-job tasks, which own the retry budget.
        A failed one-job task is retried first thing, up to ``retries``
        times.
        """
        if results is not None:
            for (index, job), result in zip(task, results):
                self._record(index, SweepRecord(
                    job=job, status=STATUS_OK, result=result,
                    wall_time_s=elapsed / len(task), attempts=attempt,
                ))
        elif len(task) > 1:
            self.pending.extend(([miss], 1, 0.0) for miss in task)
        elif attempt <= self.retries:
            self.pending.appendleft((task, attempt + 1, elapsed))
        else:
            (index, job), = task
            error_type, message = error
            self._record(index, SweepRecord(
                job=job, status=STATUS_FAILED,
                error_type=error_type, error=message,
                wall_time_s=elapsed, attempts=attempt,
            ))


# --------------------------------------------------------------------------
# serial path


def _run_serial(queue: _Queue, worker_fn: Worker) -> None:
    while queue.pending:
        task, attempt, spent = queue.pending.popleft()
        results, error = None, None
        t0 = time.perf_counter()
        try:
            results = worker_fn([job for _, job in task])
        except Exception as exc:
            error = (type(exc).__name__, str(exc))
        queue.settle(task, attempt, spent + time.perf_counter() - t0,
                     results, error)


# --------------------------------------------------------------------------
# process-pool path


def _child_entry(conn, worker_fn: Worker, task: Task) -> None:
    try:
        results = worker_fn([job for _, job in task])
        conn.send(("ok", [r.to_dict() for r in results]))
    except BaseException as exc:  # preserved, not propagated: isolation
        conn.send((
            "error",
            type(exc).__name__,
            str(exc),
            traceback.format_exc(limit=10),
        ))
    finally:
        conn.close()


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@dataclass
class _Running:
    task: Task
    process: Any
    conn: Any
    started: float
    deadline: Optional[float]
    attempt: int
    spent: float  # wall time burned by earlier attempts


def _kill(proc) -> None:
    if proc.is_alive():
        proc.terminate()
        proc.join(1.0)
        if proc.is_alive():
            proc.kill()
            proc.join()


def _reap(state: _Running, now: float, timeout: Optional[float]):
    """Inspect one running child; once it is done, return
    ``(results, error)`` — exactly one of them is None."""
    proc, conn = state.process, state.conn
    if conn.poll():
        try:
            message = conn.recv()
        except (EOFError, OSError):
            message = None
        proc.join()
        if message is None:
            return None, ("WorkerCrashed",
                          "worker exited without reporting a result")
        if message[0] == "ok":
            return [TechniqueResult.from_dict(d) for d in message[1]], None
        return None, (message[1], message[2])

    if state.deadline is not None and now >= state.deadline:
        _kill(proc)
        return None, (SweepTimeoutError.__name__,
                      f"job exceeded the per-job timeout ({timeout}s)")

    if not proc.is_alive():
        proc.join()
        return None, ("WorkerCrashed",
                      f"worker process died with exit code {proc.exitcode}")
    return None


def _run_pool(
    queue: _Queue,
    workers: int,
    worker_fn: Worker,
    timeout: Optional[float],
) -> None:
    ctx = _mp_context()
    pending = queue.pending
    running: List[_Running] = []
    if pending:
        # Forked children inherit the solver instead of each importing it.
        load_solver()

    def spawn(task: Task, attempt: int, spent: float) -> _Running:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_entry, args=(child_conn, worker_fn, task),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        now = time.perf_counter()
        return _Running(
            task=task, process=proc, conn=parent_conn, started=now,
            deadline=(now + timeout * len(task))
            if timeout is not None else None,
            attempt=attempt, spent=spent,
        )

    try:
        while pending or running:
            while pending and len(running) < workers:
                running.append(spawn(*pending.popleft()))

            # Sleep until a child exits or the earliest deadline passes.
            poll = 0.5
            now = time.perf_counter()
            for st in running:
                if st.deadline is not None:
                    poll = min(poll, max(st.deadline - now, 0.0))
            multiprocessing.connection.wait(
                [st.process.sentinel for st in running], timeout=poll,
            )

            now = time.perf_counter()
            still_running: List[_Running] = []
            for st in running:
                done = _reap(st, now, timeout)
                if done is None:
                    still_running.append(st)
                    continue
                st.conn.close()
                queue.settle(st.task, st.attempt,
                             st.spent + now - st.started, *done)
            running = still_running
    finally:
        for st in running:
            _kill(st.process)
            st.conn.close()
