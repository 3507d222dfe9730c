"""Sweep fan-out across a process pool.

All-pairs evaluations decompose into independent single-source sweeps,
so the engine batches the sweeps a query needs and maps them across a
``concurrent.futures`` process pool when ``EngineConfig.workers > 1``.
The CSR arrays are shipped once per worker through the pool
initializer, so each task pickles only its ``(source, alpha)`` tuple;
sweeps come back as plain-list
:class:`~repro.engine.sweep.SweepResult` objects, in task order.

Any pool failure (spawn limits, pickling, sandboxed environments)
degrades to the serial path rather than failing the query.
:func:`thread_map` is the thread fan-out of the Monte Carlo scenario
chunks.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, TypeVar

from .sweep import SweepResult, csr_sweep

__all__ = ["EngineConfig", "sweep_many", "thread_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Arrays handed to worker processes once, via the pool initializer.
_WORKER_ARRAYS: dict = {}


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for one :class:`~repro.engine.engine.RoutingEngine`.

    Kernel choice is not a knob: see the module constants in
    :mod:`repro.engine.engine`.

    Args:
        workers: process-pool size for per-source sweeps; 0 or 1 means
            serial (the safe default — sweep caching, not parallelism,
            is the first-order win).
        sweep_cache_size: max memoized sweeps per engine.
        result_cache_size: max memoized aggregates per engine.
    """

    workers: int = 0
    sweep_cache_size: int = 65536
    result_cache_size: int = 256

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")

    @property
    def parallel(self) -> bool:
        """True when this config asks for a pool at all."""
        return self.workers > 1


def _init_worker(indptr, indices, weights, entry_risk) -> None:
    _WORKER_ARRAYS["csr"] = (indptr, indices, weights, entry_risk)


def _process_task(task: Tuple[int, float]) -> SweepResult:
    source, alpha = task
    indptr, indices, weights, entry_risk = _WORKER_ARRAYS["csr"]
    return csr_sweep(indptr, indices, weights, entry_risk, source, alpha)


def thread_map(
    func: Callable[[_T], _R], tasks: Sequence[_T], workers: int
) -> List[_R]:
    """Map ``func`` over ``tasks`` on a thread pool, in task order.

    The thread fan-out behind the Monte Carlo scenario chunks.  Falls
    back to a plain loop when a pool is not worth it or cannot be stood
    up in this environment, so callers never fail on pool availability.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [func(task) for task in tasks]
    try:
        with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            return list(pool.map(func, tasks))
    except (OSError, ValueError, RuntimeError):
        # Thread pools can be unavailable (exhausted fds, shutdown
        # interpreters); the plain loop always works.
        return [func(task) for task in tasks]


def _serial(arrays, tasks) -> List[SweepResult]:
    indptr, indices, weights, entry_risk = arrays
    return [
        csr_sweep(indptr, indices, weights, entry_risk, source, alpha)
        for source, alpha in tasks
    ]


def sweep_many(
    arrays: Tuple[Sequence[int], Sequence[int], Sequence[float], Sequence[float]],
    tasks: Sequence[Tuple[int, float]],
    config: EngineConfig,
) -> List[SweepResult]:
    """Run every ``(source, alpha)`` sweep, in task order.

    Falls back to the serial path when the pool is not worth it (one
    task, serial config) or cannot be stood up in this environment.
    """
    if not config.parallel or len(tasks) <= 1:
        return _serial(arrays, tasks)
    try:
        with ProcessPoolExecutor(
            max_workers=min(config.workers, len(tasks)),
            initializer=_init_worker,
            initargs=arrays,
        ) as pool:
            return list(pool.map(_process_task, tasks, chunksize=4))
    except (OSError, ValueError, RuntimeError):
        # Pools can be unavailable (sandboxes, exhausted fds, shutdown
        # interpreters); the serial path always works.
        return _serial(arrays, tasks)
