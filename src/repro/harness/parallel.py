"""Parallel sweep executor: independent cells over a process pool.

Every sweep in the harness (Figures 10-13, the chaos, failover, and
shard-scaling experiments) is a grid of *independent* cells: each cell
builds its own runtime/platform from a :class:`~repro.config.SystemConfig`
and consumes only its own RNG streams.  That independence is what makes
the sweeps parallelisable without touching determinism — this module
exploits it.

Contract (regression-tested byte-for-byte):

* **Bit-identity across job counts.**  ``run_cells(cells, jobs=N)``
  returns exactly the payloads ``jobs=1`` returns, in cell order.
  Workers receive pickled cells, execute them in isolated processes,
  and the parent reassembles results in submission order
  (``ProcessPoolExecutor.map`` preserves it).  Nothing about a cell's
  inputs depends on which worker runs it or when.

* **Tracing composes.**  When a parent tracer is supplied, every cell
  — serial or parallel — runs against a *fresh* child
  :class:`~repro.observe.Tracer` which the parent absorbs in cell
  order.  :meth:`Tracer.absorb` renumbers span ids as if the spans had
  been recorded directly on the parent, so the merged trace is
  identical to the one a single shared tracer would have produced.

* **Seed derivation.**  :func:`seed_for` derives a per-cell seed from
  the sweep's base seed and the cell key by hashing, so cells are
  decorrelated without any ordering dependence: the derived seed is a
  pure function of ``(base_seed, key)``, never of cell position or
  worker id.

Every sweep is written against one template: a *point function* whose
signature declares the experiment's parameters, and a sweep that names
its axes, forwards everything else to the point (:func:`sweep_of`,
:func:`point_kwargs`) and runs the grid through :func:`run_grid`.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import os
import sys
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..config import SystemConfig
from ..errors import SimulationError
from ..observe import Tracer

#: Crash notes from the most recent :func:`run_cells` call (a worker
#: process died and its cells were re-run serially).  :func:`run_grid`
#: pops them onto the :class:`Grid` a sweep attaches to its table.
_LAST_CRASH_NOTES: List[str] = []


def pop_crash_notes() -> List[str]:
    """Return and clear the crash notes from the last sweep."""
    notes = list(_LAST_CRASH_NOTES)
    _LAST_CRASH_NOTES.clear()
    return notes


class SweepInterrupted(SimulationError):
    """A sweep was cut short by SIGINT/SIGTERM mid-run.

    Carries how far the sweep got so the CLI can print a partial-result
    summary instead of a stacked traceback.
    """

    def __init__(self, completed: int, total: int):
        super().__init__(
            f"sweep interrupted: {completed}/{total} cells completed"
        )
        self.completed = completed
        self.total = total


def default_jobs() -> int:
    """Default worker count: all cores but one, at least one."""
    return max(1, (os.cpu_count() or 2) - 1)


def seed_for(base_seed: int, cell_key: Any) -> int:
    """Deterministic per-cell seed: a pure function of base seed + key.

    Uses blake2b over the repr of the key, so any hashable/reprable
    key (tuples of shard counts, rates, system names...) works and the
    derivation is stable across processes and Python runs (unlike
    ``hash()``, which is salted).
    """
    digest = hashlib.blake2b(
        f"{base_seed}|{cell_key!r}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % (2**31 - 1)


def cell_config(
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    fault_rate: float = 0.0,
    lease_ms: Optional[float] = None,
) -> SystemConfig:
    """The config a cell starts from (not yet validated).

    The caller's config (or the default), reseeded when ``seed`` is
    given, with infrastructure faults when ``fault_rate`` is positive,
    and — when ``lease_ms`` is given — lease-based node recovery whose
    heartbeat and detector poll are fixed fractions of the lease, so
    detection fires within ``lease + lease/5 + lease/20`` of a crash in
    simulated and wall-clock runs alike.
    """
    base = config if config is not None else SystemConfig()
    if seed is not None:
        base = base.with_seed(seed)
    if fault_rate > 0.0:
        base = base.with_fault_rate(fault_rate)
    if lease_ms is not None:
        base = base.with_node_recovery(
            lease_ms=lease_ms,
            heartbeat_interval_ms=lease_ms / 5.0,
            detector_poll_ms=lease_ms / 20.0,
        )
    return base


def sweep_of(
    point_fn: Callable[..., Any],
    pins: Optional[Mapping[str, Optional[str]]] = None,
):
    """Declare a sweep driver over ``point_fn``.

    The sweep's ``**kwargs`` are ``point_fn``'s parameters, so the point
    signature stays the one declaration of their types and defaults
    (the CLI reads it through ``sweep.point_fn``).  ``pins`` names the
    shared config flags the experiment sets itself, each with the sweep
    parameter it takes the values from (``None``: a constant) — the CLI
    rejects those, pointing at that parameter's flag, instead of
    building a config the sweep would overwrite.
    """
    def declare(sweep):
        sweep.point_fn = point_fn
        sweep.pins = dict(pins or {})
        return sweep
    return declare


def point_kwargs(
    point_fn: Callable[..., Any], given: Mapping[str, Any]
) -> Dict[str, Any]:
    """``point_fn``'s effective keyword arguments: its defaults overlaid
    with ``given``.  A name the point does not take raises here, as the
    call itself would have."""
    bound = inspect.signature(point_fn).bind_partial(**given)
    bound.apply_defaults()
    return dict(bound.arguments)


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    ``fn`` must be a module-level callable (workers import it by
    reference) and ``kwargs`` must pickle.  If the sweep is traced,
    ``fn`` must accept a ``tracer`` keyword — the executor injects a
    fresh child tracer per cell.
    """

    key: Any
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


def _execute_cell(task: Tuple[SweepCell, bool]) -> Tuple[Any, Any]:
    """Worker entry point: run one cell, returning (result, tracer).

    Module-level so it pickles into pool workers; the child tracer is
    created *inside* the worker and shipped back whole.
    """
    cell, traced = task
    if traced:
        child = Tracer()
        return cell.fn(**dict(cell.kwargs, tracer=child)), child
    return cell.fn(**cell.kwargs), None


def run_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> List[Any]:
    """Execute ``cells`` and return their results in cell order.

    ``jobs=None`` or ``jobs=1`` runs inline (no pool, no pickling);
    ``jobs=N`` fans out over a :class:`ProcessPoolExecutor` with
    ``min(N, len(cells))`` workers.  Either way the returned list is
    ordered like ``cells`` and — given cells that only consume their
    own inputs — bit-identical across job counts.
    """
    jobs = 1 if jobs is None else int(jobs)
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    _LAST_CRASH_NOTES.clear()
    traced = tracer is not None
    tasks = [(cell, traced) for cell in cells]
    if jobs == 1 or len(cells) <= 1:
        outputs = [_execute_cell(task) for task in tasks]
    else:
        outputs = _run_pool(tasks, min(jobs, len(cells)))
    results: List[Any] = []
    for result, child in outputs:
        if traced and child is not None:
            tracer.absorb(child)
        results.append(result)
    return results


@dataclass
class Grid:
    """What :func:`run_grid` hands back: every cell's coordinates and
    result in grid order, plus the crash notes of the run (a pool worker
    died and its cells were re-run serially).  Iterates as
    ``(coords, result)`` pairs; :meth:`ExperimentTable.attach` takes the
    results and the notes onto a report table."""

    coords: List[Dict[str, Any]]
    results: List[Any]
    crash_notes: List[str]

    def __iter__(self) -> Iterator[Tuple[Dict[str, Any], Any]]:
        return iter(zip(self.coords, self.results))


def run_grid(
    fn: Callable[..., Any],
    axes: Union[Mapping[str, Sequence[Any]], Sequence[Dict[str, Any]]],
    shared: Optional[Mapping[str, Any]] = None,
    jobs: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Grid:
    """Run ``fn`` over a grid of cells.

    ``axes`` maps a parameter of ``fn`` to the values it sweeps — the
    grid is their product, first axis outermost — or, for a grid that is
    not a product (or whose cells carry derived values such as a
    per-cell seed), lists each cell's coordinates itself.  ``shared``
    keyword arguments go to every cell unchanged.
    """
    if isinstance(axes, Mapping):
        coords = [
            dict(zip(axes, values))
            for values in itertools.product(*axes.values())
        ]
    else:
        coords = list(axes)
    shared = dict(shared or {})
    swept = sorted(set(shared) & set(coords[0])) if coords else []
    if swept:
        raise TypeError(
            f"{fn.__name__}: {swept} are swept by this grid; a shared "
            "value for them would be silently overridden"
        )
    cells = [
        SweepCell(
            key=(fn.__name__, *cell.values()),
            fn=fn,
            kwargs={**shared, **cell},
        )
        for cell in coords
    ]
    results = run_cells(cells, jobs=jobs, tracer=tracer)
    return Grid(coords, results, pop_crash_notes())


def _run_pool(
    tasks: List[Tuple[SweepCell, bool]], workers: int
) -> List[Tuple[Any, Any]]:
    """Fan tasks over a process pool, surviving worker death.

    Cells are submitted individually (not ``pool.map``) so a child
    process dying — OOM kill, segfault, stray ``SIGKILL`` — breaks only
    the pool, not the sweep: every cell without a result is re-run
    serially once and the incident is recorded for the sweep report.
    Results are reassembled in submission order, so output stays
    bit-identical to the serial path.  ``KeyboardInterrupt`` drains
    in-flight cells and raises :class:`SweepInterrupted` with progress.
    """
    # Imported where a pool is built: ``concurrent.futures.process``
    # loads multiprocessing, subprocess and tempfile, which a serial
    # sweep — and every process that only imports a driver — never uses.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    outputs: List[Optional[Tuple[Any, Any]]] = [None] * len(tasks)
    done = [False] * len(tasks)
    broken: Optional[str] = None
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {
            pool.submit(_execute_cell, task): index
            for index, task in enumerate(tasks)
        }
        try:
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outputs[index] = future.result()
                    done[index] = True
                except BrokenProcessPool as exc:
                    broken = str(exc) or "a sweep worker process died"
                    break
        except BrokenProcessPool as exc:  # raised by as_completed itself
            broken = str(exc) or "a sweep worker process died"
    except KeyboardInterrupt:
        pool.shutdown(wait=False, cancel_futures=True)
        raise SweepInterrupted(sum(done), len(tasks)) from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if broken is not None:
        lost = [index for index, ok in enumerate(done) if not ok]
        note = (
            f"sweep worker pool broke ({broken}); re-ran "
            f"{len(lost)} lost cell(s) serially"
        )
        print(f"warning: {note}", file=sys.stderr)
        _LAST_CRASH_NOTES.append(note)
        for index in lost:
            outputs[index] = _execute_cell(tasks[index])
    return outputs
