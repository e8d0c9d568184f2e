"""Parallel execution engine.

Experiment artifacts decompose into independent *cells* -- driver x
payload for the latency artifacts (Fig. 3/4/5, Table I), driver x
offered-rate point for the load sweeps -- each of which boots its own
testbed from a seed derived via :class:`numpy.random.SeedSequence`
spawn keys.  Cells run across a :class:`concurrent.futures.ProcessPoolExecutor`
and merge back into the existing result types in deterministic cell
order, so a run's output is bit-identical for a given root seed
regardless of worker count or completion order.

Every artifact runs through this engine (``jobs=1`` in-process by
default).  The content-addressed result cache (:mod:`repro.exec.cache`)
makes re-runs near-free by returning unchanged cells from disk.

See ``docs/architecture.md`` ("Parallel execution" and "Result cache")
for the design notes and the seed-derivation argument.
"""

from repro.exec.cache import (
    ResultCache,
    active_cache,
    cache_stats,
    code_fingerprint,
    configure,
)
from repro.exec.cells import (
    Cell,
    cell_seed,
    closed_sweep_cells,
    derive_cell_seed,
    latency_cells,
    seed_identity,
)
from repro.exec.runner import (
    CellOutcome,
    ExecutionStats,
    execute_cell,
    execute_comparison,
    execute_load_sweep,
    execute_sweep,
    run_cells,
)

__all__ = [
    "Cell",
    "CellOutcome",
    "ExecutionStats",
    "ResultCache",
    "active_cache",
    "cache_stats",
    "cell_seed",
    "closed_sweep_cells",
    "code_fingerprint",
    "configure",
    "derive_cell_seed",
    "execute_cell",
    "execute_comparison",
    "execute_load_sweep",
    "execute_sweep",
    "latency_cells",
    "run_cells",
    "seed_identity",
]
