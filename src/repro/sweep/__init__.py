"""repro.sweep -- parallel parameter sweeps with a persistent result cache.

The paper's figures and tables are sweeps over runs ``k``, disks ``D``,
prefetch depth ``N``, and cache size ``C``.  This subsystem turns such a
sweep into a resumable campaign:

* :class:`SweepSpec` declares the grid; it expands deterministically
  into per-trial :class:`SweepJob` units with seeds matching the serial
  path exactly.
* :class:`SweepEngine` executes jobs on a process pool with bounded
  retries, returning results in expansion order.
* :class:`ResultStore` content-addresses every finished trial on disk,
  so re-running a sweep recomputes only missing cells and an
  interrupted campaign resumes where it stopped.
* :mod:`repro.sweep.progress` streams live counters to the console and
  exports them as JSON.

Quickstart::

    from repro.sweep import ResultStore, SweepEngine, SweepSpec

    spec = SweepSpec(
        name="depth-sweep",
        base={"num_runs": 25, "strategy": "intra-run"},
        grid={"num_disks": [1, 5], "prefetch_depth": [5, 10, 20]},
        trials=5,
    )
    engine = SweepEngine(store=ResultStore("results/cache"), workers=4)
    result = engine.run_spec(spec)
    for cell in result.cells:
        print(cell.config_description, f"{cell.total_time_s.mean:.1f}s")
"""

from repro.sweep.engine import (
    JobFailure,
    SweepEngine,
    SweepError,
    SweepResult,
)
from repro.sweep.keys import (
    CACHE_SCHEMA_VERSION,
    cache_key,
    config_from_dict,
    config_to_dict,
)
from repro.sweep.progress import (
    ConsoleProgress,
    NullProgress,
    ProgressListener,
    SweepStats,
)
from repro.sweep.spec import SweepJob, SweepSpec, jobs_for_config
from repro.sweep.store import (
    DEFAULT_CACHE_DIR,
    CampaignManifest,
    ResultStore,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CampaignManifest",
    "ConsoleProgress",
    "DEFAULT_CACHE_DIR",
    "JobFailure",
    "NullProgress",
    "ProgressListener",
    "ResultStore",
    "SweepEngine",
    "SweepError",
    "SweepJob",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "cache_key",
    "config_from_dict",
    "config_to_dict",
    "jobs_for_config",
]
