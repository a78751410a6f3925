"""Outside-in layer attribution: boundary spans and per-file self time.

The traced pass measures the program from outside, without editing it:

* **Boundary spans.**  :class:`Tracer` wraps each public entry point in
  :data:`ENTRY_POINTS`.  The wrapper replaces the attribute on every
  loaded ``repro.*`` module that references the original (names such as
  ``execute_job`` are imported by name), and :meth:`Tracer.uninstall`
  puts every original back.  Each call records an open and a close
  event; async entry points get async wrappers.
* **Self time across threads.**  :func:`attribute` charges every
  instant of a root span to the most recently opened span that is still
  open, on any thread.  A closed-loop client that waits on a server
  thread therefore hands its time to the server's spans while they run
  and keeps only the gaps between them, so a span's self time is its
  duration minus the part its nested spans cover, and the layers' self
  times add up to the root span exactly.  The rule assumes one active
  thread at a time, which holds for every workload here (one client,
  one dist worker); two truly parallel threads would charge the overlap
  to the later one.
* **Model self time by file.**  With ``profile=True`` a
  :mod:`cProfile` profiler runs on the main thread for the whole
  iteration and on every other thread while it is inside a wrapped
  span.  :func:`profile_shares` maps self time by source file to
  :data:`PROFILE_LAYERS`; time spent outside ``repro`` (stdlib,
  builtins) is charged to the nearest ``repro`` caller through the
  profile's caller edges, and idle waits (socket receives, polls, lock
  waits, sleeps) are left out.
"""

from __future__ import annotations

import cProfile
import functools
import heapq
import importlib
import inspect
import itertools
import os
import pstats
import re
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Layer of the root span: the benchmark's own loop plus program code
#: that runs outside every wrapped entry point.
ROOT_LAYER = "driver"

#: Counts an entry point adds per call: ``count(args, result, stack)``
#: where ``stack`` holds the layers open on the calling thread.
CountHook = Callable[[tuple, Any, list], dict]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped public entry point and the layer its span belongs to."""

    module: str
    qualname: str
    layer: str
    count: Optional[CountHook] = None


def _model_totals(results: list) -> dict:
    """Simulated-time totals of trials the model computed (exact)."""
    totals: Counter = Counter()
    for metrics in results:
        totals["model.trials"] += 1
        totals["model.sim_time_ms"] += metrics.total_time_ms
        totals["model.cpu_stall_ms"] += metrics.cpu_stall_ms
        totals["model.seek_ms"] += metrics.total_seek_ms
        totals["model.fetch_requests"] += metrics.fetch_requests
        totals["model.demand_situations"] += metrics.demand_situations
        totals["model.fetch_decisions"] += metrics.fetch_decisions
        totals["model.full_prefetch_decisions"] += (
            metrics.full_prefetch_decisions
        )
    return totals


def _count_trial(args, result, stack) -> dict:
    # A MergeTrial.run inside the batch runner is a batch fallback; its
    # result is already counted among the batch runner's results.
    counts = {"api.trial_runs": "api" in stack}
    if "sim.batch" in stack:
        counts["sim.batch.fallbacks"] = 1
    else:
        counts.update(_model_totals([result]))
    return counts


def _count_batch(args, result, stack) -> dict:
    return {"sim.batch.trials": len(args[1]), **_model_totals(result)}


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("repro.experiments.config", "Experiment.run", "experiments"),
    EntryPoint("repro.sweep.engine", "SweepEngine.run_spec", "sweep.engine"),
    EntryPoint("repro.sweep.engine", "SweepEngine.run_config", "sweep.engine"),
    EntryPoint(
        "repro.sweep.worker", "execute_job", "sweep.worker",
        lambda args, result, stack: {"sweep.worker.trials": 1},
    ),
    EntryPoint(
        "repro.sweep.worker", "execute_batch", "sweep.worker",
        lambda args, result, stack: {
            "sweep.worker.trials": len(args[0]["trials"])
        },
    ),
    EntryPoint(
        "repro.sweep.store", "ResultStore.get", "sweep.store",
        lambda args, result, stack: {
            "sweep.store.get.calls": 1,
            "sweep.store.get.hits": result is not None,
        },
    ),
    EntryPoint("repro.sweep.store", "ResultStore.put", "sweep.store"),
    EntryPoint("repro.sweep.store", "CampaignManifest.begin", "sweep.manifest"),
    EntryPoint("repro.sweep.store", "CampaignManifest.record", "sweep.manifest"),
    EntryPoint(
        "repro.sweep.store", "CampaignManifest.record_shard", "sweep.manifest"
    ),
    EntryPoint(
        "repro.api", "run_trials", "api",
        lambda args, result, stack: {"api.trials": len(args[0])},
    ),
    EntryPoint("repro.sim.batch", "run_trial_batch", "sim.batch", _count_batch),
    EntryPoint(
        "repro.core.merge_sim", "MergeTrial.run", "core.merge_sim",
        _count_trial,
    ),
    EntryPoint("repro.serve.cache", "CacheFront.lookup_trials", "serve"),
    EntryPoint("repro.serve.cache", "CacheFront.store_trial", "serve"),
    EntryPoint("repro.serve.singleflight", "SingleFlight.run", "serve"),
    EntryPoint("repro.serve.client", "ServeClient.simulate", "serve.client"),
    EntryPoint("repro.netutil", "read_http_request", "netutil"),
    EntryPoint("repro.netutil", "write_json_response", "netutil"),
    EntryPoint("repro.dist.leases", "LeaseManager.acquire", "dist"),
    EntryPoint("repro.dist.leases", "LeaseManager.complete", "dist"),
    EntryPoint("repro.dist.aggregate", "CampaignAggregator.record", "dist"),
    EntryPoint("repro.dist.client", "CoordinatorClient.lease", "dist.client"),
    EntryPoint("repro.dist.client", "CoordinatorClient.complete", "dist.client"),
    EntryPoint(
        "repro.dist.client", "CoordinatorClient.heartbeat", "dist.client"
    ),
)

#: Every span layer, in report order (``dist.wait`` spans come from the
#: sleep function handed to ``DistWorker(sleep=...)``).
SPAN_LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [entry.layer for entry in ENTRY_POINTS] + ["dist.wait", ROOT_LAYER]
    )
)

#: Source-file prefix under ``repro/`` -> profile layer; the longest
#: matching prefix wins.
PROFILE_LAYERS: tuple[tuple[str, str], ...] = (
    ("sim/batch.py", "sim.batch"),
    ("sim/", "sim"),
    ("core/merge_sim.py", "core.merge_sim"),
    ("core/cache.py", "core.cache"),
    ("core/strategies.py", "core.strategies"),
    ("core/", "core"),
    ("workloads/", "core"),
    ("disks/", "disks"),
    ("faults/", "faults"),
    ("api.py", "api"),
    ("sweep/engine.py", "sweep.engine"),
    ("sweep/worker.py", "sweep.worker"),
    ("sweep/store.py", "sweep.store"),
    ("sweep/", "sweep"),
    ("experiments/", "experiments"),
    ("serve/client.py", "client"),
    ("dist/client.py", "client"),
    ("serve/", "serve"),
    ("netutil.py", "netutil"),
    ("dist/", "dist"),
    ("obs/", "obs"),
    ("", "repro.other"),
)

#: Self time with no ``repro`` caller (the benchmark's loop, event-loop
#: dispatch entered before a span opened its thread's profiler).
OUTSIDE = "outside"

PROFILE_LAYER_NAMES: tuple[str, ...] = tuple(
    dict.fromkeys([layer for _, layer in PROFILE_LAYERS] + [OUTSIDE])
)

#: Builtins that block rather than compute: idle time, not self time.
_WAITS = re.compile(r"\b(poll|select|recv|recv_into|accept|acquire|sleep|wait)\b")


def _resolve(entry: EntryPoint) -> tuple[Any, str, Any]:
    """(owner, attribute name, original) of one entry point."""
    owner: Any = importlib.import_module(entry.module)
    *path, name = entry.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


class Tracer:
    """Boundary spans, counts and per-thread profiles for traced runs.

    One tracer accumulates every traced iteration of a workload;
    :meth:`install` and :meth:`uninstall` bracket each iteration so the
    untraced iterations in between run the unmodified program.
    """

    def __init__(self) -> None:
        #: ``(time, span id, opening)`` in append order.
        self.events: list[tuple[float, int, bool]] = []
        #: span id -> (layer, entry qualname)
        self.spans: dict[int, tuple[str, str]] = {}
        self.counts: Counter = Counter()
        self.roots: list[int] = []
        self.profile = False
        self.profilers: dict[int, cProfile.Profile] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original); the wrapper is held so
        #: its id cannot be reused while the entry is looked up.
        self._wrappers: dict[int, tuple[Any, Any]] = {}

    # -- installing --------------------------------------------------------

    def install(self, *, profile: bool = False) -> None:
        """Wrap every entry point on every loaded ``repro`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.profile = profile
        # Resolve (and so import) every entry point before patching any:
        # a module imported mid-loop would copy an already-made wrapper.
        resolved = [(entry, *_resolve(entry)) for entry in ENTRY_POINTS]
        for entry, owner, name, original in resolved:
            wrapper = self._wrap(entry, original)
            self._wrappers[id(wrapper)] = (wrapper, original)
            if inspect.ismodule(owner):
                for module in _repro_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            else:
                self._patch(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put back every original, including copies made while installed."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                wrapper, original = self._wrappers.get(id(value), (None, None))
                if value is wrapper:
                    setattr(module, attr, original)
        self._wrappers.clear()
        self.profile = False

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    # -- spans -------------------------------------------------------------

    def open(self, layer: str, name: str) -> int:
        sid = next(self._ids)
        self.spans[sid] = (layer, name)
        self.events.append((time.perf_counter(), sid, True))
        return sid

    def close(self, sid: int) -> None:
        self.events.append((time.perf_counter(), sid, False))

    def root(self) -> "_Root":
        """Context manager for one traced iteration's root span."""
        return _Root(self)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.depth = 0
        return stack

    def _enter(self) -> None:
        """Thread bookkeeping on span entry: depth and profiler."""
        self._stack()
        self._local.depth += 1
        if (
            self.profile
            and self._local.depth == 1
            and threading.current_thread() is not threading.main_thread()
        ):
            self._profiler().enable()

    def _leave(self) -> None:
        self._local.depth -= 1
        if (
            self.profile
            and self._local.depth == 0
            and threading.current_thread() is not threading.main_thread()
        ):
            self._profiler().disable()

    def _profiler(self) -> cProfile.Profile:
        ident = threading.get_ident()
        with self._lock:
            profiler = self.profilers.get(ident)
            if profiler is None:
                profiler = self.profilers[ident] = cProfile.Profile()
        return profiler

    def add_counts(self, counts: dict) -> None:
        with self._lock:
            self.counts.update(counts)

    def wrap(self, layer: str, function: Callable) -> Callable:
        """A traced stand-in for ``function`` (for injected callables)."""
        return self._wrap(EntryPoint("", function.__name__, layer), function)

    def _wrap(self, entry: EntryPoint, original: Callable) -> Callable:
        tracer = self
        layer, name = entry.layer, entry.qualname

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                # No layer stack here: coroutines interleave on the loop
                # thread, so only the depth counter is kept.
                tracer._enter()
                sid = tracer.open(layer, name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.close(sid)
                    tracer._leave()

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            tracer._enter()
            stack.append(layer)
            sid = tracer.open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
                stack.pop()
                tracer._leave()
            if entry.count is not None:
                tracer.add_counts(entry.count(args, result, stack))
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def attribution(self) -> dict[str, float]:
        """Self seconds per span layer over every root span."""
        layers: dict[str, float] = defaultdict(float)
        for sid, seconds in attribute(self.events, set(self.roots)).items():
            layers[self.spans[sid][0]] += seconds
        return dict(layers)

    def self_times(self, name: str) -> list[float]:
        """Self seconds of every span of entry ``name``."""
        selfs = attribute(self.events, set(self.roots))
        return [
            seconds for sid, seconds in selfs.items()
            if self.spans[sid][1] == name
        ]

    def calls(self) -> Counter:
        """Spans opened per layer inside root spans."""
        windows = _windows(self.events, set(self.roots))
        counts: Counter = Counter()
        for t, sid, opening in self.events:
            if opening and sid not in self.roots and _inside(t, windows):
                counts[self.spans[sid][0]] += 1
        return counts

    def durations(self, name: str) -> list[float]:
        """Durations of every span of entry ``name`` (e.g. RTTs)."""
        starts: dict[int, float] = {}
        out = []
        for t, sid, opening in _ordered(self.events):
            if self.spans[sid][1] != name:
                continue
            if opening:
                starts[sid] = t
            elif sid in starts:
                out.append(t - starts.pop(sid))
        return out

    def wait_for_threads(self, timeout_s: float = 5.0) -> None:
        """Wait until no span is open on any thread (profiles settle)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            open_spans = set()
            for _, sid, opening in list(self.events):
                if opening:
                    open_spans.add(sid)
                else:
                    open_spans.discard(sid)
            if not open_spans:
                return
            time.sleep(0.01)
        raise RuntimeError("spans still open after the iteration ended")


class _Root:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.sid = -1

    def __enter__(self) -> "_Root":
        self.sid = self.tracer.open(ROOT_LAYER, "iteration")
        self.tracer.roots.append(self.sid)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.sid)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _ordered(events: list) -> list:
    """Events by time; ties keep append order, so a span opens before
    it closes even when both read the same clock value."""
    return sorted(events, key=lambda event: event[0])


def _windows(events, roots: set) -> list[tuple[float, float]]:
    starts: dict[int, float] = {}
    windows = []
    for t, sid, opening in _ordered(events):
        if sid in roots:
            if opening:
                starts[sid] = t
            else:
                windows.append((starts.pop(sid), t))
    return windows


def _inside(t: float, windows) -> bool:
    return any(start <= t <= end for start, end in windows)


def attribute(
    events: list[tuple[float, int, bool]], roots: set
) -> dict[int, float]:
    """Charge each instant inside a root span to the newest open span.

    ``events`` are ``(time, span id, opening)`` from any number of
    threads.  Returns self seconds per span id; they sum to the total
    duration of the roots.
    """
    selfs: dict[int, float] = defaultdict(float)
    heap: list[tuple[float, int]] = []
    live: set = set()
    roots_open = 0
    last = 0.0
    for t, sid, opening in _ordered(events):
        if roots_open:
            while heap[0][1] not in live:
                heapq.heappop(heap)
            selfs[heap[0][1]] += t - last
        last = t
        if opening:
            if roots_open:
                selfs.setdefault(sid, 0.0)
            live.add(sid)
            heapq.heappush(heap, (-t, sid))
        else:
            live.discard(sid)
        if sid in roots:
            roots_open += 1 if opening else -1
    return dict(selfs)


# -- per-file profile attribution ------------------------------------------


def profile_layer(filename: str, repro_root: str) -> Optional[str]:
    """Profile layer of a source file, or ``None`` outside ``repro``."""
    if not filename.startswith(repro_root):
        return None
    relative = filename[len(repro_root):].replace(os.sep, "/")
    best = max(
        (prefix for prefix, _ in PROFILE_LAYERS if relative.startswith(prefix)),
        key=len,
    )
    return dict(PROFILE_LAYERS)[best]


def profile_shares(
    profilers: list[cProfile.Profile], repro_root: str
) -> dict[str, float]:
    """Busy self-time share per profile layer; the shares sum to 1."""
    stats = pstats.Stats(profilers[0])
    for profiler in profilers[1:]:
        stats.add(profiler)
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    layers = {func: profile_layer(func[0], repro_root) for func in table}
    memo: dict[Any, dict[str, float]] = {}

    def upward(func, seen: frozenset) -> dict[str, float]:
        """How ``func``'s time splits over the layers of its callers."""
        if layers.get(func) is not None:
            return {layers[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = table[func][4] if func in table else {}
        weights = {
            caller: edge[3] for caller, edge in callers.items()
            if caller not in seen
        }
        total = sum(weights.values())
        if total <= 0:
            split = {OUTSIDE: 1.0}
        else:
            split = defaultdict(float)
            for caller, weight in weights.items():
                for layer, share in upward(caller, seen | {func}).items():
                    split[layer] += share * weight / total
        memo[func] = dict(split)
        return memo[func]

    busy: dict[str, float] = defaultdict(float)
    for func, (_, _, tt, _, callers) in table.items():
        if tt <= 0 or (func[0] == "~" and _WAITS.search(func[2])):
            continue
        if layers[func] is not None:
            busy[layers[func]] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0:
            busy[OUTSIDE] += tt
            continue
        for caller, edge in callers.items():
            for layer, share in upward(caller, frozenset({func})).items():
                busy[layer] += tt * share * edge[2] / edge_total
    total = sum(busy.values())
    return {layer: busy.get(layer, 0.0) / total for layer in PROFILE_LAYER_NAMES}
