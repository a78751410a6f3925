"""Canonical configuration serialization and content-addressed keys.

A sweep cell is cached under a key derived from every code-relevant
simulation parameter plus the trial seed: same configuration and seed
always hash to the same key; changing *any* parameter that can alter
the metrics — the strategy, the geometry, even the queue discipline —
produces a new key.  ``trials`` and ``base_seed`` are
deliberately excluded because the cache works at *trial* granularity:
the per-trial seed (``base_seed + trial``) is hashed instead, so a
10-trial sweep reuses the first five trials of an earlier 5-trial sweep.

``CACHE_SCHEMA_VERSION`` is folded into the hash; bump it whenever the
simulator's behaviour or the metrics serialization changes in a way
that invalidates previously cached results.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Iterable

from repro.core.parameters import (
    CachePolicy,
    DiskParameters,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.disks.drive import QueueDiscipline
from repro.disks.geometry import DiskGeometry
from repro.faults.plan import FaultPlan

#: Bump to invalidate every previously cached result.
#: 2: fault-injection counters added to DriveStats / MergeMetrics.
#: 3: the two observability fields (timeline and request recording)
#:    left SimulationConfig, and with it the key payload.
CACHE_SCHEMA_VERSION = 3

#: Fields deliberately absent from cache keys: ``trials``/``base_seed``
#: because the cache works at per-trial granularity (the derived trial
#: seed is hashed instead), ``kernel`` because both kernels produce
#: bit-identical metrics (enforced by the bench equivalence suite) and
#: must share cache entries.  Every other ``SimulationConfig`` field is
#: in the key, because :func:`config_to_dict` walks the dataclass's
#: fields; ``tests/sweep/test_keys.py`` proves that per field.
KEY_EXCLUDED_FIELDS = ("trials", "base_seed", "kernel")

#: Enum-valued ``SimulationConfig`` fields and their types, used both to
#: serialize (enum -> value) and to coerce plain strings from CLI /
#: JSON sweep specs back into enums.
ENUM_FIELDS: dict[str, type[enum.Enum]] = {
    "strategy": PrefetchStrategy,
    "cache_policy": CachePolicy,
    "victim_selector": VictimSelector,
    "queue_discipline": QueueDiscipline,
}

#: Nested-dataclass fields and their types.
NESTED_FIELDS: dict[str, type] = {
    "disk": DiskParameters,
    "geometry": DiskGeometry,
}


#: Field names of every ``SimulationConfig`` and of its flat nested
#: dataclasses, read once: ``dataclasses.fields`` and ``asdict`` are
#: reflection that every key derivation would otherwise repeat.
_CONFIG_FIELDS = tuple(
    field.name for field in dataclasses.fields(SimulationConfig)
)
_FLAT_FIELDS = {
    data_cls: tuple(field.name for field in dataclasses.fields(data_cls))
    for data_cls in NESTED_FIELDS.values()
}


def config_to_dict(config: SimulationConfig) -> dict:
    """Flatten a config to a JSON-able dict (inverse: :func:`config_from_dict`)."""
    out: dict[str, Any] = {}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, FaultPlan):
            value = value.to_dict()
        else:
            flat = _FLAT_FIELDS.get(type(value))
            if flat is not None:
                value = {key: getattr(value, key) for key in flat}
        out[name] = value
    return out


def coerce_params(params: dict) -> dict:
    """Coerce plain JSON values (strings, dicts) to config field types.

    Lets sweep specs written in JSON or parsed from the command line say
    ``{"strategy": "inter-run"}`` instead of importing the enum.
    Values already of the right type pass through unchanged.
    """
    out = dict(params)
    for name, enum_cls in ENUM_FIELDS.items():
        if name in out and not isinstance(out[name], enum_cls):
            out[name] = enum_cls(out[name])
    for name, data_cls in NESTED_FIELDS.items():
        if name in out and isinstance(out[name], dict):
            out[name] = data_cls(**out[name])
    if isinstance(out.get("fault_plan"), dict):
        out["fault_plan"] = FaultPlan.from_dict(out["fault_plan"])
    return out


def config_from_dict(data: dict) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_dict` output."""
    return SimulationConfig(**coerce_params(data))


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: The key-payload entry holding the trial seed.
_SEED = "__seed__"


def cache_key(config: SimulationConfig, seed: int) -> str:
    """Content address of one simulation trial: sha256 hex digest."""
    return trial_keys(config, (seed,))[0]


def trial_keys(config: SimulationConfig, seeds: Iterable[int]) -> list[str]:
    """Content addresses of ``config``'s trials at ``seeds``, in order.

    Key ``i`` is the sha256 of the canonical JSON of the config's key
    payload plus ``"__seed__": seeds[i]``.  The payload is serialized
    once: canonical JSON sorts keys, so the text around the seed is the
    same for every seed and only the seed itself is spliced in.
    """
    payload = config_to_dict(config)
    for name in KEY_EXCLUDED_FIELDS:
        payload.pop(name, None)
    # A behaviourally empty fault plan is byte-identical to no plan, so
    # both address the same cached trial.
    if config.fault_plan is not None and config.fault_plan.is_empty():
        payload["fault_plan"] = None
    payload["__schema__"] = CACHE_SCHEMA_VERSION
    before = {k: v for k, v in payload.items() if k < _SEED}
    after = {k: v for k, v in payload.items() if k > _SEED}
    head = canonical_json(before)[:-1] + ("," if before else "")
    head += canonical_json(_SEED) + ":"
    tail = ("," if after else "") + canonical_json(after)[1:]
    return [
        hashlib.sha256(
            (head + canonical_json(seed) + tail).encode("utf-8")
        ).hexdigest()
        for seed in seeds
    ]
