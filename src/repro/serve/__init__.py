"""repro.serve — simulation-as-a-service over the sweep result store.

A zero-dependency asyncio HTTP/JSON front door to the simulator: every
request is answered from the content-addressed sweep cache when
possible, coalesced with identical in-flight work when not, and only
then computed on a bounded worker pool behind per-client rate limits
and load shedding.  See ``docs/SERVE.md`` for the API reference and
operational guidance.
"""

from repro.serve.cache import CacheFront
from repro.serve.client import (
    NO_RETRY,
    RetryPolicy,
    ServeClient,
    ServeError,
    ServeHTTPError,
)
from repro.serve.limiter import RateLimiter, TokenBucket
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    MAX_TRIALS_PER_REQUEST,
    PROTOCOL_VERSION,
    ProtocolError,
    SimulateRequest,
    parse_simulate_request,
    simulate_response,
)
from repro.serve.queue import AdmissionQueue, QueueFullError
from repro.serve.server import (
    ServeConfig,
    ServerHandle,
    SimulationServer,
    start_in_thread,
)
from repro.serve.singleflight import SingleFlight

__all__ = [
    "AdmissionQueue",
    "CacheFront",
    "MAX_BODY_BYTES",
    "MAX_TRIALS_PER_REQUEST",
    "NO_RETRY",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueFullError",
    "RateLimiter",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeHTTPError",
    "ServerHandle",
    "SimulateRequest",
    "SimulationServer",
    "SingleFlight",
    "TokenBucket",
    "parse_simulate_request",
    "simulate_response",
    "start_in_thread",
]
