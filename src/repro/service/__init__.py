"""The serving layer: concurrent query execution over registered graphs.

The matcher, planner and FLWR engine are single-caller library code; this
package turns them into a *service* — the shape the ROADMAP's "heavy
traffic" north star requires:

* :class:`QueryService` — the facade: a bounded worker pool, admission
  control with per-client quotas and load shedding, a text-keyed
  prepared-query cache, an LRU result cache invalidated by graph versions, and
  per-request cancellation built on the runtime governance primitives.
* :class:`QueryServer` / :class:`ServiceClient` — a newline-delimited
  JSON wire protocol over TCP (``repro-gql serve``), with graceful drain
  on SIGTERM.
* :class:`ServiceMetrics` — admitted/rejected/cache/outcome counters and
  a latency histogram, exposed through the ``stats`` request.

See ``docs/service.md`` for the protocol specification and tuning notes.
"""

from .admission import AdmissionController
from .cache import LRUCache, ResultCache
from .config import ServiceConfig
from .metrics import ServiceMetrics
from .service import QueryRequest, QueryResponse, QueryService
from .client import ServiceClient
from .server import QueryServer

__all__ = [
    "AdmissionController",
    "LRUCache",
    "QueryRequest",
    "QueryResponse",
    "QueryServer",
    "QueryService",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
]
