"""``repro.serve`` — concurrent marginal query serving.

PriView's synopsis is fit once under ε-DP and then answers unboundedly
many k-way marginals as free post-processing.  This package turns that
artifact into a query-serving engine (see ``docs/SERVING.md``):

* :class:`QueryPlanner` classifies each request — *covered* (project a
  view), *derived* (project a cached reconstruction), or *solved*
  (run max-entropy / least-squares / LP);
* :class:`QueryEngine` executes plans behind a bounded LRU answer
  cache with single-flight coalescing and a thread pool for batches;
* :class:`MarginalServer` / :class:`QueryClient` speak a small JSON
  protocol over HTTP (``POST /v1/marginal``, ``POST /v1/batch``,
  ``GET /healthz``, ``GET /stats``).

The engine hosts *any* :class:`~repro.baselines.base.MarginalSource`
— a synopsis gets full covered/derived/solved planning; a fitted
baseline mechanism answers misses through its own ``marginal`` while
keeping the cache, batching and stats.

A whole :class:`~repro.store.SynopsisStore` is hosted by one server
through :class:`EngineRouter` — per-dataset engines built lazily with
LRU eviction, ``POST /v1/d/{name}/marginal``, and zero-drop hot swap
of newly published versions (``docs/STORE.md``).

Quick tour::

    from repro.serve import QueryEngine, serve_source, serve_store

    engine = QueryEngine(synopsis, attach=True)
    synopsis.marginal((0, 3, 5))        # planned + cached from now on

    with serve_source("synopsis.npz", port=0) as server:
        print(server.url)               # e.g. http://127.0.0.1:49152

    with serve_store("synopses/", port=0, watch=True) as server:
        QueryClient(server.url).marginal((0, 3), dataset="adult")
"""

from repro.serve.cache import SingleFlightLRU
from repro.serve.client import QueryClient
from repro.serve.engine import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_WORKERS,
    QueryAnswer,
    QueryEngine,
)
from repro.serve.multiplex import DEFAULT_MAX_ENGINES, EngineRouter
from repro.serve.planner import (
    PATH_COVERED,
    PATH_DERIVED,
    PATH_ERROR,
    PATH_SOLVED,
    PLANNER_PATHS,
    QueryPlan,
    QueryPlanner,
)
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    DEFAULT_REQUEST_TIMEOUT,
    MarginalServer,
    serve_source,
    serve_store,
)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_HOST",
    "DEFAULT_MAX_ENGINES",
    "DEFAULT_PORT",
    "DEFAULT_REQUEST_TIMEOUT",
    "DEFAULT_WORKERS",
    "EngineRouter",
    "MarginalServer",
    "PATH_COVERED",
    "PATH_DERIVED",
    "PATH_ERROR",
    "PATH_SOLVED",
    "PLANNER_PATHS",
    "QueryAnswer",
    "QueryClient",
    "QueryEngine",
    "QueryPlan",
    "QueryPlanner",
    "SingleFlightLRU",
    "serve_source",
    "serve_store",
]
