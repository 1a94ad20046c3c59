"""The JSON wire protocol shared by the HTTP server and client.

Requests
--------
``POST /v1/marginal``::

    {"attrs": [0, 3, 5], "method": "maxent"}     # method optional

``POST /v1/batch``::

    {"queries": [{"attrs": [0, 3]}, {"attrs": [5, 1], "method": "lsq"}],
     "method": "maxent"}                          # batch-level default

``POST /v1/sample``::

    {"n": 500, "seed": 7, "decode": true}         # all fields optional

Responses
---------
An answer payload::

    {"attrs": [0, 3, 5], "k": 3, "method": "maxent", "path": "solved",
     "cached": false, "source": null, "elapsed_ms": 1.93,
     "total": 4000.0, "counts": [...], "meta": {...}}

Batch responses wrap ``{"answers": [...], "count": n, "distinct": m}``.
Errors (any status >= 400)::

    {"error": {"type": "QueryError", "message": "..."}}

``counts`` uses the library-wide cell convention: sorted attrs
``(a_0 < ... < a_{m-1})``, cell ``i`` counts records with
``a_j = (i // stride_j) % b_j`` — ``(i >> j) & 1`` for binary
attributes.  Answers over categorical attributes add
``"arities": [b_0, ...]``; binary answers carry no ``arities`` key.
"""

from __future__ import annotations

import numpy as np

from repro.core.serialization import jsonable
from repro.exceptions import DimensionError, QueryError
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable
from repro.serve.engine import QueryAnswer


def encode_answer(answer: QueryAnswer) -> dict:
    """The JSON payload for one :class:`QueryAnswer`."""
    payload = {
        "attrs": list(answer.attrs),
        "k": len(answer.attrs),
        "method": answer.method,
        "path": answer.path,
        "cached": answer.cached,
        "source": list(answer.source) if answer.source is not None else None,
        "elapsed_ms": answer.elapsed_s * 1e3,
        "total": answer.table.total(),
        "counts": answer.table.counts.tolist(),
        "meta": jsonable(answer.table.meta),
    }
    arities = answer.table.attrs.arities
    if arities is not None:
        payload["arities"] = [int(b) for b in arities]
    return payload


def decode_table(payload: dict) -> MarginalTable:
    """Rebuild the marginal table from an answer payload.

    ``arities``, present on answers over categorical attributes and
    absent on binary ones, rides back onto the table's attribute set.
    """
    return MarginalTable(
        AttrSet(payload["attrs"], arities=payload.get("arities")),
        np.asarray(payload["counts"], dtype=np.float64),
        dict(payload.get("meta") or {}),
    )


def encode_error(exc: BaseException, trace: dict | None = None) -> dict:
    """The JSON payload for a failed request.

    ``trace`` (the server's per-request ``{"trace_id", "request_id",
    "sampled"}`` block) rides along so clients can surface the ids in
    :class:`~repro.exceptions.RemoteQueryError`.
    """
    body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if trace:
        body["trace"] = dict(trace)
    return body


def _require_attrs(body: dict) -> tuple:
    attrs = body.get("attrs")
    if not isinstance(attrs, list) or not all(
        isinstance(a, int) and not isinstance(a, bool) for a in attrs
    ):
        raise QueryError(
            f"'attrs' must be a list of integer attribute indices, "
            f"got {attrs!r}"
        )
    try:
        return AttrSet(attrs)
    except DimensionError:
        # Shape/type checks live here; semantic canonicalisation
        # errors (duplicate attrs, ...) are left to the engine, which
        # raises them per-request and counts them under the error path.
        return tuple(attrs)


def parse_marginal_request(body) -> tuple[list, str | None]:
    """Validate a ``/v1/marginal`` body into ``(attrs, method)``."""
    if not isinstance(body, dict):
        raise QueryError("request body must be a JSON object")
    method = body.get("method")
    if method is not None and not isinstance(method, str):
        raise QueryError(f"'method' must be a string, got {method!r}")
    return _require_attrs(body), method


def parse_batch_request(body) -> tuple[list, str | None]:
    """Validate a ``/v1/batch`` body into ``(queries, method)``.

    ``queries`` entries are attrs lists or ``(attrs, method)`` pairs,
    the shape :meth:`repro.serve.engine.QueryEngine.answer_batch`
    accepts.
    """
    if not isinstance(body, dict):
        raise QueryError("request body must be a JSON object")
    raw = body.get("queries")
    if not isinstance(raw, list) or not raw:
        raise QueryError("'queries' must be a non-empty list")
    method = body.get("method")
    if method is not None and not isinstance(method, str):
        raise QueryError(f"'method' must be a string, got {method!r}")
    queries = []
    for item in raw:
        if not isinstance(item, dict):
            raise QueryError(f"each query must be an object, got {item!r}")
        attrs, query_method = parse_marginal_request(item)
        queries.append((tuple(attrs), query_method) if query_method else tuple(attrs))
    return queries, method


def parse_sample_request(body) -> tuple[int, int | None, bool]:
    """Validate a ``/v1/sample`` body into ``(n, seed, decode)``.

    ``n`` defaults to 100; the engine enforces the per-request cap.
    """
    if not isinstance(body, dict):
        raise QueryError("request body must be a JSON object")
    n = body.get("n", 100)
    if not isinstance(n, int) or isinstance(n, bool):
        raise QueryError(f"'n' must be an integer, got {n!r}")
    seed = body.get("seed")
    if seed is not None and (
        not isinstance(seed, int) or isinstance(seed, bool)
    ):
        raise QueryError(f"'seed' must be an integer, got {seed!r}")
    decode = body.get("decode", False)
    if not isinstance(decode, bool):
        raise QueryError(f"'decode' must be a boolean, got {decode!r}")
    return n, seed, decode


def encode_sample(answer, decode: bool = False) -> dict:
    """The JSON payload for one :class:`~repro.serve.engine.SampleAnswer`.

    With ``decode=False`` records are rows of integer codes (column
    order = ``attributes``); with ``decode=True`` they are rows of
    decoded values (labels / bin midpoints).
    """
    domain = answer.domain
    if decode:
        columns = domain.decode_records(answer.records)
        rows = [
            list(row)
            for row in zip(*(jsonable(columns[n]) for n in domain.names))
        ]
    else:
        rows = answer.records.tolist()
    return {
        "n": answer.n,
        "attributes": list(domain.names),
        "arities": [int(b) for b in domain.arities],
        "decoded": decode,
        "records": rows,
        "population": answer.population,
        "epsilon": answer.epsilon,
        "cold": answer.cold,
        "elapsed_ms": answer.elapsed_s * 1e3,
    }
