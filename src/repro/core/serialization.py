"""Persisting a PriView synopsis.

The synopsis *is* the published artifact: once written to disk it can
be shipped to analysts, who reconstruct marginals without any access
to the private data (or to this library's fitting code paths).

Integrity
---------
``save_synopsis`` records a sha256 digest of the payload (every view's
attribute set and counts) in the header; ``load_synopsis`` recomputes
and compares it, raising :class:`~repro.exceptions.SynopsisIntegrityError`
on mismatch — so a flipped bit anywhere in the arrays is caught even
for loose ``.npz`` files outside the :mod:`repro.store` registry (which
additionally checksums whole files).  Undecodable files (truncation,
zip/zlib corruption) surface as the same typed error instead of a
``BadZipFile``/``KeyError`` deep in parsing.

Compatibility
-------------
``format_version`` is bumped on changes to the on-disk layout; the
loader accepts every version up to :data:`FORMAT_VERSION` (fields
added later simply default) and raises a clear
:class:`~repro.exceptions.SynopsisFormatError` for files written by a
*newer* library version.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import zipfile
import zlib

import numpy as np

from repro.core.synopsis import PriViewSynopsis
from repro.covering.design import CoveringDesign
from repro.exceptions import (
    DatasetError,
    ReproError,
    SynopsisFormatError,
    SynopsisIntegrityError,
)
from repro.marginals.attrs import AttrSet
from repro.marginals.domain import Domain
from repro.marginals.table import MarginalTable

#: bumped on changes to the on-disk layout; the loader reads any
#: version up to this one (v1 files simply lack ``payload_sha256``,
#: v2 files lack ``kind``/``domain``/``view_arities`` and keep their
#: views-only digest)
FORMAT_VERSION = 3

#: oldest version the loader still understands
MIN_FORMAT_VERSION = 1


def jsonable(obj):
    """Recursively coerce ``obj`` into plain JSON-serialisable types.

    numpy scalars become Python scalars, arrays become lists, mapping
    keys become strings; anything unrecognised falls back to ``str``.
    Used for the free-form ``meta``/``metadata`` dicts the pipeline
    attaches to tables (solver telemetry and the like).
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def payload_digest(views, domain=None, kind: str = "priview") -> str:
    """sha256 over every view's attribute set (and arities) and counts.

    This is the digest ``save_synopsis`` records and ``load_synopsis``
    verifies; it is independent of zip container details, so the same
    views always hash the same regardless of compression.  The domain
    schema (when present) and the synopsis kind are covered too, so a
    flipped bit in the serialized schema fails verification rather
    than silently degrading to a schema-less load.  With the default
    arguments the digest of binary views is byte-identical to the
    v1/v2 formula, which is how pre-v3 files stay verifiable.
    """
    digest = hashlib.sha256()
    if kind != "priview":
        digest.update(f"kind:{kind}\n".encode())
    if domain is not None:
        schema = json.dumps(domain.to_json(), sort_keys=True)
        digest.update(f"domain:{schema}\n".encode())
    for view in views:
        digest.update(repr(tuple(int(a) for a in view.attrs)).encode())
        arities = view.attrs.arities
        if arities is not None:
            digest.update(repr(tuple(int(b) for b in arities)).encode())
        digest.update(
            np.ascontiguousarray(view.counts, dtype=np.float64).tobytes()
        )
    return digest.hexdigest()


def save_synopsis(synopsis, path: str | os.PathLike) -> pathlib.Path:
    """Write a synopsis to ``path`` (compressed .npz).

    The header's ``kind`` field records the domain kind — ``priview``
    for binary attributes, ``categorical`` for a synopsis with
    arities — and the optional ``domain`` schema (covered by the
    payload digest) rides along for both.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    domain = synopsis.domain
    kind = "priview" if synopsis.arities is None else "categorical"
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "epsilon": synopsis.epsilon,
        "num_attributes": synopsis.num_attributes,
        "view_attrs": [list(v.attrs) for v in synopsis.views],
        "view_meta": [jsonable(v.meta) for v in synopsis.views],
        "metadata": jsonable(synopsis.metadata),
        "domain": None if domain is None else domain.to_json(),
        "payload_sha256": payload_digest(synopsis.views, domain, kind),
    }
    if synopsis.design is not None:
        header["design"] = synopsis.design.to_text()
    if synopsis.arities is not None:
        header["arities"] = [int(b) for b in synopsis.arities]
        header["view_arities"] = [
            [int(b) for b in v.arities] for v in synopsis.views
        ]
    arrays = {
        f"view_{i}": view.counts for i, view in enumerate(synopsis.views)
    }
    np.savez_compressed(path, header=json.dumps(header), **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def _check_format_version(header: dict, path: pathlib.Path) -> int:
    version = header.get("format_version")
    if not isinstance(version, int):
        raise SynopsisIntegrityError(
            f"corrupt synopsis {path}: missing/invalid format_version "
            f"{version!r}"
        )
    if version > FORMAT_VERSION:
        raise SynopsisFormatError(
            f"synopsis {path} uses format_version {version}, but this "
            f"library reads at most {FORMAT_VERSION} — it was written "
            "by a newer repro release; upgrade to load it"
        )
    if version < MIN_FORMAT_VERSION:
        raise SynopsisFormatError(
            f"synopsis {path} uses retired format_version {version} "
            f"(oldest supported: {MIN_FORMAT_VERSION})"
        )
    return version


def _parse_domain(header: dict, path: pathlib.Path) -> Domain | None:
    """Domain schema from the header, or None; malformed schemas are
    an integrity failure, never a silent schema-less fallback."""
    blob = header.get("domain")
    if blob is None:
        return None
    try:
        return Domain.from_json(blob)
    except (ReproError, TypeError, KeyError, ValueError) as exc:
        raise SynopsisIntegrityError(
            f"corrupt synopsis {path}: undecodable domain schema: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def load_synopsis(path: str | os.PathLike, verify: bool = True):
    """Load a synopsis written by :func:`save_synopsis`.

    Returns a :class:`PriViewSynopsis` of the kind the header
    records (``priview`` or ``categorical``, which carries the
    arities).  Raises
    :class:`~repro.exceptions.SynopsisFormatError` for files from a
    newer library, and
    :class:`~repro.exceptions.SynopsisIntegrityError` when the file
    does not decode or (with ``verify``, the default) the recorded
    payload sha256 does not match the header + arrays read back.
    """
    path = pathlib.Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise DatasetError(f"missing synopsis file {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"]))
            version = _check_format_version(header, path)
            kind = header.get("kind", "priview")
            domain = _parse_domain(header, path)
            # view_meta is absent in files written before it existed:
            # default to empty dicts so those synopses still load.
            metas = header.get("view_meta") or [{}] * len(header["view_attrs"])
            counts = [
                archive[f"view_{i}"]
                for i in range(len(header["view_attrs"]))
            ]
        # v3 categorical files record each view's arities; binary
        # views (and every pre-v3 file) have none.
        view_arities = header.get("view_arities") or [None] * len(counts)
        views = [
            MarginalTable(AttrSet(attrs, arities=arities), cells, dict(meta))
            for attrs, arities, cells, meta in zip(
                header["view_attrs"], view_arities, counts, metas
            )
        ]
        if kind not in ("priview", "categorical"):
            raise SynopsisIntegrityError(
                f"corrupt synopsis {path}: unknown synopsis kind {kind!r}"
            )
        design = header.get("design")
        synopsis = PriViewSynopsis(
            views=views,
            epsilon=float(header["epsilon"]),
            num_attributes=int(header["num_attributes"]),
            metadata=header.get("metadata", {}),
            domain=domain,
            design=None if design is None else CoveringDesign.from_text(design),
            arities=header["arities"] if kind == "categorical" else None,
        )
    except ReproError:
        raise
    except (
        zipfile.BadZipFile,
        zlib.error,
        json.JSONDecodeError,
        KeyError,
        ValueError,
        OSError,
        EOFError,
    ) as exc:
        raise SynopsisIntegrityError(
            f"corrupt synopsis {path}: {type(exc).__name__}: {exc}"
        ) from exc
    expected = header.get("payload_sha256")
    if verify and expected is not None:
        if version >= 3:
            actual = payload_digest(synopsis.views, domain, kind)
        else:
            actual = payload_digest(synopsis.views)
        if actual != expected:
            raise SynopsisIntegrityError(
                f"synopsis {path} failed its integrity check: payload "
                f"sha256 {actual} != recorded {expected}"
            )
    return synopsis
