"""The synopsis registry: named, versioned, durable synopsis artifacts.

:class:`SynopsisStore` owns one directory tree::

    <root>/
      manifest.json     # name -> ordered versions + pins (atomic JSON)
      .lock             # mutation lock (publish / pin / prune / gc)
      objects/aa/<sha256>.npz   # content-addressed, immutable artifacts
      quarantine/       # corrupt artifacts moved aside, never served

Publish discipline (crash-safe at every step):

1. the synopsis is serialised to a ``.tmp-*`` file inside ``objects/``;
2. the file is hashed, fsynced and atomically renamed to its content
   address — identical payloads dedupe to one object;
3. under the store lock, the manifest gains the new version entry and
   is itself atomically replaced.

A writer killed before (3) leaves the registry byte-for-byte as it
was: readers keep resolving and serving the previous version, and the
leftovers (a stale temp file, or an unreferenced object) are swept by
:meth:`SynopsisStore.gc`.  Reads never lock: the manifest is a
consistent snapshot and objects are immutable once named.

Loads verify the artifact's recorded sha256 (and the payload digest
inside the file, see :mod:`repro.core.serialization`); a mismatch
quarantines the file and raises
:class:`~repro.exceptions.SynopsisIntegrityError` instead of serving
corrupt counts.
"""

from __future__ import annotations

import os
import pathlib
import shutil
from time import gmtime, strftime, time

from repro import obs
from repro.exceptions import StoreError, SynopsisIntegrityError
from repro.obs.log import get_logger
from repro.store import artifacts
from repro.store.locking import FileLock
from repro.store.manifest import (
    MANIFEST_NAME,
    DatasetEntry,
    Manifest,
    VersionInfo,
)

log = get_logger("store")

OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"
LOCK_NAME = ".lock"

#: default age before ``gc`` sweeps a ``.tmp-*`` leftover — generous
#: enough that a live publisher's in-flight file is never reaped
DEFAULT_TMP_AGE_S = 3600.0


def parse_spec(spec: str) -> tuple[str, int | None]:
    """Split ``"name"`` / ``"name@latest"`` / ``"name@3"``.

    Returns ``(name, version)`` with ``version=None`` meaning "the
    default" (pinned if set, else newest).
    """
    if not isinstance(spec, str) or not spec:
        raise StoreError(f"bad dataset spec {spec!r}")
    name, sep, tag = spec.partition("@")
    if not name:
        raise StoreError(f"bad dataset spec {spec!r}: empty name")
    if not sep or tag in ("", "latest"):
        return name, None
    try:
        version = int(tag)
    except ValueError:
        raise StoreError(
            f"bad dataset spec {spec!r}: version must be an integer "
            "or 'latest'"
        ) from None
    return name, version


def _utc_now() -> str:
    return strftime("%Y-%m-%dT%H:%M:%SZ", gmtime())


class SynopsisStore:
    """A versioned, multi-tenant registry of published synopses."""

    def __init__(
        self,
        root: str | os.PathLike,
        create: bool = True,
        lock_timeout: float = 30.0,
    ):
        self.root = pathlib.Path(root)
        self.objects_dir = self.root / OBJECTS_DIR
        self.quarantine_dir = self.root / QUARANTINE_DIR
        self.manifest_path = self.root / MANIFEST_NAME
        self.lock_path = self.root / LOCK_NAME
        self._lock_timeout = lock_timeout
        if create:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StoreError(f"no synopsis store at {self.root}")

    def _lock(self) -> FileLock:
        return FileLock(self.lock_path, timeout=self._lock_timeout)

    # ------------------------------------------------------------------
    # Reading (lock-free)
    # ------------------------------------------------------------------
    def manifest(self) -> Manifest:
        """A consistent snapshot of the registry state."""
        return Manifest.load(self.manifest_path)

    def manifest_mtime(self) -> float:
        """mtime of ``manifest.json`` (0.0 before the first publish);
        changes on every mutation, which is what serve's hot-swap
        watcher polls."""
        try:
            return self.manifest_path.stat().st_mtime
        except FileNotFoundError:
            return 0.0

    def names(self) -> list[str]:
        return sorted(self.manifest().datasets)

    def entries(self) -> list[DatasetEntry]:
        manifest = self.manifest()
        return [manifest.datasets[name] for name in sorted(manifest.datasets)]

    def resolve(self, spec: str) -> VersionInfo:
        """``"name"`` / ``"name@latest"`` / ``"name@3"`` → version info."""
        name, version = parse_spec(spec)
        entry = self.manifest().entry(name)
        return entry.default if version is None else entry.get(version)

    def object_path(self, info: VersionInfo) -> pathlib.Path:
        return artifacts.object_path(self.objects_dir, info.sha256)

    def get(self, spec: str, verify: bool = True):
        """Resolve and load a synopsis (integrity-checked by default)."""
        return self.load_version(self.resolve(spec), verify=verify)

    def load_version(self, info: VersionInfo, verify: bool = True):
        """Load one resolved version from the object store.

        With ``verify`` the file's sha256 must match the manifest
        record; a corrupt artifact is quarantined (so it is never
        re-served) and :class:`SynopsisIntegrityError` is raised.
        """
        from repro.core.serialization import load_synopsis

        path = self.object_path(info)
        with obs.span(
            "store.load", "store.load_seconds", {"dataset": info.name}
        ):
            obs.incr("store.load")
            if not path.exists():
                raise StoreError(
                    f"{info.spec}: artifact {info.sha256[:12]}… is missing "
                    f"from {self.objects_dir} (gc'd or never committed?)"
                )
            if verify:
                actual = artifacts.file_sha256(path)
                if actual != info.sha256:
                    self._quarantine(path, info, actual)
            try:
                synopsis = load_synopsis(path, verify=verify)
            except SynopsisIntegrityError:
                self._quarantine(path, info, "payload-digest-mismatch")
            return synopsis

    def _quarantine(self, path: pathlib.Path, info: VersionInfo, actual):
        target = artifacts.quarantine_file(path, self.quarantine_dir)
        obs.incr("store.corrupt_artifacts")
        log.error(
            "%s: artifact failed integrity check (%s != %s); quarantined "
            "to %s", info.spec, actual, info.sha256, target,
        )
        raise SynopsisIntegrityError(
            f"{info.spec}: artifact failed its integrity check "
            f"({actual} != recorded {info.sha256}); moved to {target}"
        )

    # ------------------------------------------------------------------
    # Publishing and other mutations (store-locked)
    # ------------------------------------------------------------------
    def publish(
        self,
        name: str,
        synopsis_or_path,
        created_at: str | None = None,
        fit_seconds: float | None = None,
        extra: dict | None = None,
    ) -> VersionInfo:
        """Durably publish a synopsis as the next version of ``name``.

        ``synopsis_or_path`` is a fitted
        :class:`~repro.core.synopsis.PriViewSynopsis` or a path to a
        saved ``.npz``.  The artifact is committed (content-addressed,
        fsynced, atomically renamed) *before* the manifest references
        it, so a crash at any point leaves the previous version
        serving.  Returns the new :class:`VersionInfo`.
        """
        from repro.core.serialization import load_synopsis, save_synopsis

        if "@" in name or not name:
            raise StoreError(
                f"bad dataset name {name!r} (non-empty, no '@')"
            )
        with obs.span(
            "store.publish", "store.publish_seconds", {"dataset": name}
        ):
            tmp = artifacts.make_temp(
                self.objects_dir, suffix=artifacts.OBJECT_SUFFIX
            )
            try:
                if isinstance(synopsis_or_path, (str, bytes)) or hasattr(
                    synopsis_or_path, "__fspath__"
                ):
                    synopsis = load_synopsis(synopsis_or_path)
                    shutil.copyfile(synopsis_or_path, tmp)
                else:
                    synopsis = synopsis_or_path
                    save_synopsis(synopsis, tmp)
                sha, _, size = artifacts.ingest_file(tmp, self.objects_dir)
            except BaseException:
                # Leave no half-written object behind on a *clean*
                # failure; a hard kill is covered by gc's tmp sweep.
                tmp.unlink(missing_ok=True)
                raise
            with self._lock():
                manifest = self.manifest()
                entry = manifest.ensure(name)
                info = VersionInfo(
                    name=name,
                    version=entry.next_version(),
                    sha256=sha,
                    size_bytes=size,
                    epsilon=synopsis.epsilon,
                    num_attributes=synopsis.num_attributes,
                    num_views=synopsis.num_views,
                    design=(
                        None if synopsis.design is None
                        else synopsis.design.notation
                    ),
                    total_count=float(synopsis.total_count()),
                    created_at=created_at or _utc_now(),
                    fit_seconds=fit_seconds,
                    domain=(
                        None if synopsis.domain is None
                        else synopsis.domain.to_json()
                    ),
                    extra=dict(extra or {}),
                )
                entry.versions.append(info)
                manifest.dump(self.manifest_path)
            obs.incr("store.publish")
            self._export_gauges(manifest)
            log.info("published %s (sha256 %s…, %d bytes)",
                     info.spec, sha[:12], size)
        return info

    def pin(self, name: str, version: int) -> VersionInfo:
        """Make ``name`` (and ``name@latest``) resolve to ``version``."""
        with self._lock():
            manifest = self.manifest()
            info = manifest.entry(name).get(int(version))
            manifest.entry(name).pinned = info.version
            manifest.dump(self.manifest_path)
        return info

    def unpin(self, name: str) -> None:
        """Return ``name`` to newest-version resolution."""
        with self._lock():
            manifest = self.manifest()
            manifest.entry(name).pinned = None
            manifest.dump(self.manifest_path)

    def prune(self, name: str, keep_last: int = 1) -> list[VersionInfo]:
        """Drop all but the newest ``keep_last`` versions of ``name``.

        The pinned version (if any) is always kept.  Returns what was
        dropped; the objects themselves become garbage for :meth:`gc`.
        """
        if keep_last < 1:
            raise StoreError("prune keeps at least one version")
        with self._lock():
            manifest = self.manifest()
            entry = manifest.entry(name)
            keep = {v.version for v in entry.versions[-keep_last:]}
            if entry.pinned is not None:
                keep.add(entry.pinned)
            dropped = [v for v in entry.versions if v.version not in keep]
            entry.versions = [
                v for v in entry.versions if v.version in keep
            ]
            manifest.dump(self.manifest_path)
        self._export_gauges(manifest)
        return dropped

    def prune_matching(
        self, pattern: str = "*", keep_last: int = 1
    ) -> dict[str, list[VersionInfo]]:
        """:meth:`prune` every dataset whose name matches a glob.

        The retention pass streaming publishers run after each window:
        ``prune_matching("clicks*", keep_last=24)`` keeps each matching
        dataset's newest 24 versions (pinned versions always survive).
        Returns ``{name: dropped_versions}`` for datasets that lost
        anything; the dropped objects become garbage for :meth:`gc`.
        """
        import fnmatch

        dropped: dict[str, list[VersionInfo]] = {}
        for entry in self.entries():
            if not fnmatch.fnmatchcase(entry.name, pattern):
                continue
            gone = self.prune(entry.name, keep_last=keep_last)
            if gone:
                dropped[entry.name] = gone
        return dropped

    def gc(self, tmp_age_s: float = DEFAULT_TMP_AGE_S) -> dict:
        """Sweep unreferenced objects and stale temp files.

        Unreferenced objects exist after :meth:`prune` or a publish
        that died between object commit and manifest update; temp
        files after a writer killed mid-write.  Temp files younger
        than ``tmp_age_s`` are left alone (they may be in flight).
        Returns a summary dict.
        """
        removed_objects: list[str] = []
        removed_tmp: list[str] = []
        reclaimed = 0
        with self._lock():
            manifest = self.manifest()
            referenced = manifest.referenced_digests()
            for path in list(artifacts.iter_objects(self.objects_dir)):
                if path.stem not in referenced:
                    reclaimed += path.stat().st_size
                    path.unlink()
                    removed_objects.append(path.name)
            cutoff = time() - tmp_age_s
            for path in list(artifacts.iter_tmp_files(self.root)):
                try:
                    if path.stat().st_mtime <= cutoff:
                        reclaimed += path.stat().st_size
                        path.unlink()
                        removed_tmp.append(path.name)
                except FileNotFoundError:
                    continue
        self._export_gauges(manifest)
        summary = {
            "removed_objects": removed_objects,
            "removed_tmp": removed_tmp,
            "reclaimed_bytes": reclaimed,
        }
        log.info("gc: %d object(s), %d temp file(s), %d bytes reclaimed",
                 len(removed_objects), len(removed_tmp), reclaimed)
        return summary

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def verify(self, quarantine: bool = False) -> dict:
        """Check every referenced artifact against its recorded sha256.

        Read-only by default; with ``quarantine`` corrupt files are
        moved aside.  In-flight ``.tmp-*`` files are *not* corruption —
        a crashed publish leaves a clean store.  Returns a report with
        ``clean`` True when nothing is missing or corrupt.
        """
        manifest = self.manifest()
        checked = 0
        ok = 0
        missing: list[str] = []
        corrupt: list[str] = []
        for entry in manifest.datasets.values():
            for info in entry.versions:
                checked += 1
                path = self.object_path(info)
                if not path.exists():
                    missing.append(info.spec)
                    continue
                if artifacts.file_sha256(path) == info.sha256:
                    ok += 1
                    continue
                corrupt.append(info.spec)
                obs.incr("store.corrupt_artifacts")
                if quarantine:
                    target = artifacts.quarantine_file(
                        path, self.quarantine_dir
                    )
                    log.error("verify: quarantined %s to %s",
                              info.spec, target)
        self._export_gauges(manifest)
        return {
            "checked": checked,
            "ok": ok,
            "missing": missing,
            "corrupt": corrupt,
            "tmp_files": [
                p.name for p in artifacts.iter_tmp_files(self.root)
            ],
            "clean": not missing and not corrupt,
        }

    def info(self, spec: str) -> dict:
        """JSON-ready description of one dataset (or ``name@version``)."""
        name, version = parse_spec(spec)
        entry = self.manifest().entry(name)
        versions = (
            entry.versions if version is None else [entry.get(version)]
        )
        return {
            "name": name,
            "pinned": entry.pinned,
            "versions": [v.to_json() for v in versions],
        }

    def stats(self) -> dict:
        manifest = self.manifest()
        self._export_gauges(manifest)
        return {
            "root": str(self.root),
            "datasets": len(manifest.datasets),
            "entries": manifest.num_entries,
            "bytes": manifest.total_bytes,
        }

    def _export_gauges(self, manifest: Manifest) -> None:
        obs.set_gauge("store.entries", manifest.num_entries)
        obs.set_gauge("store.bytes", manifest.total_bytes)

    def __repr__(self) -> str:
        return f"SynopsisStore({str(self.root)!r})"
