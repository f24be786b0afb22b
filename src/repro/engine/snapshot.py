"""Diagram snapshots: persist a built engine, reopen it without rebuilding.

A snapshot is one file in the :mod:`repro.storage.pagestore` page-file
format: every disk page (UV-index leaf lists, R-tree leaves, object-store
pages) lives in a fixed-size slot, and a metadata tail records everything
the page ids alone cannot express.  Format 3 splits that tail in two:

* a short JSON header with the O(1) fields -- format, build configuration,
  backend, domain, construction summary, shard info, each structure's
  scalars -- and a directory of columns;
* a binary section of little-endian int32/int64/float64 columns holding all
  per-object and per-node state: the engine's object order, the object ->
  page directory, the R-tree's nodes and leaf entries, and the UV-index's
  node tree, per-leaf page and object lists, owner circles and reference
  sets (CSR ``ref_ptr`` / ``ref_idx``).

An open parses the header only; each column is a NumPy view of the tail's
bytes, and each structure rebuilds its Python objects from its columns on
first use.  Formats 1 and 2 kept all of that state as JSON; opening one
raises :class:`~repro.storage.pagestore.RetiredSnapshotFormatError`.

:func:`save_engine` writes that file; :func:`open_engine` restores a fully
functional :class:`~repro.engine.engine.QueryEngine` from it, over any of the
three store kinds (eager ``memory``, lazy ``file``, memory-mapped ``mmap``).
Because pages keep their ids and every index keeps its page references, the
reopened engine answers queries with the same answer sets, probabilities,
and counted page reads as the engine that was saved.

Snapshots are also the unit of *generations* in a live deployment directory
(see :doc:`docs/durability`): ``gen-000001.snap``, ``gen-000002.snap``, ...
are immutable once written, a ``wal.log`` records updates newer than the
live generation, and a small JSON ``MANIFEST`` names the generation that is
current.  The manifest is the single commit point -- it is always written to
a temporary file and atomically renamed over the old one, so readers observe
either the old generation or the new one, never a partial state.
:func:`initialize_generation` lays out such a directory,
:func:`open_live_engine` opens it with WAL replay (the engine-side recovery
path), and :func:`resolve_snapshot` lets read-only consumers (the serving
workers) find the current generation's file.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.construction import ConstructionStats
from repro.engine.backend import available_backends, restore_backend
from repro.engine.config import DiagramConfig
from repro.storage.codec import int_column, rect_from_state, rect_state
from repro.storage.disk import DiskManager
from repro.storage.object_store import ObjectStore
from repro.storage.pagestore import (
    CorruptSnapshotError,
    FilePageStore,
    PageStoreError,
    open_page_store,
    write_snapshot_file,
)
from repro.storage.stats import TimingBreakdown
from repro.rtree.tree import RTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.engine import QueryEngine

logger = logging.getLogger("repro.engine.snapshot")

#: Format 3 keeps per-object and per-node state in typed columns; formats 1
#: and 2 (all state as JSON) no longer open.
SNAPSHOT_FORMAT = 3

#: Config keys earlier releases saved and this one no longer has, each with a
#: test of the values it could hold.  :func:`open_engine` drops a key whose
#: value passes its test before ``DiagramConfig.from_dict``, which still
#: rejects every other unknown key (and a retired key with any other value).
RETIRED_CONFIG_KEYS: Dict[str, Callable[[Any], bool]] = {
    "prob_kernel": lambda value: value in ("vectorized", "scalar"),
    "grid_resolution": lambda value: type(value) is int and value >= 1,
    "shard_strategy": lambda value: value in ("round_robin", "spatial_tile"),
}

#: Backends earlier releases could save and this one no longer has, with why
#: they went.  :func:`open_engine` refuses their snapshots before reading any
#: page.
RETIRED_BACKENDS = {
    "grid": (
        "the uniform grid was retired because the planner routed every one of "
        "its PNN queries to the shared R-tree"
    ),
}


def build_meta(engine: "QueryEngine") -> Dict[str, Any]:
    """The metadata describing ``engine``'s non-page state.

    JSON values plus :class:`~repro.storage.codec.Column` values, which the
    page store writes as the tail's columns
    (:func:`repro.storage.pagestore.encode_meta`).
    """
    stats = engine.construction_stats
    order: Any
    if engine._objects is None:  # a lazily opened engine: its saved order
        order = engine._object_order
    else:
        order = [obj.oid for obj in engine.objects]
    return {
        "snapshot_format": SNAPSHOT_FORMAT,
        "config": engine.config.to_dict(),
        "backend": engine.backend.name,
        "domain": rect_state(engine.domain),
        "object_order": int_column(order),
        "object_store": engine.object_store.snapshot_state(),
        "rtree": engine.rtree.snapshot_state(),
        "backend_state": engine.backend.snapshot_state(),
        "construction": {
            "method": getattr(stats, "method", engine.backend.name),
            "objects": stats.objects if hasattr(stats, "objects") else len(engine),
        },  # no measured time: the header's length must not depend on one
        # Present only for shards of a sharded deployment: the shard id,
        # deployment epoch, and the full shard map (see repro.shard).
        "shard": engine.shard_info,
    }


def save_engine(engine: "QueryEngine", path: str) -> str:
    """Serialize the engine's full state (pages + metadata) to ``path``.

    When the engine already lives on a :class:`FilePageStore` at the same
    path, the working set is flushed in place; otherwise the pages are copied
    into a freshly written snapshot file and the engine keeps running on its
    current store.
    """
    path = os.fspath(path)
    meta = build_meta(engine)
    disk = engine.disk
    store = disk.store
    same_path = (
        getattr(store, "path", None) is not None
        and os.path.abspath(store.path) == os.path.abspath(path)
    )
    if isinstance(store, FilePageStore) and store.writable and same_path:
        disk.flush()
        store.write_meta(meta)
        store.flush()
    else:
        # Materialise every page *before* the target file is touched: when a
        # read-only store serves the same path being saved over, the copy
        # must not race the truncation (peek_page also leaves each page in
        # the disk's working set, so serving continues from memory after).
        pages = [disk.peek_page(pid) for pid in store.page_ids()]
        write_snapshot_file(path, pages, meta, next_page_id=disk.next_page_id)
        if same_path:
            # The rewritten file may use a different slot layout than the
            # store's cached geometry; re-point the engine at a fresh handle.
            old = disk.rebind_store(open_page_store(store.kind, path))
            old.close()
    return path


def open_engine(
    path: str,
    store: str = "file",
    buffer_pages: Optional[int] = None,
    readonly: bool = False,
    verify: bool = False,
) -> "QueryEngine":
    """Restore a :class:`QueryEngine` from a snapshot, without reconstruction.

    The open reads the header and the metadata tail and nothing else: the
    JSON header is parsed and each column becomes a NumPy view of the tail.
    The objects stay on their store pages and are decoded a page at a time
    on first touch (``engine.by_id``), the R-tree restores its nodes on its
    first walk, and a UV-index restores its node tree on its first descent
    and its per-object maps on its first mutation or pattern query.  The
    tail's CRC is checked here, so a corrupt header or column fails the
    open; on an unverified open a corrupt page raises
    :class:`~repro.storage.pagestore.CorruptSnapshotError` when it is first
    touched, not here.

    Args:
        path: snapshot file written by :func:`save_engine`, or a live
            deployment directory -- opened at its current generation (read
            path only: the write-ahead log is not replayed), which the
            engine reports as its ``generation``.
        store: how to serve the pages -- ``"file"`` (lazy reads through the
            page file), ``"mmap"`` (memory-mapped read-mostly view) or
            ``"memory"`` (eagerly load everything, fully in-memory serving).
        buffer_pages: override for the buffer-pool capacity; defaults to the
            value recorded in the snapshot's configuration.
        readonly: reject ``insert`` / ``delete`` on the reopened engine (the
            serving-correctness guard -- see :class:`ReadOnlyEngineError`).
        verify: checksum the whole snapshot before opening it, so a corrupt
            file raises :class:`~repro.storage.pagestore.CorruptSnapshotError`
            here instead of surfacing mid-query.
    """
    from repro.engine.engine import QueryEngine  # deferred: import cycle

    path, generation = resolve_snapshot(path)
    page_store = open_page_store(store, path, verify=verify)
    try:
        meta = page_store.read_meta()
    except PageStoreError:
        page_store.close()
        raise
    if meta is None:
        page_store.close()
        raise ValueError(f"{path} is a page file but holds no diagram snapshot")
    if meta.get("snapshot_format", 0) > SNAPSHOT_FORMAT:
        page_store.close()
        raise ValueError(
            f"snapshot format {meta.get('snapshot_format')} is newer than this library"
        )
    retired = RETIRED_BACKENDS.get(meta["backend"])
    if retired is not None:
        page_store.close()
        raise ValueError(
            f"{path} was saved with backend {meta['backend']!r}, which this "
            f"library no longer has: {retired}; rebuild the deployment with "
            f"one of {', '.join(available_backends())}"
        )

    saved = {
        key: value
        for key, value in meta["config"].items()
        if not (key in RETIRED_CONFIG_KEYS and RETIRED_CONFIG_KEYS[key](value))
    }
    config = DiagramConfig.from_dict(saved).replace(
        store=store,
        store_path=path,
        buffer_pages=(
            buffer_pages if buffer_pages is not None
            else saved.get("buffer_pages", 0)
        ),
    )
    disk = DiskManager(store=page_store, buffer_pages=config.buffer_pages)
    domain = rect_from_state(meta["domain"])
    object_store = ObjectStore.from_snapshot(meta["object_store"], disk)
    rtree = RTree.from_snapshot(meta["rtree"], disk)
    construction = meta["construction"]
    stats = ConstructionStats(
        method=construction["method"],
        objects=construction["objects"],
        total_seconds=0.0,
        timing=TimingBreakdown(),
    )
    backend = restore_backend(
        meta["backend"],
        meta["backend_state"],
        domain,
        config,
        disk,
        rtree,
        stats,
    )
    engine = QueryEngine(
        objects=None,
        domain=domain,
        backend=backend,
        rtree=rtree,
        object_store=object_store,
        disk=disk,
        config=config,
        construction_stats=stats,
        object_order=meta["object_order"].array,
    )
    engine._dirty = False
    engine._readonly = readonly
    engine._generation = generation or 0
    engine.shard_info = meta.get("shard")
    return engine


# ---------------------------------------------------------------------- #
# generations: manifest, live-directory layout, durable open
# ---------------------------------------------------------------------- #
MANIFEST_FORMAT = 1
MANIFEST_NAME = "MANIFEST"
WAL_NAME = "wal.log"


@dataclass(frozen=True)
class Manifest:
    """The live-directory commit record: which generation is current.

    Attributes:
        generation: monotonically increasing generation number (1-based).
        snapshot: filename of the generation's snapshot, relative to the
            directory (``gen-000001.snap`` style).
        base_lsn: last WAL LSN already folded into the snapshot; recovery
            replays only records with a larger LSN.
        previous: the predecessor generation (``generation`` / ``snapshot`` /
            ``base_lsn`` keys), recorded at checkpoint time.  This is the
            degradation path: if the current generation's snapshot turns out
            to be corrupt, :func:`open_live_engine` quarantines it and falls
            back to this one (which is why pruning keeps current *and*
            previous).  Optional -- older manifests simply have none.
    """

    generation: int
    snapshot: str
    base_lsn: int
    manifest_format: int = MANIFEST_FORMAT
    previous: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        state = {
            "manifest_format": self.manifest_format,
            "generation": self.generation,
            "snapshot": self.snapshot,
            "base_lsn": self.base_lsn,
        }
        if self.previous is not None:
            state["previous"] = dict(self.previous)
        return state

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "Manifest":
        previous = state.get("previous")
        return cls(
            generation=int(state["generation"]),
            snapshot=str(state["snapshot"]),
            base_lsn=int(state["base_lsn"]),
            manifest_format=int(state.get("manifest_format", MANIFEST_FORMAT)),
            previous=dict(previous) if isinstance(previous, dict) else None,
        )

    def as_previous(self) -> Dict[str, Any]:
        """This manifest reduced to the ``previous`` entry of its successor."""
        return {
            "generation": self.generation,
            "snapshot": self.snapshot,
            "base_lsn": self.base_lsn,
        }


def generation_filename(generation: int) -> str:
    """Canonical snapshot filename of one generation."""
    if generation < 1:
        raise ValueError(f"generations are 1-based, got {generation}")
    return f"gen-{generation:06d}.snap"


def manifest_path(directory: str) -> str:
    return os.path.join(os.fspath(directory), MANIFEST_NAME)


def wal_path(directory: str) -> str:
    return os.path.join(os.fspath(directory), WAL_NAME)


def is_live_directory(path: str) -> bool:
    """Whether ``path`` is a generation directory (holds a manifest)."""
    return os.path.isdir(path) and os.path.exists(manifest_path(path))


def _fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not all filesystems allow it
        pass
    finally:
        os.close(fd)


def read_manifest(directory: str) -> Manifest:
    """Read and validate a directory's manifest."""
    path = manifest_path(directory)
    try:
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
    except FileNotFoundError:
        raise ValueError(
            f"{directory} is not a live deployment directory (no {MANIFEST_NAME}); "
            f"initialise it with QueryEngine.save_generation or "
            f"`repro build --save-dir`"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt manifest {path}: {exc}") from exc
    if not isinstance(state, dict):
        raise ValueError(f"corrupt manifest {path}: not a JSON object")
    if int(state.get("manifest_format", 0)) > MANIFEST_FORMAT:
        raise ValueError(
            f"manifest format {state.get('manifest_format')} is newer than "
            f"this library (supports up to {MANIFEST_FORMAT})"
        )
    return Manifest.from_dict(state)


def write_manifest(directory: str, manifest: Manifest) -> str:
    """Atomically install ``manifest`` as the directory's commit record.

    The JSON is written to a temporary file, fsynced, and renamed over the
    old manifest (``os.replace``), then the directory entry is fsynced
    best-effort -- a reader never observes a partially written manifest.
    """
    path = manifest_path(directory)
    blob = json.dumps(manifest.to_dict(), indent=2, sort_keys=True).encode("utf-8")
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(blob + b"\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    _fsync_directory(os.fspath(directory))
    return path


def resolve_snapshot(path: str) -> Tuple[str, Optional[int]]:
    """``(snapshot file, generation)`` behind a path.

    A live deployment directory resolves through its manifest to the current
    generation's snapshot file; a plain snapshot file resolves to itself
    with no generation.  This is how read-only consumers (serving workers,
    ``--load``) open "whatever is current" without understanding the WAL.
    """
    path = os.fspath(path)
    if is_live_directory(path):
        manifest = read_manifest(path)
        return os.path.join(path, manifest.snapshot), manifest.generation
    return path, None


def list_generations(directory: str) -> Dict[int, str]:
    """Generation number -> snapshot filename, for every ``gen-*.snap`` present."""
    generations: Dict[int, str] = {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("gen-") and name.endswith(".snap")):
            continue
        digits = name[len("gen-"):-len(".snap")]
        if digits.isdigit():
            generations[int(digits)] = name
    return generations


def prune_generations(directory: str, keep_from: int) -> Dict[int, str]:
    """Delete generation snapshots older than ``keep_from``.

    The checkpointer keeps the new generation *and* its predecessor (a
    serving fleet may still hold the old one open over mmap -- the unlinked
    file stays readable through those mappings until they close).  Returns
    the pruned ``generation -> filename`` map.
    """
    pruned: Dict[int, str] = {}
    for generation, name in sorted(list_generations(directory).items()):
        if generation < keep_from:
            try:
                os.remove(os.path.join(directory, name))
            except OSError:  # pragma: no cover - already gone / perms
                continue
            pruned[generation] = name
    return pruned


QUARANTINE_SUFFIX = ".quarantined"


def quarantine_snapshot(directory: str, name: str) -> str:
    """Move a corrupt generation snapshot aside (``<name>.quarantined``).

    The file is renamed, not deleted, so an operator can inspect it (see the
    runbook in :doc:`docs/operations`); quarantined files no longer match the
    ``gen-*.snap`` pattern, so :func:`list_generations` and pruning ignore
    them.
    """
    source = os.path.join(os.fspath(directory), name)
    target = source + QUARANTINE_SUFFIX
    os.replace(source, target)
    _fsync_directory(os.fspath(directory))
    return target


def list_quarantined(directory: str) -> List[str]:
    """Filenames of quarantined snapshots in a live directory, sorted."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(name for name in names if name.endswith(QUARANTINE_SUFFIX))


def _fall_back_generation(directory: str, manifest: Manifest,
                          cause: Exception) -> Manifest:
    """Quarantine a corrupt current generation and promote its predecessor.

    Re-raises ``cause`` when there is nothing to fall back to (no recorded
    predecessor, or its snapshot file is gone).  On success the predecessor
    is installed as the manifest's current generation -- with no ``previous``
    of its own, so a second corruption does not loop -- and any updates that
    were folded into the corrupt generation (LSNs in
    ``(previous.base_lsn, manifest.base_lsn]``, already truncated from the
    WAL) are reported as lost.
    """
    previous = manifest.previous
    if not previous:
        raise cause
    fallback = Manifest(
        generation=int(previous["generation"]),
        snapshot=str(previous["snapshot"]),
        base_lsn=int(previous["base_lsn"]),
    )
    if not os.path.exists(os.path.join(directory, fallback.snapshot)):
        raise cause
    quarantined: Optional[str] = None
    if os.path.exists(os.path.join(directory, manifest.snapshot)):
        quarantined = quarantine_snapshot(directory, manifest.snapshot)
    write_manifest(directory, fallback)
    logger.error(
        "generation %d snapshot is corrupt (%s); quarantined %s and fell back "
        "to generation %d -- updates with LSNs in (%d, %d] were folded into "
        "the corrupt snapshot and are lost unless it can be repaired",
        manifest.generation, cause, quarantined or manifest.snapshot,
        fallback.generation, fallback.base_lsn, manifest.base_lsn,
    )
    return fallback


def initialize_generation(engine: "QueryEngine", directory: str) -> Manifest:
    """Lay ``directory`` out as a live deployment: generation 1 + empty WAL.

    Writes the engine's snapshot as ``gen-000001.snap``, creates an empty
    write-ahead log, and installs the manifest last -- the manifest's
    appearance is what makes the directory a valid deployment, so a crash
    mid-initialisation leaves a directory that simply is not one yet.
    """
    from repro.wal.log import WriteAheadLog

    directory = os.fspath(directory)
    if is_live_directory(directory):
        raise ValueError(
            f"{directory} already holds a live deployment "
            f"(found {MANIFEST_NAME}); checkpoint it instead of re-initialising"
        )
    os.makedirs(directory, exist_ok=True)
    name = generation_filename(1)
    save_engine(engine, os.path.join(directory, name))
    log = WriteAheadLog(wal_path(directory))
    log.close()
    manifest = Manifest(generation=1, snapshot=name, base_lsn=0)
    write_manifest(directory, manifest)
    engine._dirty = False
    return manifest


def open_live_engine(
    directory: str,
    store: str = "file",
    buffer_pages: Optional[int] = None,
    fsync: str = "always",
    verify: bool = False,
) -> "QueryEngine":
    """Open a live deployment directory: snapshot + WAL replay + attach.

    The engine-side crash-recovery path: read the manifest, open the current
    generation's snapshot writable, replay every WAL record newer than the
    manifest's ``base_lsn`` in LSN order, then attach the log so subsequent
    :meth:`~repro.engine.engine.QueryEngine.insert` /
    :meth:`~repro.engine.engine.QueryEngine.delete` calls append before they
    apply.  A torn WAL tail (crash mid-append) is truncated -- the torn
    record was never acknowledged, so dropping it loses nothing promised.

    Degradation: if the current generation's snapshot fails to open as
    corrupt (always detected with ``verify=True``; otherwise only a corrupt
    header or metadata fails the open, and a corrupt page raises when it is
    first touched -- by the replay or a query), the file is quarantined and
    the manifest's recorded *previous* generation is promoted and opened
    instead -- a corrupt checkpoint degrades to the last good state rather
    than taking the deployment down.  When no predecessor exists, the
    :class:`~repro.storage.pagestore.CorruptSnapshotError` propagates.
    """
    from repro.wal.log import WriteAheadLog
    from repro.wal.recovery import replay

    directory = os.fspath(directory)
    manifest = read_manifest(directory)

    def _open(current: Manifest) -> "QueryEngine":
        return open_engine(
            os.path.join(directory, current.snapshot),
            store=store,
            buffer_pages=buffer_pages,
            readonly=False,
            verify=verify,
        )

    try:
        engine = _open(manifest)
    except (CorruptSnapshotError, FileNotFoundError) as exc:
        manifest = _fall_back_generation(directory, manifest, exc)
        engine = _open(manifest)
    engine._generation = manifest.generation
    engine._live_directory = directory
    engine._base_lsn = manifest.base_lsn
    engine._last_lsn = manifest.base_lsn
    log = WriteAheadLog(wal_path(directory), fsync=fsync)
    # Records at or below base_lsn are already folded into the snapshot (a
    # crash between manifest flip and WAL truncation leaves them behind).
    pending = [r for r in log.records_at_open if r.lsn > manifest.base_lsn]
    replay(engine, pending, after_lsn=manifest.base_lsn)
    if pending:
        engine._last_lsn = pending[-1].lsn
    engine._attach_wal(log)
    engine._dirty = bool(pending)
    return engine
