"""Command-line interface: ``python -m repro <command>``.

The sub-commands cover the everyday interactions with the library:

* ``info``        -- library version and a summary of the available components,
* ``build``       -- generate a dataset, build a query engine, print index
  stats (``--save`` persists a snapshot file; ``--save-dir`` lays out a live
  deployment directory: generation 1 + write-ahead log + manifest),
* ``query``       -- answer PNN queries over a built engine (``--load`` serves
  a snapshot or deployment directory instead of rebuilding; ``--threshold`` /
  ``--top-k`` run the probability-threshold and top-k variants),
* ``explain``     -- plan a query, run it, and print its counted page reads,
  buffer-pool hits and per-stage timings (EXPLAIN ANALYZE),
* ``render``      -- build (or ``--load``) a diagram and write an SVG picture,
* ``serve``       -- run the multi-worker HTTP query service over a snapshot
  or deployment directory (``repro serve --load uv.snap --workers 4``),
* ``checkpoint``  -- fold a deployment's write-ahead log into a new snapshot
  generation and flip the manifest (accepts sharded deployments too, and
  ``--status`` then reports every shard),
* ``shard-build`` -- build a spatially-sharded deployment: one snapshot
  generation per shard behind a ``SHARDMAP`` manifest,
* ``rebalance``   -- split / merge a sharded deployment's shards from
  observed statistics into a new epoch,
* ``wal-inspect`` -- print a write-ahead log's records and diagnostics,
* ``lint``        -- run the project-invariant static analyzer
  (``repro lint``, also available as ``python -m repro.lint``).

The CLI is intentionally thin: every command maps directly onto the public
Python API (:class:`repro.QueryEngine` + :class:`repro.DiagramConfig` +
the :mod:`repro.queries.spec` descriptors) so that scripts can graduate from
the shell to Python verbatim.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.datasets.loader import DatasetBundle, load_dataset
from repro.engine import DiagramConfig, QueryEngine, available_backends
from repro.geometry.point import Point
from repro.queries.spec import BatchQuery, PNNQuery


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="uniform",
                        choices=["uniform", "skewed", "utility", "roads", "rrlines"],
                        help="dataset generator to use")
    parser.add_argument("--objects", type=int, default=200, help="number of objects")
    parser.add_argument("--diameter", type=float, default=300.0,
                        help="uncertainty-region diameter")
    parser.add_argument("--sigma", type=float, default=2000.0,
                        help="centre standard deviation (skewed dataset only)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--backend", default=None, choices=available_backends(),
                        help="index backend (default: ic)")
    parser.add_argument("--page-capacity", type=int, default=16,
                        help="leaf-page capacity of the UV-index")
    parser.add_argument("--seed-knn", type=int, default=60,
                        help="k of the seed-selection k-NN query")
    parser.add_argument("--store", default="memory", choices=["memory", "file"],
                        help="page store backing the build (default: memory)")
    parser.add_argument("--store-path", default=None,
                        help="page-file path (required for --store file)")
    parser.add_argument("--buffer-pages", type=int, default=None,
                        help="LRU buffer-pool capacity on the read path "
                             "(0 = off; default: off for builds, the saved "
                             "value for --load)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the construction's "
                             "cell-computation phase (1 = serial; results "
                             "are bit-identical either way)")


def _add_query_point_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--at", default=None, help="query point as 'x,y' (default: random)")
    parser.add_argument("--count", type=int, default=3,
                        help="number of random queries when --at is not given")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="qualification-probability threshold tau: only "
                             "answers with p >= tau are reported, with "
                             "refinement-level early termination")
    parser.add_argument("--top-k", type=int, default=None, dest="top_k",
                        help="report only the k most probable answers")


def _add_load_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--load", default=None, metavar="SNAPSHOT",
                        help="serve a saved snapshot (or a live deployment "
                             "directory's current generation) instead of "
                             "rebuilding")
    parser.add_argument("--load-store", default="file",
                        choices=["file", "mmap", "memory"],
                        help="store kind used to open --load (default: file)")


def _load_bundle(args: argparse.Namespace) -> DatasetBundle:
    return load_dataset(
        args.dataset,
        args.objects,
        diameter=args.diameter,
        sigma=args.sigma if args.dataset == "skewed" else None,
        query_count=max(50, getattr(args, "queries", 0) or 0),
        seed=args.seed,
    )


def _config_from_args(args: argparse.Namespace, backend: Optional[str] = None) -> DiagramConfig:
    if args.store == "file" and not args.store_path:
        print("error: --store file requires --store-path", file=sys.stderr)
        raise SystemExit(2)
    return DiagramConfig(
        backend=backend or args.backend or "ic",
        page_capacity=args.page_capacity,
        seed_knn=args.seed_knn,
        rtree_fanout=16,
        store=args.store,
        store_path=args.store_path,
        buffer_pages=args.buffer_pages if args.buffer_pages is not None else 0,
        workers=args.workers,
    )


def _build_engine(args: argparse.Namespace) -> QueryEngine:
    bundle = _load_bundle(args)
    return QueryEngine.build(bundle.objects, bundle.domain, _config_from_args(args))


def _open_snapshot(args: argparse.Namespace):
    """Open ``--load`` with clean CLI errors for bad paths and formats.

    A live deployment directory opens at its current snapshot generation
    (read path only: the WAL is already folded in or pending, and a query
    CLI must not replay someone else's log).  A sharded deployment (a
    directory holding a ``SHARDMAP``) opens as a scatter-gather router over
    every shard's current generation.
    """
    from repro.shard.deployment import open_deployment
    from repro.storage.pagestore import PageStoreError

    try:
        return open_deployment(args.load, store=args.load_store,
                               buffer_pages=args.buffer_pages)
    except (OSError, PageStoreError, ValueError) as exc:
        print(f"error: cannot open snapshot {args.load}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _obtain_engine(args: argparse.Namespace):
    """A served engine: reopened from ``--load`` when given, else freshly built."""
    if getattr(args, "load", None):
        engine = _open_snapshot(args)
        shards = getattr(engine, "engines", None)
        layout = f", {len(shards)} shards" if shards is not None else ""
        print(f"opened snapshot {args.load} ({engine.backend_name!r} "
              f"backend, {len(engine)} objects, {args.load_store} store{layout})")
        return engine
    return _build_engine(args)


def _single_snapshot(engine, command: str) -> bool:
    """``False`` (with the CLI error printed) for a sharded deployment."""
    if isinstance(engine, QueryEngine):
        return True
    print(f"error: {command} needs a single-snapshot deployment, not a "
          f"sharded one", file=sys.stderr)
    return False


def _command_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__} -- UV-diagram: a Voronoi diagram for uncertain data")
    print("components: geometry kernel, uncertain-object model, simulated disk,")
    print("            R-tree baseline, UV-index (IC/ICR/Basic),")
    print("            PNN / k-PNN / pattern / batch queries, live updates,")
    print("            dataset generators, SVG viz")
    print(f"backends: {', '.join(available_backends())}")
    print("entry points: repro.QueryEngine.build(objects, domain, DiagramConfig(...)),")
    print("              repro.load_dataset(...)")
    return 0


def _command_build(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    stats = engine.construction_stats
    print(f"built a {engine.backend.name!r} engine over {len(engine)} objects "
          f"({args.dataset}, diameter {args.diameter})")
    print(f"  method            : {stats.method}")
    print(f"  construction time : {stats.total_seconds:.2f} s")
    if stats.avg_cr_objects:
        print(f"  avg |C_i|         : {stats.avg_cr_objects:.1f}")
        print(f"  pruning ratio     : {stats.c_pruning_ratio:.1%}")
    for key, value in engine.statistics().items():
        print(f"  index {key:<22}: {value:.1f}")
    save_paths = []
    if args.store == "file":
        # A file-backed build would otherwise leave only empty allocation-time
        # slots behind (leaf lists are mutated in memory until a flush).
        save_paths.append(args.store_path)
    if args.save and args.save not in save_paths:
        save_paths.append(args.save)
    for save_path in save_paths:
        import os

        engine.save(save_path)
        print(f"  snapshot          : {save_path} "
              f"({os.path.getsize(save_path)} bytes)")
    if args.save_dir:
        manifest = engine.save_generation(args.save_dir)
        print(f"  deployment        : {args.save_dir} "
              f"(generation {manifest.generation}, {manifest.snapshot}, "
              f"empty WAL)")
    return 0


def _query_points(args: argparse.Namespace, engine: QueryEngine) -> List[Point]:
    """The workload of a query/explain run: ``--at`` or random points."""
    if args.at:
        coordinates = [float(part) for part in args.at.split(",")]
        if len(coordinates) != 2:
            print("error: --at expects 'x,y'", file=sys.stderr)
            raise SystemExit(2)
        return [Point(coordinates[0], coordinates[1])]
    from repro.datasets.synthetic import generate_query_points

    return generate_query_points(args.count, engine.domain, seed=args.seed + 1)


def _pnn_descriptor(args: argparse.Namespace, point: Point) -> PNNQuery:
    try:
        return PNNQuery(
            point,
            threshold=args.threshold,
            top_k=args.top_k,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _command_query(args: argparse.Namespace) -> int:
    engine = _obtain_engine(args)
    try:
        queries = _query_points(args, engine)
        descriptors = [_pnn_descriptor(args, query) for query in queries]
    except SystemExit as exc:
        return int(exc.code)
    sequential_reads = 0
    for descriptor in descriptors:
        try:
            result = engine.execute(descriptor)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sequential_reads += result.io.page_reads
        answers = ", ".join(
            f"{a.oid} (p={a.probability:.3f})" for a in result.sorted_by_probability()
        )
        label = "PNN"
        if args.threshold > 0.0:
            label += f"[tau={args.threshold:g}]"
        if args.top_k is not None:
            label += f"[top-{args.top_k}]"
        print(f"{label}({result.query.x:.1f}, {result.query.y:.1f}) -> {answers} "
              f"[{result.io.page_reads} page reads]")
    if len(queries) > 1:
        stream = engine.execute(
            BatchQuery.of(queries, compute_probabilities=False)
        )
        before = engine.io_stats()
        batch_results = [result for _, result, _ in stream]
        batch_reads = engine.io_stats().delta(before).page_reads
        print(f"batch mode: {batch_reads} page reads vs {sequential_reads} "
              f"sequential ({stream.cache.hits} leaf reads served from the "
              f"cache, {len(batch_results)} results streamed)")
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    engine = _obtain_engine(args)
    try:
        queries = _query_points(args, engine)
        descriptors = [_pnn_descriptor(args, query) for query in queries]
    except SystemExit as exc:
        return int(exc.code)
    for query, descriptor in zip(queries, descriptors):
        report = engine.explain(descriptor)
        print(f"EXPLAIN PNN({query.x:.1f}, {query.y:.1f})")
        print(report.describe())
        answers = ", ".join(
            f"{a.oid} (p={a.probability:.3f})"
            for a in report.result.sorted_by_probability()
        ) or "(no answers)"
        print(f"  answers              : {answers}")
        if report.result.refinement is not None:
            refinement = report.result.refinement
            print(f"  refinement           : {refinement.integrated} integrated, "
                  f"{refinement.pruned} pruned, {refinement.trivial} trivial "
                  f"of {refinement.candidates} candidates")
        print()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, serve_forever

    try:
        config = ServeConfig(
            snapshot_path=args.load,
            workers=args.workers,
            host=args.host,
            port=args.port,
            store=args.load_store,
            queue_depth=args.queue_depth,
            request_timeout=args.request_timeout,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            drain_timeout=args.drain_timeout,
            buffer_pages=args.buffer_pages,
            reload_poll=args.reload_poll,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return serve_forever(config)
    except Exception as exc:  # noqa: BLE001 - a CLI prints, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _shard_directories(directory: str) -> Optional[List[str]]:
    """The live directory of every shard behind ``directory`` (one for an
    unsharded deployment); ``None`` with the CLI error printed."""
    from repro.shard.deployment import deployment_layout

    try:
        layout = deployment_layout(directory)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read sharded deployment {directory}: {exc}",
              file=sys.stderr)
        return None
    if not layout.directories:
        print(f"error: {directory} is not a live deployment "
              f"(no MANIFEST or SHARDMAP)", file=sys.stderr)
        return None
    if layout.epoch:
        print(f"sharded deployment {directory}: epoch {layout.epoch}, "
              f"{len(layout.directories)} shards")
    return list(layout.directories)


def _checkpoint_status(directory: str) -> int:
    """Status report of one live deployment directory (one shard)."""
    from repro.engine.snapshot import list_quarantined, read_manifest
    from repro.wal import read_checkpoint_status

    try:
        manifest = read_manifest(directory)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read deployment {directory}: {exc}",
              file=sys.stderr)
        return 2
    print(f"deployment {directory}: generation {manifest.generation} "
          f"({manifest.snapshot}), base_lsn {manifest.base_lsn}")
    if manifest.previous:
        print(f"  previous generation : {manifest.previous['generation']} "
              f"({manifest.previous['snapshot']})")
    quarantined = list_quarantined(directory)
    print(f"  quarantined         : {', '.join(quarantined) or 'none'}")
    status = read_checkpoint_status(directory)
    if status is None:
        print("  checkpointer        : no status recorded "
              "(never ran, or an older version)")
        return 0
    print(f"  checkpointer        : {'running' if status.get('running') else 'stopped'}, "
          f"{status.get('checkpoints_run', 0)} checkpoint(s) run")
    print(f"  consecutive failures: {status.get('consecutive_failures', 0)}")
    print(f"  last error          : {status.get('last_error') or 'none'}")
    last = status.get("last_checkpoint")
    if last:
        print(f"  last checkpoint     : generation {last.get('generation')}, "
              f"{last.get('folded_records')} record(s) folded, "
              f"{last.get('objects')} object(s), "
              f"{last.get('seconds', 0.0):.2f} s")
    return 0


def _checkpoint_once(directory: str, args: argparse.Namespace) -> int:
    """Fold one live deployment directory's (one shard's) WAL tail."""
    from repro.storage.pagestore import PageStoreError
    from repro.wal import Checkpointer

    try:
        engine = QueryEngine.open_live(directory, store=args.load_store)
    except (OSError, PageStoreError, ValueError) as exc:
        print(f"error: cannot open deployment {directory}: {exc}", file=sys.stderr)
        return 2
    try:
        checkpointer = Checkpointer(
            engine, min_records=max(1, args.min_records), workers=args.workers
        )
        result = checkpointer.run_once(force=args.force)
        if result is None:
            print(f"nothing to checkpoint in {directory}: "
                  f"{engine.pending_wal_records} pending record(s) over "
                  f"generation {engine.generation} (--min-records "
                  f"{args.min_records}; --force overrides)")
            return 0
        pruned = ", ".join(name for _, name in sorted(result.pruned.items())) or "none"
        print(f"checkpointed {directory}")
        print(f"  generation        : {result.generation} ({result.snapshot_path})")
        print(f"  folded records    : {result.folded_records} (base_lsn "
              f"{result.base_lsn})")
        print(f"  objects           : {result.objects}")
        print(f"  rebuild time      : {result.seconds:.2f} s")
        print(f"  pruned snapshots  : {pruned}")
        return 0
    finally:
        engine.close_wal()


def _command_checkpoint(args: argparse.Namespace) -> int:
    """``repro checkpoint [--status]``: one round over every shard directory.

    An unsharded live deployment is one shard, itself; a sharded one is
    walked in shard-id order (each shard checkpoints independently, so a
    crash between shards leaves every shard in its old or new generation).
    """
    directories = _shard_directories(args.dir)
    if directories is None:
        return 2
    worst = 0
    for directory in directories:
        if args.status:
            worst = max(worst, _checkpoint_status(directory))
        else:
            worst = max(worst, _checkpoint_once(directory, args))
    return worst


def _command_shard_build(args: argparse.Namespace) -> int:
    """``repro shard-build``: lay out a spatially-sharded deployment."""
    from repro.shard import build_sharded_deployment

    bundle = _load_bundle(args)
    config = _config_from_args(args)
    try:
        deployment = build_sharded_deployment(
            bundle.objects,
            bundle.domain,
            args.save_dir,
            config=config,
            shards=args.shards,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"built sharded deployment {args.save_dir} "
          f"({deployment.backend!r} backend, epoch {deployment.epoch}, "
          f"{len(deployment.shard_map)} shards, {len(bundle.objects)} objects)")
    for shard in deployment.shard_map.shards:
        print(f"  shard {shard.shard_id}: {shard.objects} objects, "
              f"tile [{shard.tile.xmin:.0f}, {shard.tile.ymin:.0f}] - "
              f"[{shard.tile.xmax:.0f}, {shard.tile.ymax:.0f}], "
              f"max radius {shard.max_radius:.1f}")
    return 0


def _command_rebalance(args: argparse.Namespace) -> int:
    """``repro rebalance``: split / merge shards into a new epoch."""
    from repro.shard import rebalance
    from repro.storage.pagestore import PageStoreError

    try:
        plan, deployment = rebalance(
            args.dir,
            target_shards=args.shards,
            max_skew=args.max_skew,
            prune=args.prune,
            dry_run=args.dry_run,
        )
    except (OSError, PageStoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(plan.describe())
    if args.dry_run or deployment is None:
        print("dry run: nothing built, SHARDMAP unchanged")
        return 0
    print(f"rebalanced {args.dir} to epoch {deployment.epoch} "
          f"({len(deployment.shard_map)} shards)")
    if args.prune:
        print("pruned the previous epoch's shard directories")
    return 0


def _command_wal_inspect(args: argparse.Namespace) -> int:
    from repro.engine.snapshot import is_live_directory, read_manifest, wal_path
    from repro.wal import WalError, scan_wal
    from repro.wal.log import (
        HEADER_SIZE,
        OP_DELETE,
        OP_INSERT,
        RECORD_HEADER_SIZE,
        decode_delete,
        decode_insert,
    )

    path = args.path
    base_lsn = None
    if is_live_directory(path):
        try:
            manifest = read_manifest(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"deployment {path}: generation {manifest.generation} "
              f"({manifest.snapshot}), base_lsn {manifest.base_lsn}")
        base_lsn = manifest.base_lsn
        path = wal_path(path)
    try:
        scan = scan_wal(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except WalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{path}: {len(scan.records)} record(s), "
          f"{scan.valid_bytes} valid byte(s)")
    offset = HEADER_SIZE
    for record in scan.records:
        try:
            if record.op == OP_INSERT:
                detail = f"insert oid={decode_insert(record.payload).oid}"
            elif record.op == OP_DELETE:
                detail = f"delete oid={decode_delete(record.payload)}"
            else:
                detail = f"op={record.op}"
        except WalError as exc:
            detail = f"undecodable payload ({exc})"
        stale = ""
        if base_lsn is not None and record.lsn <= base_lsn:
            stale = "  [folded into snapshot]"
        print(f"  offset {offset:>8}  lsn {record.lsn:>8}  {detail}{stale}")
        offset += RECORD_HEADER_SIZE + len(record.payload)
    if scan.is_corrupt:
        # Intact records exist past the break: this is mid-log damage of
        # acknowledged history, not a torn tail -- recovery refuses it.
        print(f"CORRUPT: record break at byte {scan.valid_bytes} "
              f"({scan.torn_reason}); last good lsn {scan.last_lsn}; "
              f"intact records resume at byte {scan.resync_offset} "
              f"(lsn {scan.resync_lsn})")
        return 1
    if scan.torn_bytes:
        # Expected after kill -9 mid-append: the torn record was never
        # acknowledged, and the next live open truncates it.  Still exit
        # non-zero so scripted health checks notice the log needs that
        # truncating open before it is clean.
        print(f"TORN: {scan.torn_bytes} trailing byte(s) at byte offset "
              f"{scan.valid_bytes} ({scan.torn_reason}); last good lsn "
              f"{scan.last_lsn}")
        return 1
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    from repro.faults import drill

    argv = ["--seed", str(args.seed), "--plans", args.plans]
    if args.report:
        argv += ["--report", args.report]
    if args.workdir:
        argv += ["--workdir", args.workdir]
    if args.list:
        argv.append("--list")
    return drill.main(argv)


def _command_render(args: argparse.Namespace) -> int:
    from repro.viz.svg import render_uv_diagram

    engine = _obtain_engine(args)
    if not _single_snapshot(engine, "render"):
        return 2
    if engine.index is None:
        print("error: render requires a UV-index backend (ic/icr/basic)",
              file=sys.stderr)
        return 2
    highlight = [int(oid) for oid in args.highlight.split(",") if oid] if args.highlight else []
    canvas = render_uv_diagram(
        engine,
        width=args.width,
        highlight_cells=highlight,
        title=f"UV-diagram ({args.dataset}, {len(engine)} objects)",
    )
    canvas.save(args.output)
    print(f"wrote {args.output} ({canvas.width}x{canvas.height})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UV-diagram: a Voronoi diagram for uncertain data (ICDE 2010 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command")

    info = subparsers.add_parser("info", help="show library information")
    info.set_defaults(handler=_command_info)

    build = subparsers.add_parser("build", help="build a query engine and print statistics")
    _add_dataset_arguments(build)
    build.add_argument("--save", default=None, metavar="SNAPSHOT",
                       help="persist the built diagram as a snapshot file")
    build.add_argument("--save-dir", default=None, metavar="DIR", dest="save_dir",
                       help="lay DIR out as a live deployment: generation-1 "
                            "snapshot + empty write-ahead log + manifest "
                            "(serve it, update it, checkpoint it)")
    build.set_defaults(handler=_command_build)

    query = subparsers.add_parser("query", help="run PNN queries over a built or loaded engine")
    _add_dataset_arguments(query)
    _add_load_arguments(query)
    _add_query_point_arguments(query)
    query.set_defaults(handler=_command_query)

    explain = subparsers.add_parser(
        "explain",
        help="plan a PNN query, run it, and report its page reads and timings")
    _add_dataset_arguments(explain)
    _add_load_arguments(explain)
    _add_query_point_arguments(explain)
    explain.set_defaults(handler=_command_explain)

    serve = subparsers.add_parser(
        "serve",
        help="serve a snapshot over HTTP with a pool of worker processes")
    serve.add_argument("--load", required=True, metavar="SNAPSHOT",
                       help="snapshot file -- or live deployment directory, "
                            "resolved through its manifest -- every worker "
                            "opens read-only")
    serve.add_argument("--load-store", default="mmap",
                       choices=["mmap", "file", "memory"],
                       help="page store the workers serve from (default: "
                            "mmap -- N processes share one set of pages)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes (default: 2)")
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    serve.add_argument("--port", type=int, default=8765,
                       help="HTTP port (0 picks a free one; default: 8765)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="per-worker in-flight budget before new requests "
                            "get HTTP 429 (default: 8)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="seconds before a queued request gets HTTP 504")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="per-client requests/second (0 = unlimited)")
    serve.add_argument("--rate-burst", type=int, default=20,
                       help="token-bucket burst capacity (default: 20)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to wait for in-flight work on shutdown")
    serve.add_argument("--buffer-pages", type=int, default=None,
                       help="buffer-pool override for the workers' engines")
    serve.add_argument("--reload-poll", type=float, default=0.0,
                       dest="reload_poll",
                       help="seconds between manifest checks when serving a "
                            "deployment directory; on a checkpoint the new "
                            "generation is rolled across the fleet without a "
                            "restart (0 = no watcher)")
    serve.set_defaults(handler=_command_serve)

    checkpoint = subparsers.add_parser(
        "checkpoint",
        help="fold a deployment's write-ahead log into a new snapshot "
             "generation and flip the manifest")
    checkpoint.add_argument("--dir", required=True, metavar="DIR",
                            help="live deployment directory (see "
                                 "`repro build --save-dir`)")
    checkpoint.add_argument("--load-store", default="file",
                            choices=["file", "mmap", "memory"],
                            help="store kind used to open the current "
                                 "generation (default: file)")
    checkpoint.add_argument("--min-records", type=int, default=1,
                            dest="min_records",
                            help="skip unless at least this many WAL records "
                                 "are pending (default: 1)")
    checkpoint.add_argument("--force", action="store_true",
                            help="checkpoint even below --min-records")
    checkpoint.add_argument("--status", action="store_true",
                            help="report the checkpointer's recorded status "
                                 "(generation, failures, quarantine) and exit")
    checkpoint.add_argument("--workers", type=int, default=None,
                            help="construction workers for the rebuild "
                                 "(default: the deployment's saved config)")
    checkpoint.set_defaults(handler=_command_checkpoint)

    shard_build = subparsers.add_parser(
        "shard-build",
        help="build a spatially-sharded deployment: one snapshot generation "
             "per shard behind a SHARDMAP manifest")
    _add_dataset_arguments(shard_build)
    shard_build.add_argument("--save-dir", required=True, metavar="DIR",
                             help="deployment directory to lay out (one live "
                                  "sub-directory per shard + SHARDMAP)")
    shard_build.add_argument("--shards", type=int, default=4,
                             help="spatial shard count (clamped so no shard "
                                  "is empty; default: 4)")
    shard_build.set_defaults(handler=_command_shard_build)

    rebalance = subparsers.add_parser(
        "rebalance",
        help="split / merge a sharded deployment's shards from observed "
             "statistics into a new epoch")
    rebalance.add_argument("--dir", required=True, metavar="DIR",
                           help="sharded deployment directory (has a SHARDMAP)")
    rebalance.add_argument("--shards", type=int, default=None,
                           help="explicit shard count for the new epoch "
                                "(default: derived from observed skew)")
    rebalance.add_argument("--max-skew", type=float, default=2.0,
                           dest="max_skew",
                           help="skew threshold driving the split / merge "
                                "decision (default: 2.0)")
    rebalance.add_argument("--dry-run", action="store_true", dest="dry_run",
                           help="print the plan without building anything")
    rebalance.add_argument("--prune", action="store_true",
                           help="remove the previous epoch's shard "
                                "directories after the flip")
    rebalance.set_defaults(handler=_command_rebalance)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the seeded chaos drill matrix (fault injection + "
             "corruption, asserting correct answers or structured errors)",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="drill seed (default 0; failures reproduce from it)")
    chaos.add_argument("--plans", default="smoke",
                       help="'smoke', 'all', or comma-separated drill names")
    chaos.add_argument("--report", default="",
                       help="write a JSON report of every drill to this path")
    chaos.add_argument("--workdir", default="",
                       help="scratch directory (default: a fresh temp dir)")
    chaos.add_argument("--list", action="store_true",
                       help="list the known drills and exit")
    chaos.set_defaults(handler=_command_chaos)

    wal_inspect = subparsers.add_parser(
        "wal-inspect",
        help="print a write-ahead log's records and torn-tail diagnostics")
    wal_inspect.add_argument("path", metavar="PATH",
                             help="a wal.log file or a deployment directory")
    wal_inspect.set_defaults(handler=_command_wal_inspect)

    subparsers.add_parser(
        "lint",
        help="run the project-invariant static analyzer",
        add_help=False,
    )

    render = subparsers.add_parser("render", help="render the UV-diagram to an SVG file")
    _add_dataset_arguments(render)
    _add_load_arguments(render)
    render.add_argument("--output", default="uv_diagram.svg", help="output SVG path")
    render.add_argument("--width", type=int, default=800, help="image width in pixels")
    render.add_argument("--highlight", default="",
                        help="comma-separated object ids whose UV-cells are shaded")
    render.set_defaults(handler=_command_render)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # Forwarded verbatim: the lint CLI owns its own flags (argparse's
        # REMAINDER cannot pass through leading `--options`).
        from repro.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 1
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
