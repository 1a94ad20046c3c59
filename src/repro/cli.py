"""Command-line entry point: ``python -m repro``.

Examples::

    python -m repro list
    python -m repro run figure1 --scale quick
    python -m repro run figure1 --scale quick --trace
    python -m repro run figure2 --scale paper --seed 3 --log-level info
    python -m repro run all --scale medium --trace-out results/trace.jsonl
    python -m repro serve --synopsis synopsis.npz --port 8177
    python -m repro query 0,3,5 1,9 --synopsis synopsis.npz
    python -m repro query 0,3,5 --url http://127.0.0.1:8177
    python -m repro store publish --store synopses/ adult synopsis.npz
    python -m repro store ls --store synopses/
    python -m repro store serve --store synopses/ --watch --watch-interval 0.5
    python -m repro store prune --store synopses/ --keep-last 24 --match "clicks*"
    python -m repro stream run clicks --store synopses/ --input events.jsonl \
        --num-attributes 32 --epsilon 1.0 --window-size 200000 --keep-last 24
    python -m repro stream status clicks --store synopses/
    python -m repro synth --synopsis synopsis.npz --out synthetic.csv --audit
    python -m repro synth --store synopses/ --dataset adult --out out.jsonl

``--trace`` prints, after each experiment's report, a nested
stage-timing tree, the pipeline counters, and a privacy-budget ledger
audit whose per-fit epsilon totals are checked against the configured
epsilon (see ``docs/OBSERVABILITY.md``).  ``run all`` keeps going past
a failing experiment, logs the failure, and exits non-zero at the end.
Every PriView fit in an experiment takes the one fit path: packed
marginal extraction and one seeded noise stream per view
(``docs/PERFORMANCE.md``), so ``run`` has no fit-tuning flags.

``serve`` exposes a saved synopsis over HTTP (``docs/SERVING.md``);
``query`` answers marginal queries against a saved synopsis file or a
running server; ``store`` manages a versioned synopsis registry —
publish, list, inspect, verify, garbage-collect, and serve every
published dataset from one process (``docs/STORE.md``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from repro import obs
from repro.core.reconstruction import RECONSTRUCTION_METHODS
from repro.experiments.config import SCALES
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.obs.exporters import JsonLinesExporter, render_summary
from repro.obs.log import LEVELS, configure_logging, get_logger


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of PriView (SIGMOD 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all"]
    )
    run_parser.add_argument(
        "--scale", choices=sorted(SCALES), default=None,
        help="protocol size (default: $REPRO_SCALE or quick)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--chart", action="store_true",
        help="append a log-scale ASCII chart per figure",
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="print a stage-timing tree and privacy-budget audit per experiment",
    )
    run_parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also write spans and summaries as JSON lines to PATH",
    )
    run_parser.add_argument(
        "--log-level", choices=LEVELS, default=None,
        help="logging verbosity on stderr (default: warning)",
    )

    def telemetry_flags(p):
        p.add_argument(
            "--trace-sample-rate", type=float, default=0.0, metavar="RATE",
            help="head-sampling probability for requests without a "
            "traceparent header (0 = ids only, no span tagging)",
        )
        p.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="append periodic JSON-lines metrics snapshots to PATH",
        )
        p.add_argument(
            "--metrics-interval", type=float, default=10.0, metavar="SECONDS",
            help="snapshot period for --metrics-out (default 10s)",
        )
        return p

    serve_parser = telemetry_flags(sub.add_parser(
        "serve", help="serve marginal queries from a saved synopsis over HTTP"
    ))
    serve_parser.add_argument(
        "--synopsis", required=True, metavar="PATH",
        help="synopsis .npz written by repro.core.serialization.save_synopsis",
    )
    serve_parser.add_argument("--host", default=None, help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=None, help="bind port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=None,
        help="answer-cache capacity (distinct marginals)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None, help="engine thread-pool width"
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds (504 past it)",
    )
    serve_parser.add_argument(
        "--recon-method", "--method", dest="method", default=None,
        choices=RECONSTRUCTION_METHODS,
        help="default reconstruction method for uncovered queries "
        "(default: maxent; `residual` is the closed-form ReM solver)",
    )
    serve_parser.add_argument(
        "--log-level", choices=LEVELS, default=None,
        help="logging verbosity on stderr (default: warning)",
    )

    query_parser = sub.add_parser(
        "query", help="answer marginal queries (local synopsis or server)"
    )
    query_parser.add_argument(
        "attrs", nargs="+", metavar="ATTRS",
        help="comma-separated attribute indices, e.g. 0,3,5",
    )
    source = query_parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--synopsis", metavar="PATH", help="answer from a saved synopsis file"
    )
    source.add_argument(
        "--url", metavar="URL", help="answer via a running `repro serve`"
    )
    query_parser.add_argument(
        "--recon-method", "--method", dest="method", default=None,
        choices=RECONSTRUCTION_METHODS,
        help="reconstruction method for uncovered queries (default: maxent)",
    )
    query_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print raw protocol payloads instead of tables",
    )
    query_parser.add_argument(
        "--log-level", choices=LEVELS, default=None,
        help="logging verbosity on stderr (default: warning)",
    )

    store_parser = sub.add_parser(
        "store", help="manage a versioned synopsis registry"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    def store_dir(p):
        p.add_argument(
            "--store", required=True, metavar="DIR",
            help="store root directory (created by publish if missing)",
        )
        p.add_argument(
            "--log-level", choices=LEVELS, default=None,
            help="logging verbosity on stderr (default: warning)",
        )
        return p

    publish = store_dir(store_sub.add_parser(
        "publish", help="publish a saved synopsis as the next version"
    ))
    publish.add_argument("name", help="dataset name (no '@')")
    publish.add_argument(
        "synopsis", metavar="PATH",
        help="synopsis .npz written by save_synopsis",
    )
    publish.add_argument(
        "--created-at", default=None, metavar="ISO8601",
        help="caller-supplied creation timestamp (default: now, UTC)",
    )
    publish.add_argument(
        "--fit-seconds", type=float, default=None,
        help="fit wall-time to record in the version metadata",
    )

    ls = store_dir(store_sub.add_parser(
        "ls", help="list published datasets and versions"
    ))
    ls.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable listing with raw byte counts",
    )

    info = store_dir(store_sub.add_parser(
        "info", help="describe one dataset (or name@version)"
    ))
    info.add_argument("spec", help="name, name@latest or name@N")

    verify = store_dir(store_sub.add_parser(
        "verify", help="checksum every referenced artifact"
    ))
    verify.add_argument(
        "--quarantine", action="store_true",
        help="move corrupt artifacts to quarantine/ instead of only reporting",
    )

    gc = store_dir(store_sub.add_parser(
        "gc", help="sweep unreferenced objects and stale temp files"
    ))
    gc.add_argument(
        "--tmp-age", type=float, default=None, metavar="SECONDS",
        help="minimum age before a .tmp-* leftover is swept (default 3600)",
    )

    prune = store_dir(store_sub.add_parser(
        "prune", help="drop old versions (streaming retention)"
    ))
    prune.add_argument(
        "name", nargs="?", default=None,
        help="dataset to prune (omit when using --match)",
    )
    prune.add_argument(
        "--keep-last", type=int, required=True, metavar="N",
        help="newest versions kept per dataset (pinned always survive)",
    )
    prune.add_argument(
        "--match", default=None, metavar="GLOB",
        help="prune every dataset matching this glob instead of one name",
    )
    prune.add_argument(
        "--gc", action="store_true", dest="run_gc",
        help="sweep the dropped objects immediately after pruning",
    )

    store_serve = telemetry_flags(store_dir(store_sub.add_parser(
        "serve", help="serve every published dataset over HTTP"
    )))
    store_serve.add_argument("--host", default=None, help="bind address")
    store_serve.add_argument(
        "--port", type=int, default=None, help="bind port (0 = ephemeral)"
    )
    store_serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds (504 past it)",
    )
    store_serve.add_argument(
        "--max-engines", type=int, default=None,
        help="datasets kept hot at once (LRU beyond this)",
    )
    store_serve.add_argument(
        "--watch", action="store_true",
        help="hot-swap newly published versions automatically "
        "(poll the manifest mtime; /v1/reload also works)",
    )
    store_serve.add_argument(
        "--watch-interval", type=float, default=0.0, metavar="SECONDS",
        help="minimum seconds between --watch manifest polls "
        "(0 = poll on every request; raise to bound stat() traffic "
        "at the cost of publish-visibility latency)",
    )
    store_serve.add_argument(
        "--cache-size", type=int, default=None,
        help="per-engine answer-cache capacity",
    )
    store_serve.add_argument(
        "--workers", type=int, default=None,
        help="per-engine thread-pool width",
    )
    store_serve.add_argument(
        "--recon-method", "--method", dest="method", default=None,
        choices=RECONSTRUCTION_METHODS,
        help="default reconstruction method for uncovered queries "
        "(default: maxent; `residual` is the closed-form ReM solver)",
    )

    stream_parser = sub.add_parser(
        "stream", help="continuous ingestion with windowed DP releases"
    )
    stream_sub = stream_parser.add_subparsers(
        dest="stream_command", required=True
    )

    stream_run = store_dir(stream_sub.add_parser(
        "run",
        help="ingest JSON-lines events, release one synopsis per window",
    ))
    stream_run.add_argument("dataset", help="store dataset name (no '@')")
    stream_run.add_argument(
        "--input", required=True, metavar="PATH",
        help="JSON-lines events ('-' for stdin); each line an item "
        "array or {\"items\": [...], \"ts\": ...}",
    )
    stream_run.add_argument(
        "--num-attributes", type=int, required=True, metavar="D",
        help="binary domain width (item ids outside range are ignored)",
    )
    stream_run.add_argument(
        "--epsilon", type=float, required=True,
        help="per-window epsilon; disjoint windows compose in "
        "parallel, so the whole stream costs this much",
    )
    window = stream_run.add_mutually_exclusive_group(required=True)
    window.add_argument(
        "--window-size", type=int, metavar="N",
        help="count-based tumbling windows of N events",
    )
    window.add_argument(
        "--window-seconds", type=float, metavar="W",
        help="event-time tumbling windows of W seconds (needs ts)",
    )
    stream_run.add_argument(
        "--lateness", type=float, default=0.0, metavar="SECONDS",
        help="watermark lag for --window-seconds; events older than "
        "the watermark's closed horizon are counted and dropped",
    )
    stream_run.add_argument(
        "--origin", type=float, default=0.0, metavar="T0",
        help="epoch the --window-seconds grid is anchored at",
    )
    stream_run.add_argument(
        "--keep-last", type=int, default=None, metavar="K",
        help="prune the dataset to its newest K versions after "
        "each publish (retention; pinned versions survive)",
    )
    stream_run.add_argument("--seed", type=int, default=0)
    stream_run.add_argument(
        "--view-width", type=int, default=None, metavar="W",
        help="covering-design view width (default 8, capped at D)",
    )
    stream_run.add_argument(
        "--audit", action="store_true",
        help="print the parallel-composition budget audit after the run",
    )

    stream_status = store_dir(stream_sub.add_parser(
        "status", help="list the released windows of a dataset"
    ))
    stream_status.add_argument("dataset")
    stream_status.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable window listing",
    )

    synth_parser = sub.add_parser(
        "synth",
        help="generate record-level synthetic data from a synopsis "
        "(pure post-processing: zero additional privacy budget)",
    )
    synth_source = synth_parser.add_mutually_exclusive_group(required=True)
    synth_source.add_argument(
        "--synopsis", metavar="PATH",
        help="synopsis .npz written by save_synopsis",
    )
    synth_source.add_argument(
        "--store", metavar="DIR", help="synthesize from a store dataset"
    )
    synth_parser.add_argument(
        "--dataset", metavar="SPEC", default=None,
        help="dataset spec for --store (name, name@latest or name@N)",
    )
    synth_parser.add_argument(
        "--records", type=int, default=None, metavar="N",
        help="population size (default: the synopsis's total count)",
    )
    synth_parser.add_argument(
        "--rounds", type=int, default=30,
        help="gradual-update rounds (default 30)",
    )
    synth_parser.add_argument("--seed", type=int, default=0)
    synth_parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the population to PATH (.csv or .jsonl by extension)",
    )
    synth_parser.add_argument(
        "--codes", action="store_true",
        help="export raw integer codes instead of decoded values",
    )
    synth_parser.add_argument(
        "--audit", action="store_true",
        help="print the privacy-ledger audit proving zero spend",
    )
    synth_parser.add_argument(
        "--log-level", choices=LEVELS, default=None,
        help="logging verbosity on stderr (default: warning)",
    )

    obs_parser = sub.add_parser("obs", help="telemetry utilities")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    dump = obs_sub.add_parser(
        "dump", help="dump metrics as Prometheus exposition text"
    )
    dump_source = dump.add_mutually_exclusive_group(required=True)
    dump_source.add_argument(
        "--url", metavar="URL",
        help="scrape GET /metrics from a running server",
    )
    dump_source.add_argument(
        "--snapshots", metavar="PATH",
        help="render the newest snapshot in a --metrics-out JSON-lines file",
    )
    dump.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print parsed metric families as JSON instead of text",
    )
    dump.add_argument(
        "--log-level", choices=LEVELS, default=None,
        help="logging verbosity on stderr (default: warning)",
    )
    return parser


def _parse_attr_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise SystemExit(
            f"error: bad attribute list {text!r} "
            "(expected comma-separated integers, e.g. 0,3,5)"
        )


def _human_bytes(n) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024


def _render_answer(payload: dict) -> str:
    source = payload.get("source")
    origin = f" from {tuple(source)}" if source else ""
    lines = [
        f"marginal {tuple(payload['attrs'])}  "
        f"path={payload['path']}{origin}  cached={payload['cached']}  "
        f"{payload['elapsed_ms']:.3f}ms  total={payload['total']:.6g}"
    ]
    counts = payload["counts"]
    k = payload["k"]
    for cell, count in enumerate(counts):
        bits = "".join(str((cell >> j) & 1) for j in range(k)) if k else "-"
        lines.append(f"  [{bits}] {count:14.4f}")
    return "\n".join(lines)


def _cmd_serve(args) -> int:
    from repro.serve import server as serve_server
    from repro.serve.server import serve_source

    log = get_logger("cli")
    engine_kwargs = {}
    if args.cache_size is not None:
        engine_kwargs["cache_size"] = args.cache_size
    if args.workers is not None:
        engine_kwargs["workers"] = args.workers
    if args.method is not None:
        engine_kwargs["default_method"] = args.method
    server = serve_source(
        args.synopsis,
        host=args.host if args.host is not None else serve_server.DEFAULT_HOST,
        port=args.port if args.port is not None else serve_server.DEFAULT_PORT,
        request_timeout=(
            args.timeout if args.timeout is not None
            else serve_server.DEFAULT_REQUEST_TIMEOUT
        ),
        trace_sample_rate=args.trace_sample_rate,
        metrics_out=args.metrics_out,
        metrics_interval_s=args.metrics_interval,
        **engine_kwargs,
    )
    stats = server.engine.stats()["synopsis"]
    print(
        f"serving {stats['design']} (d={stats['num_attributes']}, "
        f"epsilon={stats['epsilon']}, views={stats['views']}) on {server.url}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("interrupted; shutting down")
    finally:
        server.shutdown()
        paths = server.engine.stats()["paths"]
        print(f"served paths: {paths}")
    return 0


def _cmd_query(args) -> int:
    import json as _json

    queries = [_parse_attr_list(text) for text in args.attrs]
    if args.url:
        from repro.serve.client import QueryClient

        with QueryClient(args.url) as client:
            payloads = client.batch(queries, method=args.method)["answers"]
    else:
        from repro.core.serialization import load_synopsis
        from repro.serve.engine import QueryEngine
        from repro.serve.protocol import encode_answer

        with QueryEngine(load_synopsis(args.synopsis)) as engine:
            payloads = [
                encode_answer(answer)
                for answer in engine.answer_batch(queries, method=args.method)
            ]
    for payload in payloads:
        if args.as_json:
            print(_json.dumps(payload, sort_keys=True))
        else:
            print(_render_answer(payload))
    return 0


def _cmd_store(args) -> int:
    import json as _json

    from repro.store import SynopsisStore

    if args.store_command == "publish":
        store = SynopsisStore(args.store)
        info = store.publish(
            args.name,
            args.synopsis,
            created_at=args.created_at,
            fit_seconds=args.fit_seconds,
        )
        print(
            f"published {info.spec}  sha256={info.sha256[:12]}…  "
            f"{info.size_bytes} bytes  (epsilon={info.epsilon}, "
            f"d={info.num_attributes}, design={info.design})"
        )
        return 0

    store = SynopsisStore(args.store, create=False)
    if args.store_command == "ls":
        entries = store.entries()
        stats = store.stats()
        if args.as_json:
            from dataclasses import asdict

            payload = {
                "datasets": [
                    {
                        "name": entry.name,
                        "serving": entry.default.version,
                        "pinned": entry.pinned,
                        "versions": [asdict(v) for v in entry.versions],
                    }
                    for entry in entries
                ],
                "stats": stats,
            }
            print(_json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if not entries:
            print("(empty store)")
        for entry in entries:
            default = entry.default
            pin = f"  pinned@{entry.pinned}" if entry.pinned is not None else ""
            created = (
                f"  created {default.created_at}" if default.created_at else ""
            )
            print(
                f"{entry.name:24s} {len(entry.versions)} version(s), "
                f"serving v{default.version} "
                f"(epsilon={default.epsilon}, d={default.num_attributes}, "
                f"design={default.design}, "
                f"{_human_bytes(default.size_bytes)})"
                f"{created}{pin}"
            )
        print(
            f"total: {stats['datasets']} dataset(s), {stats['entries']} "
            f"version(s), {_human_bytes(stats['bytes'])}"
        )
        return 0
    if args.store_command == "info":
        print(_json.dumps(store.info(args.spec), indent=2, sort_keys=True))
        return 0
    if args.store_command == "verify":
        report = store.verify(quarantine=args.quarantine)
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["clean"] else 1
    if args.store_command == "gc":
        kwargs = {} if args.tmp_age is None else {"tmp_age_s": args.tmp_age}
        print(_json.dumps(store.gc(**kwargs), indent=2, sort_keys=True))
        return 0
    if args.store_command == "prune":
        if (args.name is None) == (args.match is None):
            raise SystemExit(
                "error: pass exactly one of a dataset name or --match GLOB"
            )
        if args.match is not None:
            dropped = store.prune_matching(
                args.match, keep_last=args.keep_last
            )
        else:
            gone = store.prune(args.name, keep_last=args.keep_last)
            dropped = {args.name: gone} if gone else {}
        for name, versions in sorted(dropped.items()):
            specs = ", ".join(f"v{v.version}" for v in versions)
            print(f"{name}: dropped {len(versions)} version(s) ({specs})")
        if not dropped:
            print("nothing to prune")
        if args.run_gc:
            report = store.gc(tmp_age_s=0.0)
            print(
                f"gc: removed {len(report['removed_objects'])} object(s), "
                f"reclaimed {_human_bytes(report['reclaimed_bytes'])}"
            )
        return 0

    # store serve
    from repro.serve import server as serve_server
    from repro.serve.server import serve_store

    log = get_logger("cli")
    engine_kwargs = {}
    if args.cache_size is not None:
        engine_kwargs["cache_size"] = args.cache_size
    if args.workers is not None:
        engine_kwargs["workers"] = args.workers
    if args.method is not None:
        engine_kwargs["default_method"] = args.method
    server = serve_store(
        store,
        host=args.host if args.host is not None else serve_server.DEFAULT_HOST,
        port=args.port if args.port is not None else serve_server.DEFAULT_PORT,
        request_timeout=(
            args.timeout if args.timeout is not None
            else serve_server.DEFAULT_REQUEST_TIMEOUT
        ),
        max_engines=args.max_engines,
        watch=args.watch,
        watch_interval=args.watch_interval,
        trace_sample_rate=args.trace_sample_rate,
        metrics_out=args.metrics_out,
        metrics_interval_s=args.metrics_interval,
        **engine_kwargs,
    )
    stats = store.stats()
    print(
        f"serving store {stats['root']} ({stats['datasets']} dataset(s), "
        f"{stats['entries']} version(s)) on {server.url}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("interrupted; shutting down")
    finally:
        server.shutdown()
    return 0


def _cmd_stream(args) -> int:
    import json as _json

    from repro.store import SynopsisStore

    if args.stream_command == "status":
        from repro.stream.query import list_windows

        store = SynopsisStore(args.store, create=False)
        windows = list_windows(store, args.dataset)
        if args.as_json:
            print(_json.dumps(
                {"dataset": args.dataset, "windows": windows},
                indent=2, sort_keys=True,
            ))
            return 0
        if not windows:
            print(f"{args.dataset}: no released windows")
            return 0
        for w in windows:
            print(
                f"window {w['index']:>4d}  v{w['version']:<4d} "
                f"[{w['start']:g}, {w['end']:g})  "
                f"{w.get('records', '?')} record(s)  "
                f"epsilon={w.get('epsilon')}"
            )
        print(f"total: {len(windows)} window(s)")
        return 0

    # stream run
    from repro.stream import (
        BudgetSchedule,
        CountWindowPolicy,
        TimeWindowPolicy,
        WindowScheduler,
        read_jsonl_events,
    )

    if args.window_size is not None:
        policy = CountWindowPolicy(args.window_size)
    else:
        policy = TimeWindowPolicy(
            args.window_seconds, lateness=args.lateness, origin=args.origin
        )
    if args.input == "-":
        events = (_json.loads(line) for line in sys.stdin if line.strip())
    else:
        events = read_jsonl_events(args.input)
    store = SynopsisStore(args.store)
    scheduler_kwargs = {}
    if args.view_width is not None:
        scheduler_kwargs["view_width"] = args.view_width
    scheduler = WindowScheduler(
        store,
        args.dataset,
        args.num_attributes,
        BudgetSchedule(args.epsilon),
        policy,
        keep_last=args.keep_last,
        seed=args.seed,
        **scheduler_kwargs,
    )

    def on_release(record):
        print(
            f"released window {record.index} as "
            f"{args.dataset}@{record.version}  "
            f"[{record.start:g}, {record.end:g})  "
            f"{record.records} record(s)  epsilon={record.epsilon}  "
            f"fit {record.fit_seconds:.3f}s"
        )

    with obs.session(trace=False) as sess:
        released = scheduler.run(events, on_release=on_release)
        sess.ledger.check()
        late = getattr(policy, "late_events", 0)
        print(
            f"{len(released)} window(s) released, "
            f"{sum(r.records for r in released)} record(s) ingested, "
            f"{late} late event(s) dropped"
        )
        print(
            f"budget audit: OK — parallel composition over "
            f"{len(released)} disjoint window(s) spent "
            f"{sess.ledger.total_spent():g} "
            f"(configured {scheduler.schedule.configured:g} per window)"
        )
        if args.audit:
            print(_json.dumps(sess.ledger.to_dicts(), indent=2))
    return 0


def _cmd_synth(args) -> int:
    if args.synopsis is not None:
        from repro.core.serialization import load_synopsis

        synopsis = load_synopsis(args.synopsis)
        origin = args.synopsis
    else:
        if args.dataset is None:
            raise SystemExit("error: --store needs --dataset SPEC")
        from repro.store import SynopsisStore

        store = SynopsisStore(args.store, create=False)
        synopsis = store.get(args.dataset)
        origin = f"{args.store}:{args.dataset}"

    from repro.exceptions import SynthesisError
    from repro.synth import Synthesizer

    with obs.session(trace=False) as sess:
        try:
            records = Synthesizer(rounds=args.rounds, seed=args.seed).fit(
                synopsis, num_records=args.records
            )
        except SynthesisError as exc:
            raise SystemExit(f"error: {exc}")
        audit = sess.ledger.audit()
    meta = records.meta
    print(
        f"synthesized {records.num_records} record(s) over "
        f"{records.num_attributes} attribute(s) from {origin}  "
        f"(epsilon={meta.get('epsilon')}, rounds={meta.get('rounds')}, "
        f"mean L1 {meta.get('final_l1'):.6g})"
    )
    if args.audit:
        for row in audit:
            print(
                f"  ledger: {row.name}  configured={row.configured:g}  "
                f"spent={row.spent_max:g}  status={row.status}"
            )
        print("  synthesis spent zero additional epsilon (post-processing)")
    if args.out:
        out = args.out
        if out.endswith(".jsonl"):
            path = records.to_jsonl(out, decode=not args.codes)
        else:
            path = records.to_csv(out, decode=not args.codes)
        print(f"wrote {path}")
    return 0


def _cmd_obs(args) -> int:
    import json as _json

    from repro.obs.prometheus import parse_prometheus, render_prometheus

    if args.url:
        from repro.serve.client import QueryClient

        with QueryClient(args.url) as client:
            text = client.metrics()
    else:
        from repro.obs.exporters import read_metrics_snapshots

        snapshots = read_metrics_snapshots(args.snapshots)
        if not snapshots:
            print(f"no metrics snapshots in {args.snapshots}", file=sys.stderr)
            return 1
        text = render_prometheus(snapshots[-1])
    if args.as_json:
        families = parse_prometheus(text)
        payload = {
            name: {
                "type": family["type"],
                "samples": [
                    {"name": n, "labels": labels, "value": value}
                    for n, labels, value in family["samples"]
                ],
            }
            for name, family in families.items()
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    configure_logging(args.log_level)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command == "obs":
        return _cmd_obs(args)
    log = get_logger("cli")
    targets = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    run_all = args.experiment == "all"
    tracing = args.trace or args.trace_out is not None
    jsonl = JsonLinesExporter(args.trace_out) if args.trace_out else None

    failures: list[str] = []
    for experiment_id in targets:
        # One observability session per experiment keeps the trace trees
        # and budget scopes attributable to a single report.
        context = (
            obs.session(exporters=[jsonl] if jsonl else [])
            if tracing
            else nullcontext(None)
        )
        try:
            with context as sess:
                report = run_experiment(
                    experiment_id,
                    scale=args.scale,
                    seed=args.seed,
                    chart=args.chart,
                )
        except Exception:
            if not run_all:
                raise
            log.exception("experiment %s failed; continuing with the rest", experiment_id)
            failures.append(experiment_id)
            continue
        print(report)
        if sess is not None and args.trace:
            print()
            print(render_summary(sess))
        print()

    if failures:
        log.error(
            "%d of %d experiments failed: %s",
            len(failures), len(targets), ", ".join(failures),
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
