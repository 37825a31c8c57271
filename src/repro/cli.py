"""Command-line interface: run GraphQL queries and pattern matches.

Usage examples::

    repro-gql info data.gql
    repro-gql match data.gql --pattern query.gql [--baseline]
    repro-gql match data.gql --pattern query.gql --timeout 1 --max-steps 100000
    repro-gql match data.gql --pattern query.gql --json --trace-out spans.jsonl
    repro-gql explain data.gql --pattern query.gql [--analyze] [--json]
    repro-gql run program.gql --doc DBLP=papers.gql --out result.gql
    repro-gql serve data.gql --port 7687 --workers 4
    repro-gql serve data.gql --port 0 --metrics-port 9090
    repro-gql serve data.gql --store state.db --fsync commit
    repro-gql serve --store state.db --port 0      # resume from the store
    repro-gql stats --port 7687 --format prometheus
    repro-gql recover state.db --json
    repro-gql checkpoint state.db
    repro-gql cluster serve --shards 3
    repro-gql cluster route --endpoints 127.0.0.1:7687,127.0.0.1:7688 \
        --pattern query.gql --json
    repro-gql cluster status --state cluster.json

Files use the GraphQL concrete syntax (see ``repro.storage.serializer``);
a data file holds one or more ``graph`` declarations.

``serve`` takes sizing and placement flags only: the breaker policy
is a pair of constants of :mod:`repro.service.service`, and a served
request's one deadline is its ``ExecutionContext``.
``cluster serve`` splits ``molecule_collection(48, seed=97)``
(:data:`CLUSTER_MOLECULES`, :data:`CLUSTER_SEED`) over its shards.

Exit codes reflect the governance outcome: ``COMPLETE`` and ``TRUNCATED``
runs exit 0 (partial results under a cap are valid answers, like the
paper's 1000-answer termination rule), ``TIMED_OUT`` exits 3 and
``CANCELLED`` exits 4.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading
from pathlib import Path
from typing import Iterator, List, Optional

from .core import Graph, GraphCollection
from .lang import compile_pattern_text
from .matching import baseline_options, optimized_options
from .runtime import ExecutionContext, Outcome
from .storage import GraphDatabase, graph_to_text, load_collection
from .storage.serializer import atomic_write_text

#: The synthetic collection ``cluster serve`` splits over its shards:
#: ``molecule_collection(CLUSTER_MOLECULES, seed=CLUSTER_SEED)``.
CLUSTER_MOLECULES = 48
CLUSTER_SEED = 97

#: Outcome -> process exit code (partial-but-valid results still exit 0).
EXIT_BY_OUTCOME = {
    Outcome.COMPLETE: 0,
    Outcome.TRUNCATED: 0,
    Outcome.TIMED_OUT: 3,
    Outcome.CANCELLED: 4,
    Outcome.REJECTED: 5,
    Outcome.SHED: 5,  # like REJECTED: the service turned the work away
    Outcome.PARTIAL: 6,  # some shards never answered: rows are incomplete
}


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1 (an answer cap of 0
    would still report one mapping, so it is refused)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--directed", action="store_true",
                        help="treat data graphs as directed")


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="enable tracing and append one JSON line per "
                             "finished span to PATH (see "
                             "docs/observability.md)")


@contextlib.contextmanager
def _tracing_to(path: Optional[str]) -> Iterator[None]:
    """Tracing enabled with a JSONL sink at *path* for the block.

    With ``path=None`` this is a no-op (tracing stays disabled and the
    matcher instrumentation stays on its zero-cost path).
    """
    if not path:
        yield
        return
    from .obs.trace import JsonlSink, tracer

    sink = JsonlSink(path)
    try:
        with tracer().session(sink):
            yield
    finally:
        sink.close()


def _add_governance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="wall-clock deadline; partial results are "
                             "returned when it expires")
    parser.add_argument("--max-steps", type=int, default=None, metavar="N",
                        help="budget on search steps (candidate extensions, "
                             "derived facts)")
    parser.add_argument("--max-memory", type=int, default=None, metavar="BYTES",
                        help="approximate cap on retained result memory")


def build_parser() -> argparse.ArgumentParser:
    """Build the repro-gql argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-gql",
        description="GraphQL (He & Singh, SIGMOD 2008) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="summarize a data file")
    info.add_argument("data", help="GraphQL data file")
    _add_common(info)

    match = sub.add_parser("match", help="match a pattern against a data file")
    match.add_argument("data", help="GraphQL data file")
    match.add_argument("--pattern", required=True,
                       help="file containing one graph pattern")
    match.add_argument("--baseline", action="store_true",
                       help="disable the optimized access methods")
    match.add_argument("--limit", type=_positive_int, default=1000,
                       help="answer cap (default 1000, as in the paper); "
                            "enforced inside the search, so hitting it "
                            "terminates early with a TRUNCATED outcome")
    match.add_argument("--show-mappings", type=int, default=5,
                       help="how many mappings to print per graph")
    match.add_argument("--json", action="store_true",
                       help="emit one JSON document (mappings + outcome + "
                            "per-stage counts and timings, the "
                            "wire-protocol serialization)")
    _add_governance(match)
    _add_common(match)
    _add_trace(match)

    explain = sub.add_parser(
        "explain",
        help="show the access plan for a pattern (EXPLAIN [ANALYZE])",
    )
    explain.add_argument("data", help="GraphQL data file")
    explain.add_argument("--pattern", required=True,
                         help="file containing one graph pattern")
    explain.add_argument("--baseline", action="store_true",
                         help="explain the unoptimized access path")
    explain.add_argument("--analyze", action="store_true",
                         help="also run the query and report actual "
                              "counts, per-phase timings and the outcome")
    explain.add_argument("--json", action="store_true",
                         help="emit the explain document as JSON (the "
                              "same shape the service 'explain' op "
                              "returns)")
    explain.add_argument("--limit", type=_positive_int, default=1000,
                         help="answer cap for --analyze (default 1000)")
    _add_governance(explain)
    _add_common(explain)

    check = sub.add_parser(
        "check",
        help="statically analyze queries without running them",
    )
    check.add_argument("files", nargs="+", metavar="FILE",
                       help="GraphQL program or pattern files")
    check.add_argument("--strict", action="store_true",
                       help="treat warnings as errors (hints never fail)")
    check.add_argument("--json", action="store_true",
                       help="emit diagnostics as one JSON document")
    check.add_argument("--schema-from", default=None, metavar="DATA",
                       help="infer an observed schema from this data file "
                            "and enable schema-aware checks (unknown "
                            "attributes, tags, type confusion)")
    _add_common(check)

    run = sub.add_parser("run", help="run a GraphQL program")
    run.add_argument("program", help="GraphQL program file")
    run.add_argument("--doc", action="append", default=[],
                     metavar="NAME=PATH",
                     help="bind doc(NAME) to a data file (repeatable)")
    run.add_argument("--out", help="write the result graph/collection here")
    run.add_argument("--json", action="store_true",
                     help="emit one JSON document (result text + outcome)")
    _add_governance(run)
    _add_common(run)
    _add_trace(run)

    serve = sub.add_parser(
        "serve",
        help="serve queries over TCP (newline-delimited JSON protocol)",
    )
    serve.add_argument("data", nargs="?", default=None,
                       help="GraphQL data file to serve as document 'data'")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7687,
                       help="TCP port (0 picks a free one; the bound "
                            "address is printed on startup)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="admitted requests that may wait beyond the "
                            "running ones; more are REJECTED")
    serve.add_argument("--per-client", type=int, default=8,
                       help="per-client in-flight quota")
    serve.add_argument("--timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="default per-query deadline (requests may "
                            "tighten, never exceed it)")
    serve.add_argument("--limit", type=_positive_int, default=1000,
                       help="default per-query answer cap")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="durable store file (one log): opening it "
                            "is recovery, registrations are "
                            "write-through durable, shutdown compacts "
                            "it; with no data file the stored documents "
                            "are served as-is")
    serve.add_argument("--fsync", default="commit",
                       choices=("commit", "never"),
                       help="fsync policy for --store: every commit "
                            "(default) or never")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="expose Prometheus metrics over plain HTTP "
                            "on this port (0 picks a free one; GET "
                            "/metrics for the text exposition, /stats "
                            "for JSON)")
    _add_common(serve)
    _add_trace(serve)

    stats = sub.add_parser(
        "stats",
        help="fetch a running server's metrics over the wire protocol",
    )
    stats.add_argument("--host", default="127.0.0.1",
                       help="server address (default 127.0.0.1)")
    stats.add_argument("--port", type=int, default=7687,
                       help="server port (default 7687)")
    stats.add_argument("--format", default="json",
                       choices=("json", "prometheus"),
                       help="json snapshot (default) or the Prometheus "
                            "text exposition")

    recover_cmd = sub.add_parser(
        "recover",
        help="open a store file (cutting a torn tail) and report",
    )
    recover_cmd.add_argument("store", help="store file")
    recover_cmd.add_argument("--json", action="store_true",
                             help="emit the recovery report as JSON")

    checkpoint_cmd = sub.add_parser(
        "checkpoint",
        help="open a store and compact it to one snapshot frame",
    )
    checkpoint_cmd.add_argument("store", help="store file")
    checkpoint_cmd.add_argument("--json", action="store_true",
                                help="emit the checkpoint report as JSON")

    cluster = sub.add_parser(
        "cluster",
        help="sharded serving: boot local shards, route scatter-gather "
             "queries, probe shard status",
    )
    csub = cluster.add_subparsers(dest="cluster_command", required=True)

    cserve = csub.add_parser(
        "serve",
        help="split a seeded collection over N local shard servers "
             "(ephemeral ports) and keep them up until SIGINT/SIGTERM",
    )
    cserve.add_argument("--shards", type=int, default=3,
                        help="shard servers to launch (default 3)")
    cserve.add_argument("--workers", type=int, default=2,
                        help="worker threads per shard")
    cserve.add_argument("--timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="per-shard default query deadline")
    cserve.add_argument("--replication", type=int, default=1,
                        metavar="R",
                        help="replicas per slice (R >= 2 enables "
                             "failover serving; default 1)")
    cserve.add_argument("--supervise", action="store_true",
                        help="restart dead shards from their stores "
                             "(exponential backoff, restart budget)")
    cserve.add_argument("--state", default=None, metavar="PATH",
                        help="write a JSON cluster-state file here "
                             "(read by 'cluster status'), refreshed "
                             "while serving")

    croute = csub.add_parser(
        "route",
        help="fan one pattern query out to shard endpoints and merge",
    )
    croute.add_argument("--endpoints", required=True,
                        help="comma-separated shard endpoints "
                             "(host:port,host:port,...)")
    group = croute.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", metavar="PATH",
                       help="file holding the pattern query")
    group.add_argument("--query", metavar="TEXT",
                       help="the pattern query inline")
    croute.add_argument("--document", default="data",
                        help="document name on the shards (default data)")
    croute.add_argument("--limit", type=_positive_int, default=1000,
                        help="global answer cap across all shards")
    croute.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="overall fan-out deadline")
    croute.add_argument("--json", action="store_true",
                        help="emit rows + outcome + per-shard "
                             "accounting as JSON")
    _add_trace(croute)

    cstatus = csub.add_parser(
        "status",
        help="one line per shard: endpoint, alive/ready, breaker "
             "states, restart count",
    )
    cstatus.add_argument("--state", required=True, metavar="PATH",
                         help="cluster-state file written by "
                              "'cluster serve --state'")
    cstatus.add_argument("--json", action="store_true",
                         help="emit the full merged status as JSON")

    return parser


def cmd_info(args: argparse.Namespace) -> int:
    """``repro-gql info``: summarize a data file."""
    collection = load_collection(args.data, directed=args.directed)
    print(f"{args.data}: {len(collection)} graph(s)")
    for graph in collection:
        labels = {node.label for node in graph.nodes() if node.label}
        print(f"  {graph.name or '<anon>'}: {graph.num_nodes()} nodes, "
              f"{graph.num_edges()} edges, {len(labels)} labels")
    return 0


def _match_setup(args: argparse.Namespace):
    """What ``match`` and ``explain`` share: the data file registered as
    document ``data``, the pattern text, planner options and a context."""
    database = GraphDatabase()
    database.load("data", args.data, directed=args.directed)
    pattern_text = Path(args.pattern).read_text(encoding="utf-8")
    options = (baseline_options(limit=args.limit) if args.baseline
               else optimized_options(limit=args.limit))
    context = ExecutionContext(
        timeout=args.timeout,
        max_steps=args.max_steps,
        max_memory=args.max_memory,
    )
    return database, pattern_text, options, context


def cmd_match(args: argparse.Namespace) -> int:
    """``repro-gql match``: match a pattern over a data file."""
    database, pattern_text, options, context = _match_setup(args)
    pattern = compile_pattern_text(pattern_text)
    with _tracing_to(args.trace_out):
        reports = database.match("data", pattern, options, context=context)
    if args.json:
        from .service.protocol import AnswerRows

        overall = context.outcome()
        document = {
            "graphs": {
                name: {
                    "mappings": list(AnswerRows(
                        block._replace(graph=name)
                        for block in report.mappings.blocks)),
                    "outcome": report.outcome.to_dict(),
                    "degradation": list(report.degradation),
                    "stages": report.stats_dict(),
                }
                for name, report in reports.items()
            },
            "total": sum(len(r.mappings) for r in reports.values()),
            "outcome": overall.to_dict(),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return EXIT_BY_OUTCOME[overall.status]
    total = 0
    for name, report in reports.items():
        count = len(report.mappings)
        total += count
        print(f"{name}: {count} mapping(s) in {report.total_time * 1000:.1f} ms "
              f"(space {report.baseline_space} -> {report.refined_space})")
        for note in report.degradation:
            print(f"  degraded: {note}")
        if report.outcome.interrupted:
            print(f"  outcome: {report.outcome}")
        for mapping in report.mappings[:args.show_mappings]:
            print(f"  {mapping}")
        if count > args.show_mappings:
            print(f"  ... and {count - args.show_mappings} more")
    overall = context.outcome()
    print(f"total: {total} mapping(s) [{overall}]")
    return EXIT_BY_OUTCOME[overall.status]


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro-gql explain``: the access plan, EXPLAIN [ANALYZE] style.

    Prints, per graph and pattern node, the retrieval method the planner
    chose (attribute index / label index / scan), the statistics-based
    candidate estimate next to the actual feasible-mate, pruned and
    refined counts, and the selected search order with its cost-model
    estimates.  ``--analyze`` additionally runs the query and attaches
    per-phase timings, search counters and the governance outcome.
    """
    from .obs.explain import explain_query, render_text

    database, pattern_text, options, context = _match_setup(args)
    if not args.analyze:
        context = None
    document = explain_query(database, "data", pattern_text, options,
                             analyze=args.analyze, context=context)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_text(document))
    if context is not None:
        return EXIT_BY_OUTCOME[context.outcome().status]
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``repro-gql check``: static analysis, no execution.

    Exit codes: 0 — no errors (warnings and hints may exist); 1 — at
    least one error-severity finding (with ``--strict``, warnings count);
    2 — a file could not be read.
    """
    from .analysis import (
        analyze_pattern_text,
        analyze_text,
        has_errors,
        infer_schema,
        promote_warnings,
    )
    from .lang.errors import GraphQLSyntaxError
    from .lang.parser import parse_program

    schema = None
    if args.schema_from:
        schema = infer_schema(
            load_collection(args.schema_from, directed=args.directed))

    failed = False
    report = {}
    for name in args.files:
        text = Path(name).read_text(encoding="utf-8")
        # a file holding one bare pattern (the match/explain input
        # format) need not be `;`-terminated like a program statement:
        # analyze it as a program when it parses as one, as a single
        # pattern otherwise
        try:
            parse_program(text)
            diagnostics = analyze_text(text, schema)
        except GraphQLSyntaxError:
            diagnostics = analyze_pattern_text(text, schema)
        if args.strict:
            diagnostics = promote_warnings(diagnostics)
        report[name] = diagnostics
        failed = failed or has_errors(diagnostics)

    if args.json:
        print(json.dumps(
            {
                "ok": not failed,
                "files": {
                    name: [d.to_dict() for d in diagnostics]
                    for name, diagnostics in report.items()
                },
            },
            indent=2, sort_keys=True))
    else:
        total = 0
        for name, diagnostics in report.items():
            for diagnostic in diagnostics:
                total += 1
                print(diagnostic.render(name))
        checked = len(report)
        print(f"# {checked} file(s) checked, {total} finding(s)"
              + (", errors present" if failed else ""))
    return 1 if failed else 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro-gql stats``: fetch a running server's metrics."""
    from .service import ServiceClient

    with ServiceClient(args.host, args.port,
                       client_name="stats-cli") as client:
        payload = client.stats(format=args.format)
    if args.format == "prometheus":
        sys.stdout.write(payload if payload.endswith("\n")
                         else payload + "\n")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro-gql run``: execute a GraphQL program against bound docs."""
    database = GraphDatabase()
    for binding in args.doc:
        if "=" not in binding:
            print(f"error: --doc expects NAME=PATH, got {binding!r}",
                  file=sys.stderr)
            return 2
        name, path = binding.split("=", 1)
        database.load(name, path, directed=args.directed)
    program_text = Path(args.program).read_text(encoding="utf-8")
    governed = any(
        value is not None
        for value in (args.timeout, args.max_steps, args.max_memory)
    )
    context = (
        ExecutionContext(timeout=args.timeout, max_steps=args.max_steps,
                         max_memory=args.max_memory)
        if governed else None
    )
    with _tracing_to(args.trace_out):
        env = database.query(program_text, context=context)
    result = env.get("__result__")
    rendered = _render_result(result)
    outcome = context.outcome() if context is not None else None
    if args.out:
        # a failed write leaves the old file whole, never a truncated one
        atomic_write_text(args.out, rendered + "\n")
    if args.json:
        document = {
            "result": rendered,
            "outcome": outcome.to_dict() if outcome is not None else None,
        }
        if args.out:
            document["out"] = args.out
        print(json.dumps(document, indent=2, sort_keys=True))
        return EXIT_BY_OUTCOME[outcome.status] if outcome is not None else 0
    if args.out:
        print(f"wrote result to {args.out}")
    else:
        print(rendered)
    if outcome is not None:
        if outcome.interrupted:
            print(f"outcome: {outcome}")
        return EXIT_BY_OUTCOME[outcome.status]
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro-gql serve``: the TCP query service.

    Serves the given data file (or the documents of ``--store``) as
    document ``data`` over the newline-delimited JSON protocol (see
    ``docs/service.md``).  SIGTERM/SIGINT trigger a graceful drain: the
    listening socket closes immediately, in-flight queries finish or are
    cancelled at the drain deadline, and final metrics are printed.
    """
    if args.data is None and args.store is None:
        print("error: serve needs a data file or --store", file=sys.stderr)
        return 2
    # the trace session covers the whole lifecycle — recovery and
    # registration (wal.* spans) included, not just the serve loop
    with _tracing_to(args.trace_out):
        return _serve(args)


def _serve(args: argparse.Namespace) -> int:
    from .service import QueryServer, QueryService, ServiceConfig

    config = ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        per_client=args.per_client,
        default_timeout=args.timeout,
        default_max_results=args.limit,
        store_path=args.store,
        fsync=args.fsync,
    )
    service = QueryService(config)
    if service.recovery is not None:
        r = service.recovery
        torn = (f", torn tail of {r.torn_bytes} byte(s) cut"
                if r.torn_tail else "")
        print(f"store {args.store}: "
              f"{'clean open' if r.clean else 'recovered'} "
              f"({r.frames} frame(s){torn}); "
              f"{len(service.database.names())} document(s) loaded",
              flush=True)
    if args.data is not None:
        service.load("data", args.data, directed=args.directed)
    if not service.database.names():
        print("error: --store holds no documents yet; give a data file "
              "for the first run", file=sys.stderr)
        service.shutdown(timeout=0)
        return 2
    primary = (service.database.names()[0]
               if "data" not in service.database.names() else "data")
    graphs = service.database.doc(primary)
    server = QueryServer(service, (args.host, args.port))
    host, port = server.address
    exporter = None
    if args.metrics_port is not None:
        exporter = server.metrics_exporter(args.host, args.metrics_port)
        exporter.start()
        metrics_host, metrics_port = exporter.address
        print(f"metrics on {metrics_host}:{metrics_port} "
              f"(/metrics /stats /health /ready)", flush=True)
    print(f"serving {len(graphs)} graph(s) on {host}:{port} "
          f"({config.workers} thread worker(s), queue {config.queue_depth}, "
          f"timeout {config.default_timeout:g}s)", flush=True)
    # machine-readable startup line: with ``--port 0`` the OS picks the
    # port, and supervisors (repro.cluster bootstrap, process tests)
    # need the *actual* bound address without scraping the prose banner
    ready_payload = {"ready": True, "host": host, "port": port,
                     "documents": sorted(service.database.names())}
    if exporter is not None:
        ready_payload["metrics_port"] = metrics_port
    print("ready " + json.dumps(ready_payload, sort_keys=True), flush=True)

    def on_signal(signum, frame):
        print(f"signal {signum}: draining ...", flush=True)
        threading.Thread(target=server.shutdown_gracefully,
                         daemon=True).start()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        server.serve_until_shutdown()
    finally:
        if exporter is not None:
            exporter.close()
    print(f"shutdown: {service.metrics.summary()}", flush=True)
    for line in service.slow_log.render_lines():
        print(f"slow query: {line}", flush=True)
    return 0


def _no_store(path: str) -> bool:
    """Report a missing store file (a mistyped path must not create an
    empty store)."""
    if Path(path).exists():
        return False
    print(f"error: no store at {path}", file=sys.stderr)
    return True


def cmd_recover(args: argparse.Namespace) -> int:
    """``repro-gql recover``: open a store file and report.

    Opening is the recovery: the log is read, committed frames are
    checked, and a torn tail is cut.  A second run reports ``clean``;
    the service does the same on startup.
    """
    from .storage import GraphStore

    if _no_store(args.store):
        return 2
    store = GraphStore(args.store)
    result = store.recovery
    store.close(checkpoint=False)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    if result.clean:
        print(f"{args.store}: clean ({result.frames} frame(s), "
              f"{result.log_bytes} bytes)")
    else:
        print(f"{args.store}: recovered ({result.frames} frame(s)); "
              f"cut a torn tail of {result.torn_bytes} byte(s)")
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """``repro-gql checkpoint``: open a store and compact it."""
    from .storage import GraphStore

    if _no_store(args.store):
        return 2
    store = GraphStore(args.store)
    recovery = store.recovery.to_dict()
    freed = store.checkpoint()
    store_bytes = store.wal.size
    store.close(checkpoint=False)
    if args.json:
        print(json.dumps({"store": args.store, "recovery": recovery,
                          "freed_bytes": freed, "store_bytes": store_bytes},
                         indent=2, sort_keys=True))
        return 0
    print(f"{args.store}: compacted ({freed} byte(s) freed, "
          f"{store_bytes} remaining)")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """``repro-gql cluster``: sharded serving and scatter-gather routing."""
    if args.cluster_command == "serve":
        return _cluster_serve(args)
    if args.cluster_command == "route":
        return _cluster_route(args)
    return _cluster_status(args)


def _cluster_serve(args: argparse.Namespace) -> int:
    from .cluster import launch_cluster
    from .datasets.molecules import molecule_collection

    cluster = launch_cluster(
        molecule_collection(num_molecules=CLUSTER_MOLECULES,
                            seed=CLUSTER_SEED),
        num_shards=args.shards, workers=args.workers,
        query_timeout=args.timeout,
        replication_factor=args.replication,
        supervise=args.supervise)
    state_path = Path(args.state) if args.state else None
    try:
        for shard_id, shard in cluster.shards.items():
            print(f"{shard_id}: {shard.host}:{shard.port} "
                  f"({len(shard.graph_ids)} graph(s), "
                  f"pid {shard.process.pid})", flush=True)
        # same contract as serve's ready line: supervisors parse this,
        # not the per-shard prose above
        print("cluster ready " + json.dumps({
            "shards": {sid: {"host": sp.host, "port": sp.port,
                             "pid": sp.process.pid}
                       for sid, sp in cluster.shards.items()},
            "map": cluster.shard_map.to_dict(),
        }, sort_keys=True), flush=True)
        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        if state_path is None:
            stop.wait()
        else:
            # refresh the state file while serving so 'cluster status'
            # sees supervisor restarts and fresh ports, not boot state
            while not stop.wait(1.0):
                cluster.write_state(state_path)
            cluster.write_state(state_path)
        print("draining cluster ...", flush=True)
    finally:
        if state_path is not None:
            try:
                cluster.write_state(state_path)
            except OSError:
                pass
        cluster.shutdown()
    return 0


def _cluster_status(args: argparse.Namespace) -> int:
    """``repro-gql cluster status``: probe the shards of a state file."""
    from .cluster.supervisor import PROBE_TIMEOUT
    from .service.client import ServiceClient

    state = json.loads(Path(args.state).read_text(encoding="utf-8"))
    supervisor = state.get("supervisor") or {}
    abandoned = supervisor.get("abandoned", {})
    rows = []
    all_ok = True
    for shard_id in sorted(state.get("shards", {})):
        entry = state["shards"][shard_id]
        host, port = entry["host"], int(entry["port"])
        probe = {"alive": False, "ready": False,
                 "reason": "unreachable", "breakers": {}}
        try:
            with ServiceClient(host, port, timeout=PROBE_TIMEOUT,
                               client_name="cluster-status") as client:
                ready, reason = client.ready()
                health = client.health()
            probe.update(alive=True, ready=ready, reason=reason,
                         breakers=health.get("breakers", {}))
        except Exception as exc:
            probe["reason"] = f"{type(exc).__name__}: {exc}"
        if not probe["ready"]:
            all_ok = False
        rows.append({
            "shard": shard_id, "host": host, "port": port,
            "restarts": int(entry.get("restarts", 0)),
            "abandoned": abandoned.get(shard_id),
            **probe,
        })
    merged = {
        "replication_factor": state.get("map", {}).get(
            "replication_factor", 1),
        "supervisor": supervisor,
        "shards": rows,
        "ok": all_ok,
    }
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
        return 0 if all_ok else 1
    print(f"R={merged['replication_factor']} "
          f"({len(rows)} shard(s), "
          f"{supervisor.get('restarts', 0)} supervised restart(s))")
    for row in rows:
        if row["abandoned"]:
            status = f"ABANDONED ({row['abandoned']})"
        elif not row["alive"]:
            status = f"DEAD ({row['reason']})"
        elif not row["ready"]:
            status = f"NOT READY ({row['reason']})"
        else:
            status = "ready"
        breakers = ",".join(f"{k}={v}" for k, v in
                            sorted(row["breakers"].items()) if v)
        print(f"  {row['shard']}  {row['host']}:{row['port']}  "
              f"{status}  breakers[{breakers or 'none'}]  "
              f"restarts={row['restarts']}")
    return 0 if all_ok else 1


def _cluster_route(args: argparse.Namespace) -> int:
    from .cluster import ClusterCoordinator, ShardMap

    query_text = (Path(args.pattern).read_text(encoding="utf-8")
                  if args.pattern else args.query)
    endpoints = {}
    for index, spec in enumerate(args.endpoints.split(",")):
        host, _, port = spec.strip().rpartition(":")
        if not host or not port.isdigit():
            print(f"error: bad endpoint {spec!r} (want host:port)",
                  file=sys.stderr)
            return 2
        endpoints[f"shard{index}"] = (host, int(port))
    coordinator = ClusterCoordinator(ShardMap(list(endpoints)), endpoints,
                                     timeout=args.timeout)
    with _tracing_to(args.trace_out):
        reply = coordinator.query(query_text, document=args.document,
                                  limit=args.limit)
    if args.json:
        print(json.dumps(reply.to_dict(), indent=2, sort_keys=True))
    else:
        outcome = reply.outcome
        print(f"{len(reply.results)} row(s) from {reply.merged}/"
              f"{reply.submitted} shard(s): {outcome}")
        for answer in reply.answers:
            state = ("merged" if answer.ok
                     else f"FAILED ({answer.error})")
            print(f"  {answer.shard}: {answer.rows} row(s), {state}")
        if reply.error:
            print(f"error: {reply.error}", file=sys.stderr)
    return EXIT_BY_OUTCOME[reply.outcome.status]


def _render_result(result) -> str:
    if isinstance(result, Graph):
        return graph_to_text(result)
    if isinstance(result, GraphCollection):
        parts = []
        for item in result:
            graph = item.as_graph() if hasattr(item, "as_graph") else item
            parts.append(graph_to_text(graph))
        return f"# {len(result)} graph(s)\n" + "\n\n".join(parts)
    if result is None:
        return "# no result"
    return repr(result)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"info": cmd_info, "match": cmd_match, "run": cmd_run,
                "check": cmd_check,
                "explain": cmd_explain, "stats": cmd_stats,
                "serve": cmd_serve,
                "recover": cmd_recover, "checkpoint": cmd_checkpoint,
                "cluster": cmd_cluster}
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface compile/parse errors cleanly
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
