"""Command-line interface: ``riskroute``.

Subcommands::

    riskroute list                 # list experiments
    riskroute run table2          # regenerate one table/figure
    riskroute run all             # regenerate everything
    riskroute corpus              # summarize the 23-network corpus
    riskroute route Level3 "Houston, TX" "Boston, MA" [--gamma-h 1e5]
    riskroute ratios Level3 [--strategy per-source]
    riskroute scenario Level3 --scenarios 500 [--no-defense]
    riskroute serve Level3 --port 4174 [--shards 4]
    riskroute query --port 4174 ingest events.json [--now-year 2012]
    riskroute query --port 4174 route "Level3:Houston, TX" "Level3:Boston, MA"

The ``riskroute query`` subcommands are generated from the server's op
registry (:mod:`repro.server.ops`): each registered op contributes one
subcommand whose arguments come from the op's declared parameters, so
the CLI cannot drift from the wire protocol.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .experiments import get_experiment, registered_experiments
from .risk.model import DEFAULT_GAMMA_F, DEFAULT_GAMMA_H, RiskModel
from .session import RoutingSession
from .topology.zoo import all_networks, network_by_name

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="riskroute",
        description="RiskRoute (CoNEXT 2013) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="regenerate a table/figure")
    run_p.add_argument("experiment", help="experiment id or 'all'")
    run_p.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        dest="fmt",
        help="output format (default: text)",
    )
    run_p.add_argument(
        "--output",
        default=None,
        help="write to this file instead of stdout (single experiment only)",
    )

    sub.add_parser("corpus", help="summarize the network corpus")

    route_p = sub.add_parser("route", help="route one PoP pair")
    route_p.add_argument("network", help="network name, e.g. Level3")
    route_p.add_argument("source", help='source city key, e.g. "Houston, TX"')
    route_p.add_argument("target", help='target city key, e.g. "Boston, MA"')
    route_p.add_argument(
        "--gamma-h", type=float, default=DEFAULT_GAMMA_H, dest="gamma_h"
    )
    route_p.add_argument(
        "--gamma-f", type=float, default=DEFAULT_GAMMA_F, dest="gamma_f"
    )

    ratios_p = sub.add_parser(
        "ratios", help="all-pairs rr/dr ratios for one network (Eq. 5/6)"
    )
    ratios_p.add_argument("network", help="network name, e.g. Level3")
    ratios_p.add_argument(
        "--strategy",
        choices=("exact", "per-source"),
        default=None,
        help="sweep strategy (default: auto by network size)",
    )
    ratios_p.add_argument(
        "--gamma-h", type=float, default=DEFAULT_GAMMA_H, dest="gamma_h"
    )
    ratios_p.add_argument(
        "--gamma-f", type=float, default=DEFAULT_GAMMA_F, dest="gamma_f"
    )

    prov_p = sub.add_parser(
        "provision",
        help="Equation 4 link recommendations for one network",
    )
    prov_p.add_argument("network", help="network name, e.g. Level3")
    prov_p.add_argument(
        "--k", type=int, default=1,
        help="links to add greedily (1 = rank candidates; default: 1)",
    )
    prov_p.add_argument(
        "--top", type=int, default=10,
        help="recommendations to print when ranking (default: 10)",
    )
    prov_p.add_argument(
        "--verify-every", type=int, default=None, dest="verify_every",
        help="re-verify incremental matrices against a rebuild every N "
        "committed links (default: never)",
    )
    prov_p.add_argument(
        "--gamma-h", type=float, default=DEFAULT_GAMMA_H, dest="gamma_h"
    )
    prov_p.add_argument(
        "--gamma-f", type=float, default=DEFAULT_GAMMA_F, dest="gamma_f"
    )

    scen_p = sub.add_parser(
        "scenario",
        help="Monte Carlo cascading-failure comparison for one network",
    )
    scen_p.add_argument("network", help="network name, e.g. Level3")
    scen_p.add_argument(
        "--scenarios", type=int, default=500,
        help="correlated-failure events to draw (default: 500)",
    )
    scen_p.add_argument(
        "--seed", type=int, default=2013,
        help="replay seed for the whole run (default: 2013)",
    )
    scen_p.add_argument(
        "--srg-fraction", type=float, default=0.5, dest="srg_fraction",
        help="probability a scenario activates a shared-risk group "
        "(default: 0.5)",
    )
    scen_p.add_argument(
        "--headroom", type=float, default=1.5,
        help="capacity multiplier over baseline load, 0 = unlimited "
        "(default: 1.5)",
    )
    scen_p.add_argument(
        "--no-defense", action="store_true", dest="no_defense",
        help="disable dynamic load redistribution (naive failover)",
    )
    scen_p.add_argument(
        "--alternates", type=int, default=3,
        help="alternates a defended shed is split across (default: 3)",
    )
    scen_p.add_argument(
        "--sample-pairs", type=int, default=60, dest="sample_pairs",
        help="survival route sample size (default: 60)",
    )
    scen_p.add_argument(
        "--corridor-miles", type=float, default=50.0, dest="corridor_miles",
        help="shared-risk corridor cell size in miles (default: 50)",
    )
    scen_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full report as JSON instead of the summary table",
    )
    scen_p.add_argument(
        "--gamma-h", type=float, default=DEFAULT_GAMMA_H, dest="gamma_h"
    )
    scen_p.add_argument(
        "--gamma-f", type=float, default=DEFAULT_GAMMA_F, dest="gamma_f"
    )

    serve_p = sub.add_parser(
        "serve", help="run the async query daemon for one network"
    )
    serve_p.add_argument("network", help="network name, e.g. Level3")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=4174,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    serve_p.add_argument(
        "--gamma-h", type=float, default=DEFAULT_GAMMA_H, dest="gamma_h"
    )
    serve_p.add_argument(
        "--gamma-f", type=float, default=DEFAULT_GAMMA_F, dest="gamma_f"
    )
    serve_p.add_argument(
        "--max-pending", type=int, default=256, dest="max_pending",
        help="admission-control bound on queued requests (default: 256)",
    )
    serve_p.add_argument(
        "--request-timeout", type=float, default=30.0, dest="request_timeout",
        help="per-request deadline in seconds, 0 disables (default: 30)",
    )
    serve_p.add_argument(
        "--batch-linger", type=float, default=0.002, dest="batch_linger",
        help="seconds a batch waits for concurrent requests to coalesce "
        "(default: 0.002)",
    )
    serve_p.add_argument(
        "--shards", type=int, default=0,
        help="fan query batches across this many shard processes over a "
        "shared-memory engine export (default: 0 = in-process)",
    )
    serve_p.add_argument(
        "--replicas", type=int, default=1,
        help="shards serving each read key (default: 1 = single-owner "
        "affinity; >= 2 adds load-balanced routing and transparent "
        "failover; clamped to --shards)",
    )

    query_p = sub.add_parser("query", help="query a running daemon")
    query_p.add_argument("--host", default="127.0.0.1")
    query_p.add_argument("--port", type=int, default=4174)
    query_p.add_argument("--timeout", type=float, default=30.0)
    query_p.add_argument(
        "--retries", type=int, default=0,
        help="retry transient failures (overloaded/draining/drops) up to "
        "this many times with backoff (default: 0)",
    )
    qsub = query_p.add_subparsers(dest="query_op", required=True)
    _add_query_subcommands(qsub)
    return parser


def _add_query_subcommands(qsub) -> None:
    """One ``riskroute query`` subcommand per registered op.

    Each op's CLI-exposed parameters (``Param.cli`` hints) become
    argparse arguments — positionals for required endpoints, flags with
    the declared type/choices otherwise.  Ops with no CLI-exposed
    params (``stats``, ``health``) get bare subcommands.
    """
    from .server import ops

    for spec in ops.registered_ops():
        sub_parser = qsub.add_parser(spec.command, help=spec.doc)
        for param in spec.params:
            if param.cli is None:
                continue
            hints = dict(param.cli)
            hints.pop("loader", None)
            hints.pop("dest", None)
            positional = hints.pop("positional", False)
            flag = hints.pop("flag", None)
            hints.setdefault("help", param.doc)
            if positional:
                sub_parser.add_argument(param.name, **hints)
            else:
                sub_parser.add_argument(
                    flag, dest=param.name, default=None, **hints
                )


def _cmd_list() -> int:
    for experiment_id in registered_experiments():
        print(experiment_id)
    return 0


def _cmd_run(experiment: str, fmt: str = "text", output: str = None) -> int:
    from .experiments.export import to_csv, to_json, write_result

    ids = (
        registered_experiments() if experiment == "all" else [experiment]
    )
    if output is not None and len(ids) != 1:
        print("--output requires a single experiment", file=sys.stderr)
        return 2
    for experiment_id in ids:
        try:
            run = get_experiment(experiment_id)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        result = run()
        if output is not None:
            write_result(result, output, fmt=fmt)
            continue
        if fmt == "json":
            print(to_json(result))
        elif fmt == "csv":
            print(to_csv(result), end="")
        else:
            print(result.format_text())
            print()
    return 0


def _cmd_corpus() -> int:
    print(f"{'network':14s} {'tier':9s} {'pops':>5s} {'links':>6s} {'deg':>5s}")
    for network in all_networks():
        print(
            f"{network.name:14s} {network.tier:9s} {network.pop_count:5d} "
            f"{network.link_count:6d} {network.average_outdegree():5.2f}"
        )
    return 0


def _cmd_route(
    network_name: str, source_city: str, target_city: str,
    gamma_h: float, gamma_f: float,
) -> int:
    try:
        network = network_by_name(network_name)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    source = f"{network_name}:{source_city}"
    target = f"{network_name}:{target_city}"
    if not network.has_pop(source) or not network.has_pop(target):
        print(
            f"PoP not found; available cities: "
            f"{sorted({p.city for p in network.pops()})[:20]} ...",
            file=sys.stderr,
        )
        return 2
    model = RiskModel.for_network(network, gamma_h=gamma_h, gamma_f=gamma_f)
    pair = RoutingSession(network, model).pair(source, target)
    print(f"shortest  ({pair.shortest.bit_miles:8.1f} mi, "
          f"{pair.shortest.bit_risk_miles:10.1f} brm): "
          + " > ".join(p.split(":", 1)[1] for p in pair.shortest.path))
    print(f"riskroute ({pair.riskroute.bit_miles:8.1f} mi, "
          f"{pair.riskroute.bit_risk_miles:10.1f} brm): "
          + " > ".join(p.split(":", 1)[1] for p in pair.riskroute.path))
    return 0


def _cmd_ratios(
    network_name: str, strategy: Optional[str],
    gamma_h: float, gamma_f: float,
) -> int:
    try:
        network = network_by_name(network_name)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    model = RiskModel.for_network(network, gamma_h=gamma_h, gamma_f=gamma_f)
    result = RoutingSession(network, model).all_pairs(strategy=strategy)
    print(f"network     {network.name} ({network.pop_count} PoPs)")
    print(f"pairs       {result.pair_count}")
    print(f"rr (Eq. 5)  {result.risk_reduction_ratio:.4f}")
    print(f"dr (Eq. 6)  {result.distance_increase_ratio:.4f}")
    return 0


def _cmd_provision(args) -> int:
    try:
        network = network_by_name(args.network)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.k < 1 or args.top < 1 or (
        args.verify_every is not None and args.verify_every < 1
    ):
        print("--k, --top and --verify-every must be >= 1", file=sys.stderr)
        return 2
    from .core.provisioning import ProvisioningAnalyzer

    model = RiskModel.for_network(
        network, gamma_h=args.gamma_h, gamma_f=args.gamma_f
    )
    analyzer = ProvisioningAnalyzer(network, model)
    if args.k == 1:
        recs = analyzer.rank_candidates(top=args.top)
    else:
        recs = analyzer.greedy_links(
            args.k, verify_every=args.verify_every
        )
    for rank, rec in enumerate(recs, start=1):
        print(
            f"{rank:2d}. {rec.candidate.pop_a.split(':', 1)[-1]} <-> "
            f"{rec.candidate.pop_b.split(':', 1)[-1]} "
            f"({rec.candidate.length_miles:7.1f} mi, "
            f"{rec.fraction_of_baseline:.4f} of baseline)"
        )
    stats = analyzer.stats
    print(
        f"sweeps: {stats.sweeps_run} run, {stats.sweeps_avoided} avoided; "
        f"{stats.candidates_scored} candidates scored, "
        f"{stats.matrix_updates} incremental updates"
        + (
            f"; max verify deviation {stats.max_verify_deviation:.3e}"
            if stats.verifications
            else ""
        )
    )
    return 0


def _cmd_scenario(args) -> int:
    try:
        network = network_by_name(args.network)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    from .scenario import CascadeConfig, ScenarioConfig, run_monte_carlo

    model = RiskModel.for_network(
        network, gamma_h=args.gamma_h, gamma_f=args.gamma_f
    )
    try:
        config = ScenarioConfig(
            scenarios=args.scenarios,
            seed=args.seed,
            srg_fraction=args.srg_fraction,
            corridor_miles=args.corridor_miles,
            sample_pairs=args.sample_pairs,
            cascade=CascadeConfig(
                headroom=None if args.headroom == 0 else args.headroom,
                redistribute=not args.no_defense,
                alternates=args.alternates,
            ),
        )
        report = run_monte_carlo(network, model, config)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"network          {report.network} "
        f"({network.pop_count} PoPs, {network.link_count} links)"
    )
    print(
        f"scenarios        {report.scenarios} "
        f"({report.srg_activations} SRG activations over "
        f"{report.srg_groups} groups, "
        f"{report.disaster_events} disasters), seed {report.seed}"
    )
    print(f"{'metric':24s} {'shortest':>10s} {'riskroute':>10s}")
    rows = [
        ("route survival", "route_survival", "{:10.4f}"),
        ("demand survival", "demand_survival", "{:10.4f}"),
        ("unserved demand", "unserved_demand", "{:10.4f}"),
        ("mean cascade depth", "mean_cascade_depth", "{:10.2f}"),
        ("max cascade depth", "max_cascade_depth", "{:10d}"),
        ("partitions", "partitions", "{:10d}"),
    ]
    for label, attr, fmt in rows:
        print(
            f"{label:24s} "
            + fmt.format(getattr(report.shortest, attr))
            + " "
            + fmt.format(getattr(report.riskroute, attr))
        )
    mttf = (
        "-" if report.riskroute.mttf_events is None
        else f"{report.riskroute.mttf_events:.2f}"
    )
    mttf_sp = (
        "-" if report.shortest.mttf_events is None
        else f"{report.shortest.mttf_events:.2f}"
    )
    print(f"{'mttf (events)':24s} {mttf_sp:>10s} {mttf:>10s}")
    print(
        f"riskroute gain: +{report.survival_improvement:.4f} route "
        f"survival, -{report.unserved_reduction:.4f} unserved demand"
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .server import RiskRouteServer, ServerConfig

    try:
        network = network_by_name(args.network)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    # Building the model pays the o_h KDE sweep on a cold cache; with a
    # warm persistent cache it is a fingerprint lookup.
    from .stats.fieldcache import default_field_cache

    model = RiskModel.for_network(
        network, gamma_h=args.gamma_h, gamma_f=args.gamma_f
    )
    field_cache = default_field_cache()
    if field_cache is not None:
        hits = field_cache.stats.hits
        # stderr: stdout carries the machine-read "serving ..." banner.
        print(
            f"risk-field cache at {field_cache.cache_dir}: "
            f"{'warm (o_h loaded from disk)' if hits else 'cold (o_h computed)'}",
            file=sys.stderr,
            flush=True,
        )
    session = RoutingSession(network, model)
    if args.shards < 0:
        print("--shards must be >= 0", file=sys.stderr)
        return 2
    if args.replicas < 1:
        print("--replicas must be >= 1", file=sys.stderr)
        return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        batch_linger=args.batch_linger,
        shards=args.shards,
        replicas=args.replicas,
    )

    async def _amain() -> None:
        server = RiskRouteServer(session, config)
        host, port = await server.start()
        if args.shards > 0:
            replicas = min(args.replicas, args.shards)
            # stderr: stdout carries the machine-read banner below.
            print(
                f"sharded serving: {args.shards} worker processes over "
                f"a shared-memory engine export (replicas={replicas})",
                file=sys.stderr,
                flush=True,
            )
        print(
            f"serving {network.name} ({network.pop_count} PoPs) "
            f"on {host}:{port}",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        try:
            await stop.wait()
        finally:
            await server.stop(drain=True)
            print("drained and stopped", flush=True)

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def _cmd_query(args) -> int:
    import socket

    from .server import RetryPolicy, RiskRouteClient, ServerError

    retry = (
        RetryPolicy(attempts=args.retries + 1, budget=max(args.timeout, 1.0))
        if args.retries > 0
        else None
    )
    try:
        client = RiskRouteClient(
            args.host, args.port, timeout=args.timeout, retry=retry
        )
    except OSError as exc:
        print(f"cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    from .server import ops

    try:
        with client:
            # Registry-driven dispatch: recover the spec behind the
            # subcommand, collect its CLI-exposed params (running any
            # declared loader, e.g. the update-forecast JSON file), and
            # call the generated client method.
            spec = ops.spec_for_cli(args.query_op)
            params = {}
            for param in spec.params:
                if param.cli is None:
                    continue
                value = getattr(args, param.name, None)
                if value is None:
                    continue
                loader = param.cli.get("loader")
                if loader is not None:
                    value = loader(value)
                params[param.name] = value
            result = getattr(client, spec.name)(**params)
            print(json.dumps(result, indent=2, sort_keys=True))
    except ServerError as exc:
        print(f"server error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    except socket.timeout:
        print(
            f"timed out after {args.timeout:g}s waiting for "
            f"{args.host}:{args.port}",
            file=sys.stderr,
        )
        return 1
    except ConnectionError as exc:
        print(
            f"connection to {args.host}:{args.port} failed: {exc}",
            file=sys.stderr,
        )
        return 1
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, fmt=args.fmt, output=args.output)
    if args.command == "corpus":
        return _cmd_corpus()
    if args.command == "route":
        return _cmd_route(
            args.network, args.source, args.target, args.gamma_h, args.gamma_f
        )
    if args.command == "ratios":
        return _cmd_ratios(
            args.network, args.strategy, args.gamma_h, args.gamma_f
        )
    if args.command == "provision":
        return _cmd_provision(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
