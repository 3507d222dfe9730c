"""Command-line interface: ``riskroute``.

Subcommands::

    riskroute list                 # list experiments
    riskroute run table2          # regenerate one table/figure
    riskroute run all             # regenerate everything
    riskroute corpus              # summarize the 23-network corpus
    riskroute pair Level3 "Level3:Houston, TX" "Level3:Boston, MA"
    riskroute ratios Level3 [--strategy per-source] [--gamma-h 1e6]
    riskroute scenario Level3 --scenarios 500 [--defense 0]
    riskroute serve Level3 --port 4174 [--shards 4]
    riskroute query --port 4174 ingest events.json [--token T]
    riskroute query --port 4174 route "Level3:Houston, TX" "Level3:Boston, MA"

Both the local op subcommands and the ``riskroute query`` subcommands
are generated from the server's op registry (:mod:`repro.server.ops`):
each registered op contributes one ``query`` subcommand whose arguments
come from the op's declared parameters, and every op with a batch
handler (``route``, ``pair``, ``ratios``, ``provision``, ``scenario``,
``shared-risk``) also runs locally as ``riskroute <command> <network>
[--gamma-h] [--gamma-f] <op params>``.  A local command builds a
session and runs the request through
:meth:`~repro.server.service.QueryService.execute_batch` — the daemon's
own validation, dispatch and error mapping — and prints the reply's
``result`` exactly as ``riskroute query`` does, so the CLI cannot drift
from the wire protocol.  A reply error prints ``error [<code>]:
<message>`` and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from . import __version__
from .experiments import get_experiment, registered_experiments
from .risk.model import DEFAULT_GAMMA_F, DEFAULT_GAMMA_H, RiskModel
from .server import ops
from .server.coalesce import PendingRequest
from .server.daemon import ServerConfig
from .server.protocol import PROTOCOL_VERSION, Request
from .server.service import QueryService
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

    for spec in ops.registered_ops():
        if spec.handler is not None:
            op_p = sub.add_parser(spec.command, help=spec.doc)
            _add_session_args(op_p)
            _add_op_args(op_p, spec)

    serve_p = sub.add_parser(
        "serve", help="run the async query daemon for one network"
    )
    _add_session_args(serve_p)
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=4174,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    for config_field in dataclasses.fields(ServerConfig):
        if "help" in config_field.metadata:
            serve_p.add_argument(
                "--" + config_field.name.replace("_", "-"),
                type=type(config_field.default),
                default=config_field.default,
                help=config_field.metadata["help"] + " (default: %(default)s)",
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
    for spec in ops.registered_ops():
        _add_op_args(qsub.add_parser(spec.command, help=spec.doc), spec)
    return parser


def _add_session_args(parser: argparse.ArgumentParser) -> None:
    """The network and Eq. 1 gamma arguments a session is built from."""
    parser.add_argument("network", help="network name, e.g. Level3")
    parser.add_argument(
        "--gamma-h", type=float, default=DEFAULT_GAMMA_H, dest="gamma_h"
    )
    parser.add_argument(
        "--gamma-f", type=float, default=DEFAULT_GAMMA_F, dest="gamma_f"
    )


def _add_op_args(parser: argparse.ArgumentParser, spec: ops.OpSpec) -> None:
    """One argparse argument per CLI-exposed param of ``spec``.

    ``Param.cli`` hints give positionals for required endpoints and
    flags with the declared type/choices otherwise.  Flags default to
    None, so an unset flag leaves the param to the op's own default.
    """
    for param in spec.params:
        if param.cli is None:
            continue
        hints = dict(param.cli)
        hints.pop("loader", None)
        positional = hints.pop("positional", False)
        flag = hints.pop("flag", None)
        help_text = param.doc
        if param.default is not None:
            help_text += f" (default: {param.default})"
        hints.setdefault("help", help_text)
        if positional:
            parser.add_argument(param.name, **hints)
        else:
            parser.add_argument(flag, dest=param.name, default=None, **hints)


def _op_params(spec: ops.OpSpec, args: argparse.Namespace) -> dict:
    """The wire params of ``spec`` that were given on the command line,
    with any declared loader (e.g. the update-forecast JSON file) run."""
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
    return params


def _session(args: argparse.Namespace) -> Optional[RoutingSession]:
    """The session for ``args.network`` at the requested gammas, or
    None after one stderr line for a network outside the corpus or a
    gamma the model rejects."""
    try:
        network = network_by_name(args.network)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    try:
        model = RiskModel.for_network(
            network, gamma_h=args.gamma_h, gamma_f=args.gamma_f
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None
    return RoutingSession(network, model)


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
            print(exc.args[0], file=sys.stderr)
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


def _cmd_op(spec: ops.OpSpec, args: argparse.Namespace) -> int:
    """Run one op locally, through the daemon's batch executor."""
    session = _session(args)
    if session is None:
        return 2
    item = PendingRequest(
        request=Request(
            op=spec.name, params=_op_params(spec, args), v=PROTOCOL_VERSION
        ),
        writer=None,
        arrived=0.0,
    )
    QueryService(session).execute_batch([item])
    reply = json.loads(item.reply)
    if not reply["ok"]:
        error = reply["error"]
        print(f"error [{error['code']}]: {error['message']}", file=sys.stderr)
        return 2
    print(json.dumps(reply["result"], indent=2, sort_keys=True))
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .server import RiskRouteServer

    # Checked before the session is built: a bad flag costs no model
    # build and ends in one line, not a traceback.
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            request_timeout=args.request_timeout,
            batch_linger=args.batch_linger,
            shards=args.shards,
            replicas=args.replicas,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    session = _session(args)
    if session is None:
        return 2

    async def _amain() -> None:
        server = RiskRouteServer(session, config)
        host, port = await server.start()
        if args.shards > 0:
            replicas = min(args.replicas, args.shards)
            # stderr: stdout carries the machine-read banner below.
            print(
                f"sharded serving: {args.shards} worker processes over "
                f"a shared-memory topology export (replicas={replicas})",
                file=sys.stderr,
                flush=True,
            )
        print(
            f"serving {session.network.name} "
            f"({session.network.pop_count} PoPs) on {host}:{port}",
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
    try:
        with client:
            spec = ops.spec_for_cli(args.query_op)
            result = getattr(client, spec.name)(**_op_params(spec, args))
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
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    return _cmd_op(ops.spec_for_cli(args.command), args)


if __name__ == "__main__":
    sys.exit(main())
