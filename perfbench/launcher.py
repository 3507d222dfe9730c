"""The benchmark's daemon launcher: one RiskRoute daemon in its own process.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/launcher.py --network Level3 [--shards 2 --replicas 2]
    python3 perfbench/launcher.py --network continental --fields F.json

It builds the topology, the ``RiskModel`` and a ``RoutingSession``,
starts a :class:`repro.server.RiskRouteServer` on an ephemeral port,
prints ``ready <port>`` on stdout and serves until SIGTERM, then drains
and stops.  ``RISKROUTE_CACHE_DIR`` chooses the risk-field cache.

With ``PERFBENCH_SPANS=<dir>`` in the environment the launcher first
wraps the layer entry points (:mod:`tracing`) and writes its spans to
``<dir>`` at shutdown.  Shard processes are started with the ``spawn``
method, which re-imports this file as ``__mp_main__``; the guard at the
bottom installs the same wrappers there and writes each shard's spans
when the shard exits.  Without the variable the launcher runs the
daemon unwrapped, which is the untraced configuration.

The continental network is served from a fields file written once by
:func:`prepare_continental_fields` (per-PoP population shares and
``o_h``), because its population assignment takes about half a minute
per build; the topology itself is rebuilt on every start.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

SPANS_ENV = "PERFBENCH_SPANS"

#: The continental workload's topology: a 1500-PoP seeded continental
#: backbone, above the engine's landmark and bucketed-kernel gates.
CONTINENTAL = {"pop_count": 1500, "seed": 0}


def build_network(name: str):
    """The topology a workload serves."""
    if name == "continental":
        from repro.topology.builders import continental_network

        return continental_network(**CONTINENTAL)
    from repro.topology.zoo import network_by_name

    return network_by_name(name)


def prepare_continental_fields(path: str) -> None:
    """Compute the continental risk model once and store its fields."""
    from repro.population import assignment
    from repro.risk.model import RiskModel

    # The default 16k-block chunk holds ~4.5 GB of temporaries at 5k
    # PoPs; a smaller chunk computes the same per-block argmin and adds
    # populations in the same order, so the shares are bit-identical.
    assignment._CHUNK = 1024
    network = build_network("continental")
    model = RiskModel.for_network(network)
    fields = {
        "shares": {p: model.share(p) for p in model.pop_ids()},
        "historical": {p: model.historical_risk(p) for p in model.pop_ids()},
        "forecast": {p: model.forecast_risk(p) for p in model.pop_ids()},
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(fields, handle)
    os.replace(tmp, path)


def build_session(name: str, fields_path: str = ""):
    """The ``RoutingSession`` a workload's daemon serves."""
    from repro import RiskModel, RoutingSession

    network = build_network(name)
    if fields_path:
        with open(fields_path, encoding="utf-8") as handle:
            fields = json.load(handle)
        model = RiskModel(
            shares=fields["shares"],
            historical_risk=fields["historical"],
            forecast_risk=fields["forecast"],
        )
    else:
        model = RiskModel.for_network(network)
    return RoutingSession(network, model)


async def _serve(session, config) -> None:
    from repro.server import RiskRouteServer

    server = RiskRouteServer(session, config)
    _, port = await server.start()
    print(f"ready {port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        await server.stop(drain=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--network", required=True)
    parser.add_argument("--fields", default="")
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--replicas", type=int, default=1)
    args = parser.parse_args(argv)
    spans_dir = os.environ.get(SPANS_ENV)
    if spans_dir:
        import tracing

        tracing.install()
    from repro.server import ServerConfig

    session = build_session(args.network, args.fields)
    config = ServerConfig(shards=args.shards, replicas=args.replicas)
    asyncio.run(_serve(session, config))
    if spans_dir:
        tracing.dump(spans_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__" and os.environ.get(SPANS_ENV):
    # A traced daemon's shard process (see the module docstring).
    import multiprocessing.util

    import tracing

    tracing.install()
    multiprocessing.util.Finalize(
        None, tracing.dump, args=(os.environ[SPANS_ENV],), exitpriority=0
    )
