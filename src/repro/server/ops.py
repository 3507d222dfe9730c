"""The declarative op registry: one table drives the whole API surface.

Every server operation is described once, as an :class:`OpSpec`: its
wire name, its parameters (type checks, defaults, documentation, CLI
exposure), its ``read``/``write``/``control`` classification, how a
sharded daemon routes it, and the handler that produces its result.
Everything that used to be an ``op ==`` string chain reads this table:

* queue batching and barrier placement in
  :class:`~repro.server.coalesce.CoalescingQueue`
  (:attr:`OpSpec.is_barrier`),
* request validation and dispatch in
  :class:`~repro.server.service.QueryService`,
* shard routing (:func:`repro.server.shards.replicas_of` reads
  :attr:`OpSpec.routing`),
* client retry-safety (:data:`~repro.server.client.RETRY_SAFE_OPS`) and
  the typed per-op wrapper methods generated onto
  :class:`~repro.server.client.RiskRouteClient`,
* the ``riskroute query`` CLI subcommands, and the local ``riskroute
  <command> <network>`` subcommand of every op with a handler.

Adding an op is one table entry; the wire protocol, the queue, the
shard router, the client and the CLI all pick it up.

The checks here pin JSON types and shapes only.  A value's range is
checked once, by the library the handler calls
(:meth:`~repro.session.RoutingSession.provision`,
:class:`~repro.scenario.ScenarioConfig`,
:class:`~repro.scenario.cascade.CascadeConfig`); its ``ValueError`` is
answered as ``bad_request``.  ``subscribe``'s ``since`` is the one range
checked here, because the daemon itself is its only consumer.

Classification semantics (:attr:`OpSpec.kind`):

``read``
    A pure query of engine/server state: batched by the worker,
    routable to any/the affine shard, idempotent, always safe to retry.
    ``health`` is a read the daemon answers inline, ahead of the queue.
``write``
    Mutates served state (forecast swaps, event ingests).  A queue
    barrier: runs alone
    between batches, is applied by the parent process (never a shard),
    and is retry-safe only under an idempotency token.
``control``
    Reads server-level state that must be consistent with the queue
    position (``stats``).  A barrier like ``write``, answered by the
    parent, but idempotent and retry-safe.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.strategy import SweepStrategy, resolve_strategy
from .protocol import (
    ProtocolError,
    pair_to_dict,
    ratios_to_dict,
    recommendation_to_dict,
    route_to_dict,
)

__all__ = [
    "Param",
    "OpSpec",
    "REGISTRY",
    "registered_ops",
    "get_spec",
    "spec_for_cli",
    "validate_params",
    "retry_safe_op_names",
]

KINDS = ("read", "write", "control")

#: How a sharded daemon routes a read op (see ``repro.server.shards``):
#: ``pair`` hashes the (network-prefixed) endpoint pair for affinity,
#: ``params`` hashes the canonical parameter dict (so repeats of the
#: same heavy query land on the same shard's memoized result cache).
#: With ``replicas >= 2`` (``ServerConfig.replicas``) either widens to a
#: rendezvous-hashed replica set, with balancing and failover.  Writes,
#: controls and ``health`` never reach a shard, so their routing is
#: never read.
ROUTINGS = ("pair", "params")


# -- parameter validators ----------------------------------------------------


def _check_str(name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ProtocolError(
            "bad_request", f"param {name!r} must be a string, got {value!r}"
        )
    return value


def _check_strategy(name: str, value: Any) -> SweepStrategy:
    try:
        return resolve_strategy(value)
    except ValueError as exc:
        raise ProtocolError("bad_request", str(exc))


def _check_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            "bad_request", f"param {name!r} must be an integer, got {value!r}"
        )
    return value


def _check_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            "bad_request", f"param {name!r} must be a number, got {value!r}"
        )
    return value


def _check_non_negative_int(name: str, value: Any) -> int:
    value = _check_int(name, value)
    if value < 0:
        raise ProtocolError(
            "bad_request", f"param {name!r} must be >= 0, got {value!r}"
        )
    return value


def _check_bool(name: str, value: Any) -> bool:
    """Accept a JSON bool or 0/1 integer (CLI flags arrive as ints)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise ProtocolError(
        "bad_request", f"param {name!r} must be a boolean or 0/1, got {value!r}"
    )


def _check_name_list(name: str, value: Any) -> List[str]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ProtocolError(
            "bad_request",
            f"param {name!r} must be a list of PoP names, got {value!r}",
        )
    return list(value)


def _check_risk_map(name: str, value: Any) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ProtocolError(
            "bad_request",
            f"param {name!r} must be an object of {{pop_id: forecast_risk}}",
        )
    return value


#: The wire shape of one streamed disaster record (``ingest``).
_EVENT_FIELDS = ("event_type", "lat", "lon", "year")


def _check_event_list(name: str, value: Any) -> List[Dict[str, Any]]:
    """A non-empty list of {event_type, lat, lon, year} records.

    Field semantics (class names, coordinate ranges, plausible years)
    are enforced where :class:`~repro.disasters.events.DisasterEvent`
    is constructed; this check pins the wire shape only.
    """
    if not isinstance(value, (list, tuple)) or not value:
        raise ProtocolError(
            "bad_request",
            f"param {name!r} must be a non-empty list of event records",
        )
    records: List[Dict[str, Any]] = []
    for index, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ProtocolError(
                "bad_request",
                f"param {name!r}[{index}] must be an object, got {entry!r}",
            )
        unknown = sorted(set(entry) - set(_EVENT_FIELDS))
        missing = sorted(set(_EVENT_FIELDS) - set(entry))
        if unknown or missing:
            raise ProtocolError(
                "bad_request",
                f"param {name!r}[{index}] must have exactly the fields "
                f"{list(_EVENT_FIELDS)} (missing {missing}, "
                f"unknown {unknown})",
            )
        _check_str(f"{name}[{index}].event_type", entry["event_type"])
        _check_number(f"{name}[{index}].lat", entry["lat"])
        _check_number(f"{name}[{index}].lon", entry["lon"])
        _check_int(f"{name}[{index}].year", entry["year"])
        records.append(dict(entry))
    return records


# -- the table entries -------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One declared op parameter.

    Args:
        name: wire name (also the generated client keyword).
        doc: one-line description (client docstrings and CLI help).
        required: missing/None on the wire is a ``bad_request``.
        default: wire-level default applied during validation.
        check: ``(name, value) -> normalized`` validator; raises
            :class:`ProtocolError` on a type/shape violation (ranges
            are the library's to check).  Run only on present,
            non-None values.
        cli: argparse exposure — ``None`` keeps the parameter off the
            CLI; otherwise a mapping of hints (``positional``, ``flag``,
            ``type``, ``choices``, ``metavar``, ``loader``).
        example: a valid wire value, used by the registry round-trip
            test to exercise every op end to end.
    """

    name: str
    doc: str = ""
    required: bool = False
    default: Any = None
    check: Optional[Callable[[str, Any], Any]] = None
    cli: Optional[Mapping[str, Any]] = None
    example: Any = None


@dataclass(frozen=True)
class OpSpec:
    """One operation: classification, params, routing, handler.

    Args:
        name: wire op name.
        kind: ``read`` / ``write`` / ``control`` (see module docstring).
        doc: one-line summary (client docstring, CLI help).
        params: declared parameters, in client-signature order.
        handler: ``(service, params) -> result dict`` for batched query
            ops, whose replies carry the batch's risk fingerprint;
            ``None`` for ops the daemon answers itself (``stats``,
            ``subscribe``, ``health``) or applies as a barrier
            (``update_forecast``, ``ingest``).
        routing: shard routing mode of a read (:data:`ROUTINGS`).
        cli_name: CLI subcommand name when it differs from the op
            name (e.g. ``update-forecast``).
    """

    name: str
    kind: str
    doc: str
    params: Tuple[Param, ...] = ()
    handler: Optional[Callable[[Any, Dict[str, Any]], dict]] = None
    routing: str = "params"
    cli_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"kind must be one of {list(KINDS)}, got {self.kind!r}"
            )
        if self.routing not in ROUTINGS:
            raise ValueError(
                f"routing must be one of {list(ROUTINGS)}, "
                f"got {self.routing!r}"
            )

    @property
    def is_barrier(self) -> bool:
        """Runs alone between query batches (writes and controls)."""
        return self.kind in ("write", "control")

    @property
    def retry_safe(self) -> bool:
        """Safe to blindly re-send after a connection drop."""
        return self.kind in ("read", "control")

    @property
    def command(self) -> str:
        """The CLI subcommand name (``riskroute query <command>``, and
        ``riskroute <command>`` for an op with a handler)."""
        return self.cli_name or self.name


def validate_params(spec: OpSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate and normalise one request's parameters against ``spec``.

    Unknown parameters are rejected (``bad_request``), declared ones
    are defaulted, and each present value runs its type check.  Returns
    a complete ``{name: value}`` dict covering every declared param.
    """
    known = {p.name for p in spec.params}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ProtocolError(
            "bad_request",
            f"unknown param(s) {unknown} for op {spec.name!r}; "
            f"expected {sorted(known)}",
        )
    out: Dict[str, Any] = {}
    for p in spec.params:
        value = params.get(p.name)
        if value is None:
            if p.required:
                raise ProtocolError(
                    "bad_request",
                    f"op {spec.name!r} requires param {p.name!r}",
                )
            value = p.default
        elif p.check is not None:
            value = p.check(p.name, value)
        out[p.name] = value
    return out


# -- result handlers (what QueryService._dispatch runs) ----------------------


def _handle_route(service, params: Dict[str, Any]) -> dict:
    strategy = params["strategy"] or SweepStrategy.EXACT
    return route_to_dict(
        service.session.route(params["source"], params["target"], strategy)
    )


def _handle_pair(service, params: Dict[str, Any]) -> dict:
    return pair_to_dict(
        service.session.pair(params["source"], params["target"])
    )


def _handle_ratios(service, params: Dict[str, Any]) -> dict:
    return ratios_to_dict(
        service.session.all_pairs(
            sources=params["sources"],
            targets=params["targets"],
            strategy=params["strategy"],
        )
    )


def _handle_provision(service, params: Dict[str, Any]) -> dict:
    recs = service.session.provision(k=params["k"], top=params["top"])
    return {"recommendations": [recommendation_to_dict(r) for r in recs]}


def _handle_scenario(service, params: Dict[str, Any]) -> dict:
    from ..scenario import CascadeConfig, ScenarioConfig, run_monte_carlo

    network = service.session.network
    if network is None:
        raise ProtocolError(
            "bad_request", "scenario requires a network-backed session"
        )
    # headroom 0 on the wire means unlimited capacity (JSON has no
    # natural "infinity"; None already means "use the default").
    headroom = params["headroom"]
    cascade = CascadeConfig(
        headroom=None if headroom == 0 else headroom,
        redistribute=params["defense"],
        alternates=params["alternates"],
    )
    config = ScenarioConfig(
        scenarios=params["scenarios"],
        seed=params["seed"],
        srg_fraction=params["srg_fraction"],
        corridor_miles=params["corridor_miles"],
        sample_pairs=params["sample_pairs"],
        cascade=cascade,
    )
    # Route on the serving session's engine so the request reuses its
    # sweeps instead of building and warming a second engine.
    report = run_monte_carlo(
        network, service.session.model, config,
        engine=service.session.engine,
    )
    return report.as_dict()


def _handle_shared_risk(service, params: Dict[str, Any]) -> dict:
    from ..core.sharedrisk import shared_risk_report
    from ..topology.zoo import network_by_name

    network = service.session.network
    if network is None:
        raise ProtocolError(
            "bad_request", "shared_risk requires a network-backed session"
        )
    other_name = params["other"]
    if other_name == network.name:
        # Self-comparison: divergence 0, full co-location — a useful
        # sanity anchor (and it keeps the op exercisable on sessions
        # serving networks outside the zoo corpus).
        other = network
    else:
        # An unknown name raises KeyError: a bad_request reply.
        other = network_by_name(other_name)
    report = shared_risk_report(network, other)
    return {
        "network_a": report.network_a,
        "network_b": report.network_b,
        "colocation_fraction_a": report.colocation_fraction_a,
        "colocation_fraction_b": report.colocation_fraction_b,
        "risk_profile_divergence": report.risk_profile_divergence,
        "shared_metro_risk": report.shared_metro_risk,
        "diversification_score": report.diversification_score,
    }


def _load_json_file(path: str) -> Any:
    """CLI loader for ``update-forecast`` and ``ingest``: JSON file
    path or ``-``."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- the registry ------------------------------------------------------------

_STRATEGY_CLI = {"flag": "--strategy", "choices": ("exact", "per-source")}

REGISTRY: "Dict[str, OpSpec]" = {}


def _register(spec: OpSpec) -> OpSpec:
    if spec.name in REGISTRY:
        raise ValueError(f"duplicate op {spec.name!r}")
    REGISTRY[spec.name] = spec
    return spec


_register(OpSpec(
    name="route",
    kind="read",
    doc="The RiskRoute path for one pair.",
    params=(
        Param("source", "source PoP id", required=True, check=_check_str,
              cli={"positional": True,
                   "help": 'PoP id, e.g. "Level3:Houston, TX"'},
              example="diamond:west"),
        Param("target", "target PoP id", required=True, check=_check_str,
              cli={"positional": True}, example="diamond:east"),
        Param("strategy",
              "sweep strategy (exact | per-source; unset = exact)",
              check=_check_strategy, cli=_STRATEGY_CLI, example="exact"),
    ),
    handler=_handle_route,
    routing="pair",
))

_register(OpSpec(
    name="pair",
    kind="read",
    doc="Baseline and RiskRoute for one pair, with rr/dr terms.",
    params=(
        Param("source", "source PoP id", required=True, check=_check_str,
              cli={"positional": True}, example="diamond:west"),
        Param("target", "target PoP id", required=True, check=_check_str,
              cli={"positional": True}, example="diamond:east"),
    ),
    handler=_handle_pair,
    routing="pair",
))

_register(OpSpec(
    name="ratios",
    kind="read",
    doc="Equation 5/6 aggregates over the (sub)population of pairs.",
    params=(
        Param("sources", "restrict source PoPs", check=_check_name_list),
        Param("targets", "restrict target PoPs", check=_check_name_list),
        Param("strategy",
              "sweep strategy (exact | per-source; unset = exact up to "
              "60 PoPs, per-source above)",
              check=_check_strategy, cli=_STRATEGY_CLI, example="exact"),
    ),
    handler=_handle_ratios,
))

_register(OpSpec(
    name="provision",
    kind="read",
    doc="Equation 4 link recommendations.",
    params=(
        Param("k", "links to add greedily (1 = rank candidates)",
              default=1, check=_check_int,
              cli={"flag": "--k", "type": int}, example=2),
        Param("top", "truncate the ranking (ignored for k > 1)",
              check=_check_int,
              cli={"flag": "--top", "type": int}, example=3),
    ),
    handler=_handle_provision,
))

_register(OpSpec(
    name="scenario",
    kind="read",
    doc="Monte Carlo cascading-failure comparison of both policies.",
    params=(
        Param("scenarios", "correlated-failure events to draw",
              default=200, check=_check_int,
              cli={"flag": "--scenarios", "type": int}, example=4),
        Param("seed", "replay seed for the whole run",
              default=2013, check=_check_int,
              cli={"flag": "--seed", "type": int}, example=7),
        Param("srg_fraction",
              "probability a scenario activates a shared-risk group",
              default=0.5, check=_check_number,
              cli={"flag": "--srg-fraction", "type": float}, example=0.5),
        Param("headroom",
              "capacity multiplier over baseline load (0 = unlimited)",
              default=1.5, check=_check_number,
              cli={"flag": "--headroom", "type": float}, example=1.2),
        Param("defense",
              "dynamic load redistribution across risk-aware alternates",
              default=True, check=_check_bool,
              cli={"flag": "--defense", "type": int, "choices": (0, 1)},
              example=1),
        Param("alternates", "alternates a defended shed is split across",
              default=3, check=_check_int,
              cli={"flag": "--alternates", "type": int}, example=2),
        Param("sample_pairs", "survival route sample size",
              default=60, check=_check_int,
              cli={"flag": "--sample-pairs", "type": int}, example=6),
        Param("corridor_miles", "shared-risk corridor cell size",
              default=50.0, check=_check_number,
              cli={"flag": "--corridor-miles", "type": float},
              example=50.0),
    ),
    handler=_handle_scenario,
))

_register(OpSpec(
    name="shared_risk",
    kind="read",
    doc="Shared outage exposure vs another network (Section 8).",
    params=(
        Param("other", "the other network's corpus name", required=True,
              check=_check_str,
              cli={"positional": True,
                   "help": 'corpus network name, e.g. "Sprint"'},
              example="diamond"),
    ),
    handler=_handle_shared_risk,
    cli_name="shared-risk",
))

_register(OpSpec(
    name="update_forecast",
    kind="write",
    doc="Hot-swap the forecast risk field (o_f) atomically.",
    params=(
        Param("risk", "object of {pop_id: forecast_risk}", required=True,
              check=_check_risk_map,
              cli={"positional": True, "metavar": "risk_file",
                   "help": "JSON file of {pop_id: o_f} ('-' reads stdin)",
                   "loader": _load_json_file},
              example={}),
        Param("default", "forecast risk for PoPs absent from 'risk'",
              default=0.0, check=_check_number, example=0.0),
        Param("token", "idempotency token (applied at most once)",
              check=_check_str),
    ),
    cli_name="update-forecast",
))

_register(OpSpec(
    name="ingest",
    kind="write",
    doc="Stream disaster events into the historical risk field (o_h).",
    params=(
        Param("events",
              "list of {event_type, lat, lon, year} disaster records",
              required=True, check=_check_event_list,
              cli={"positional": True, "metavar": "events_file",
                   "help": "JSON file of [{event_type, lat, lon, year}] "
                           "records ('-' reads stdin)",
                   "loader": _load_json_file},
              example=[{"event_type": "fema-hurricane",
                        "lat": 29.95, "lon": -90.07, "year": 2005}]),
        Param("token", "idempotency token (applied at most once)",
              check=_check_str, cli={"flag": "--token"}),
    ),
))

_register(OpSpec(
    name="stats",
    kind="control",
    doc="Server counters, engine cache stats, current fingerprint.",
))

_register(OpSpec(
    name="subscribe",
    kind="control",
    doc="Poll risk-fingerprint changes since a changelog version.",
    params=(
        Param("since", "last changelog version already seen",
              default=0, check=_check_non_negative_int,
              cli={"flag": "--since", "type": int}, example=0),
    ),
))

_register(OpSpec(
    name="health",
    kind="read",
    doc="Cheap liveness probe (bypasses the request queue).",
))


# -- derived views -----------------------------------------------------------


def registered_ops() -> "Tuple[OpSpec, ...]":
    """Every spec, in registration order."""
    return tuple(REGISTRY.values())


def get_spec(op: str) -> OpSpec:
    """The spec for ``op``.

    Raises:
        ProtocolError: ``unknown_op`` for a name outside the registry.
    """
    spec = REGISTRY.get(op)
    if spec is None:
        raise ProtocolError(
            "unknown_op",
            f"unknown op {op!r}; expected one of {list(REGISTRY)}",
        )
    return spec


def spec_for_cli(command: str) -> OpSpec:
    """The spec whose CLI subcommand is ``command``."""
    for spec in REGISTRY.values():
        if spec.command == command:
            return spec
    raise KeyError(command)


def retry_safe_op_names() -> "frozenset":
    """Ops a disconnected client may blindly re-send."""
    return frozenset(s.name for s in REGISTRY.values() if s.retry_safe)
