"""RiskRoute end-to-end load benchmark, with a traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload l3-pair-zipf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

A run starts the daemon (``perfbench/launcher.py``) in its own process,
drives it over TCP with the load generator (``perfbench/loadgen.py``)
through the workload's phases (``perfbench/workloads.py``), checks a
seeded sample of the replies against a direct ``RoutingSession``
(``perfbench/oracle.py``) and prints the metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The exit code is 1 when any reply failed
or was wrong, 2 when the repository's ``src/repro`` is missing.

Set-up (``setup_s``) runs from launching the daemon until it answers the
first ``pair`` sent after a warm-up of one request of each op the
workload sends, so lazy state (the streaming model, landmarks, shard
attach) is built inside set-up.  Every set-up gets a fresh risk-field
cache directory, so the cold KDE is part of it.

A ``--trace 0`` run starts three daemons one after another; each is set
up, then driven for a third of ``--seconds`` through ``ROUNDS`` rounds
of every phase, so each phase samples the whole run.  The run reports
the median set-up and pools the three daemons' requests for the other
metrics.  The host's speed flips by a quarter or more every few
seconds, and slices spread across the run sample those flips evenly.

A ``--trace 1`` run measures an untraced daemon's open-loop phase, then
a traced daemon (``perfbench/tracing.py``) through every phase, and
reports self time per layer plus the tracing overhead: the traced
``pair`` p50 minus the untraced one.  The ``pair`` p99 and the ratios
and write latencies are per-layer metrics, from the untraced daemon:
the ``pair`` tail follows how long writes hold the batch loop, and
those compute-bound latencies follow the host's speed, which switches
between states up to 1.7x apart every few seconds, so their
run-to-run spread is near or past a quarter.

State (the continental fields file, per-run cache dirs and spans) lives
under ``.perfbench_state/`` in the working directory.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import oracle
import tracing
from launcher import SPANS_ENV
from loadgen import LoadGenerator, Record
from workloads import WORKLOADS, RequestFactory, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench_state")
CONTINENTAL_FIELDS = os.path.join(STATE, "continental-fields.json")

SETUP_REPEATS = 3
READY_TIMEOUT = 150.0
ROUNDS = 3      # each daemon runs its phases this many times, interleaved
MIN_PROBES = 5  # probe rounds even when one round outlasts the phase

END_TO_END = (
    ("setup_s", "s"),
    ("pair_p50_ms", "ms"),
    ("read_sat_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
)


# -- the daemon process ------------------------------------------------------


class Daemon:
    """One launcher process, ready to serve once constructed."""

    def __init__(self, workload: Workload, run_dir: str,
                 spans_dir: Optional[str] = None) -> None:
        self.cache_dir = tempfile.mkdtemp(dir=run_dir, prefix="cache-")
        self.traced = bool(spans_dir)
        env = dict(os.environ, PYTHONPATH=SRC,
                   RISKROUTE_CACHE_DIR=self.cache_dir)
        env.pop(SPANS_ENV, None)
        if spans_dir:
            env[SPANS_ENV] = spans_dir
        cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
               "--network", workload.network,
               "--shards", str(workload.shards),
               "--replicas", str(workload.replicas)]
        if workload.network == "continental":
            cmd += ["--fields", CONTINENTAL_FIELDS]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     cwd=ROOT)
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        out = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("daemon did not become ready in time")
            readable, _, _ = select.select([out], [], [], remaining)
            if readable:
                chunk = os.read(out, 4096)
                if not chunk:
                    raise RuntimeError("daemon exited before becoming ready")
                buf += chunk
        word, port = buf.split(b"\n", 1)[0].decode().split()
        if word != "ready":
            raise RuntimeError(f"unexpected launcher output {word!r}")
        return int(port)

    def stop(self) -> None:
        """SIGTERM (drain and stop), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _proc_status(pid: int) -> Dict[str, int]:
    """``/proc/<pid>/status`` memory fields, in kB."""
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "RssShmem"):
                fields[key] = int(value.split()[0])
    return fields


def _cpu_seconds(pids: Sequence[int]) -> float:
    """User plus system CPU seconds of ``pids`` (``/proc/<pid>/stat``)."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(daemon_pid: int, shard_pids: Sequence[int]) -> float:
    """Daemon peak RSS plus each shard's peak RSS minus its shared-memory
    pages, so the exported engine segments count once."""
    kb = _proc_status(daemon_pid)["VmHWM"]
    for pid in shard_pids:
        status = _proc_status(pid)
        kb += status["VmHWM"] - status.get("RssShmem", 0)
    return kb / 1024.0


def _shard_pids(stats: dict) -> List[int]:
    shards = stats.get("shards") or {}
    return [s["pid"] for s in shards.get("per_shard", []) if s]


# -- one daemon's life -------------------------------------------------------


class Session:
    """What one daemon's run produced."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.records: List[Record] = []
        self.cache_dir = ""
        self.phases: Dict[str, List[Record]] = {}
        self.window = (0.0, 0.0)
        #: (reads completed, seconds) of each closed-loop slice
        self.sat_slices: List[Tuple[int, float]] = []
        self.stats: List[dict] = []
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0


def _phase_seconds(workload: Workload, seconds: float) -> Dict[str, float]:
    """How ``seconds`` splits into the workload's phases.  A probe phase
    of no length still sends one round (the traced ``provision``)."""
    return {
        phase: share * seconds
        for phase, share in zip(("open", "sat", "probe"),
                                workload.phase_shares)
    }


async def _drive(daemon: Daemon, workload: Workload, pops, seed: int,
                 index: int, seconds: float,
                 phases: Sequence[str]) -> Session:
    session = Session()
    traced = daemon.traced

    def factory(stream: str) -> RequestFactory:
        # Each daemon of a run draws its own requests from the seed.
        return RequestFactory(workload, pops, seed, f"{index}:{stream}")

    lg = LoadGenerator()
    await lg.connect("127.0.0.1", daemon.port)
    try:
        warm = factory("warm")
        for op in workload.ops(traced) + ("pair",):
            session.records.append(await lg.call(op, warm.params(op), "warm"))
        last = session.records[-1]
        session.setup_s = (last.done or time.perf_counter()) - daemon.launched
        if not phases:
            return session

        async def stats() -> dict:
            record = await lg.call("stats", {}, "stats")
            session.stats.append(record.reply["result"])
            return session.stats[-1]

        probes = workload.probes(traced)
        lengths = _phase_seconds(workload, seconds / ROUNDS)
        pids = [daemon.proc.pid] + _shard_pids(await stats())
        # One round-robin of side ops runs on across the rounds.
        side = (factory("side"), itertools.cycle(workload.side_ops),
                workload.side_gap) if workload.side_ops else None
        opener, saturator, prober = (factory(s) for s in ("open", "sat",
                                                          "probe"))
        recorded = {phase: session.phases.setdefault(phase, [])
                    for phase in phases}

        async def refill() -> None:
            # Untimed: one pair per hot source refills the sweep cache.
            calls = [lg.call("pair", p, "warm") for p in opener.warm_pairs()]
            session.records.extend(await asyncio.gather(*calls))

        await refill()
        start = time.perf_counter()
        for round_ in range(ROUNDS):
            if "open" in phases:
                cpu0 = _cpu_seconds(pids)
                recorded["open"] += await lg.open_loop(
                    opener.schedule(lengths["open"]), opener, side
                )
                session.cpu_s += _cpu_seconds(pids) - cpu0
                await stats()
            if "sat" in phases:
                # The closed loop starts on warm caches, so its rate does
                # not hinge on how many sweeps the last write left cold.
                if workload.side_ops or "open" not in phases:
                    await refill()
                sat_start = time.perf_counter()
                records = await lg.closed_loop(
                    saturator, workload.sat_mix, lengths["sat"],
                    workload.sat_outstanding,
                )
                # Completions over the time to the last of them, which
                # leaves out the requests cut off in flight at the end.
                done = [r.done for r in records if r.ok]
                if done:
                    session.sat_slices.append(
                        (len(done), max(done) - sat_start))
                recorded["sat"] += records
                await stats()
            # A probe with no length (the traced ``provision``) is one
            # round, in the last round only.
            if "probe" in phases and probes and (
                    lengths["probe"] or round_ == ROUNDS - 1):
                recorded["probe"] += await lg.probe(
                    prober, probes, lengths["probe"],
                    MIN_PROBES if lengths["probe"] else 1,
                )
                await stats()
        session.window = (start, time.perf_counter())
        for records in session.phases.values():
            session.records.extend(records)
        session.peak_rss_mb = _peak_rss_mb(daemon.proc.pid, pids[1:])
        return session
    finally:
        await lg.close()


def run_daemon(workload: Workload, run_dir: str, pops, seed: int,
               index: int, seconds: float, phases: Sequence[str],
               spans_dir: Optional[str] = None) -> Session:
    """Start daemon number ``index`` of a run, warm it up, run
    ``phases``, stop it."""
    daemon = Daemon(workload, run_dir, spans_dir)
    try:
        session = asyncio.run(
            _drive(daemon, workload, pops, seed, index, seconds, phases)
        )
    finally:
        daemon.stop()
    session.cache_dir = daemon.cache_dir
    return session


# -- metrics -----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _latencies_ms(records: Sequence[Record], op: str) -> List[float]:
    return [r.latency * 1e3 for r in records if r.op == op and r.ok]


def _op_records(session: Session, op: str) -> List[Record]:
    """Every measured request of ``op``: open-loop, side stream or probe."""
    return [
        r for phase in ("open", "probe") for r in session.phases.get(phase, [])
        if r.op == op
    ]


def saturated_rate(sessions: Sequence[Session]) -> float:
    """Closed-loop reads completed per second over every closed-loop
    slice of the run (every daemon runs ``ROUNDS``)."""
    slices = [s for session in sessions for s in session.sat_slices]
    seconds = sum(elapsed for _, elapsed in slices)
    return sum(done for done, _ in slices) / seconds if seconds else 0.0


def end_to_end(sessions: Sequence[Session]) -> Dict[str, float]:
    """End-to-end metrics over the daemons of one run."""
    def pct(op: str, q: float) -> float:
        return percentile(
            [ms for s in sessions for ms in _latencies_ms(_op_records(s, op), op)],
            q)

    completed = sum(1 for s in sessions for r in s.phases["open"] if r.ok)
    return {
        "setup_s": statistics.median(s.setup_s for s in sessions),
        "pair_p50_ms": pct("pair", 0.50),
        "read_sat_rps": saturated_rate(sessions),
        "cpu_ms_per_req": 1e3 * sum(s.cpu_s for s in sessions)
        / max(1, completed),
        "peak_rss_mb": max(s.peak_rss_mb for s in sessions),
    }


PER_LAYER = (
    ("server.protocol.decode_us", "us"),
    ("server.protocol.encode_us", "us"),
    ("server.protocol.reply_bytes", "bytes"),
    ("server.ops.validate_us", "us"),
    ("server.coalesce.queue_wait_p50_ms", "ms"),
    ("server.coalesce.queue_wait_p99_ms", "ms"),
    ("server.coalesce.batch_size_mean", "count"),
    ("server.service.execute_batch_ms", "ms"),
    ("server.service.apply_ingest_ms", "ms"),
    ("server.service.coalesce_ratio", "ratio"),
    ("server.service.compute_ratio", "ratio"),
    ("engine.prefetch_ms", "ms"),
    ("engine.route_pair_ms", "ms"),
    ("engine.ratios_ms", "ms"),
    ("engine.sweeps_computed", "count"),
    ("engine.sweep_cache_hit_ratio", "ratio"),
    ("engine.result_cache_hit_ratio", "ratio"),
    ("engine.landmarks.settle_skip_ratio", "ratio"),
    ("engine.update_model_ms", "ms"),
    ("engine.sweeps_invalidated", "count"),
    ("core.provisioning.provision_ms", "ms"),
    ("core.provisioning.sweeps_avoided_ratio", "ratio"),
    ("risk.kde.pop_risks_ms", "ms"),
    ("risk.streaming.ingest_ms", "ms"),
    ("stats.streaming.dirty_row_ratio", "ratio"),
    ("stats.fieldcache.hit_ratio", "ratio"),
    ("server.shards.execute_batch_ms", "ms"),
    ("server.shards.broadcast_ms", "ms"),
    ("server.shards.load_skew", "ratio"),
    ("server.shards.failovers", "count"),
    ("engine.shm.export_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("pair_p99_ms", "ms"),
    ("provision_p50_ms", "ms"),
    ("ratios_p50_ms", "ms"),
    ("ratios_p90_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("forecast_p50_ms", "ms"),
    ("error_rate", "ratio"),
    ("tracing_overhead_ms", "ms"),
)

_ENGINE_SPANS = ("engine.prefetch", "engine.route_pair", "engine.ratios",
                 "engine.update_model")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(session: Session, spans: List[list], base: Session,
              error_rate: float) -> Dict[str, float]:
    """Layer metrics of a traced session, with ``base`` the untraced
    open-loop session of the same run.

    Per-call self times and ratios cover the timed phases; the set-up
    layers (``pop_risks``, the shm export) report total self time over
    the daemon's life, and the field-cache hit ratio its lifetime
    counters.  The side-stream latencies (ratios and writes) come from
    ``base``, untraced, as does the ``pair`` p99; ``provision`` is
    probed in traced runs only.
    """
    window = tracing.aggregate(spans, session.window)
    life = tracing.aggregate(spans, (-math.inf, math.inf))

    def mean_self(name: str, scale: float = 1e3) -> float:
        entry = window.get(name)
        return scale * entry["self_s"] / entry["count"] if entry else 0.0

    def detail(name: str, size: int, where=window) -> List[float]:
        entry = where.get(name)
        return (entry or {}).get("detail") or [0] * size

    engine = [0] * 8
    for name in _ENGINE_SPANS:
        engine = [a + b for a, b in zip(engine, detail(name, 8))]
    s_hit, s_miss, _, r_hit, r_miss, t_queries, t_settled, _ = engine
    node_count = max(detail(name, 8)[7] for name in _ENGINE_SPANS)
    waits = [w * 1e3 for w in detail("server.coalesce.next_batch", 0)]
    batches = (window.get("server.coalesce.next_batch") or {}).get("count", 0)
    demands, coalesced, computed = detail("server.service.execute_batch", 3)
    runs, avoided = detail("core.provisioning.stats", 2)
    dirty, rows = detail("stats.streaming.dirty_mask", 2)
    encode = window.get("server.protocol.encode_reply")
    first, last = session.stats[0], session.stats[-1]
    field_cache = last.get("risk_field_cache", {})
    per_shard = [
        b["batches"] - a["batches"]
        for a, b in zip((first.get("shards") or {}).get("per_shard", []),
                        (last.get("shards") or {}).get("per_shard", []))
        if a and b
    ]
    open_records = session.phases["open"]

    def pct(op: str, q: float, of: Session = base) -> float:
        return percentile(_latencies_ms(_op_records(of, op), op), q)

    return {
        "server.protocol.decode_us": mean_self(
            "server.protocol.parse_request", 1e6),
        "server.protocol.encode_us": mean_self(
            "server.protocol.encode_reply", 1e6),
        "server.protocol.reply_bytes": _ratio(
            detail("server.protocol.encode_reply", 1)[0],
            encode["count"] if encode else 0),
        "server.ops.validate_us": mean_self("server.ops.validate_params", 1e6),
        "server.coalesce.queue_wait_p50_ms": percentile(waits, 0.50),
        "server.coalesce.queue_wait_p99_ms": percentile(waits, 0.99),
        "server.coalesce.batch_size_mean": _ratio(len(waits), batches),
        "server.service.execute_batch_ms": mean_self(
            "server.service.execute_batch"),
        "server.service.apply_ingest_ms": mean_self(
            "server.service.apply_ingest"),
        "server.service.coalesce_ratio": _ratio(coalesced, demands),
        "server.service.compute_ratio": _ratio(computed, demands),
        "engine.prefetch_ms": mean_self("engine.prefetch"),
        "engine.route_pair_ms": mean_self("engine.route_pair"),
        "engine.ratios_ms": mean_self("engine.ratios"),
        "engine.sweeps_computed": float(
            last["sweeps_computed"] - first["sweeps_computed"]),
        "engine.sweep_cache_hit_ratio": _ratio(s_hit, s_hit + s_miss),
        "engine.result_cache_hit_ratio": _ratio(r_hit, r_hit + r_miss),
        "engine.landmarks.settle_skip_ratio": (
            1.0 - _ratio(t_settled, t_queries * node_count)
            if t_queries else 0.0),
        "engine.update_model_ms": mean_self("engine.update_model"),
        "engine.sweeps_invalidated": float(
            detail("engine.update_model", 8)[2]),
        "core.provisioning.provision_ms": mean_self(
            "core.provisioning.provision"),
        "core.provisioning.sweeps_avoided_ratio": _ratio(
            avoided, runs + avoided),
        "risk.kde.pop_risks_ms": 1e3 * (
            life.get("risk.kde.pop_risks") or {}).get("self_s", 0.0),
        "risk.streaming.ingest_ms": mean_self("risk.streaming.ingest"),
        "stats.streaming.dirty_row_ratio": _ratio(dirty, rows),
        "stats.fieldcache.hit_ratio": _ratio(
            field_cache.get("hits", 0),
            field_cache.get("hits", 0) + field_cache.get("misses", 0)),
        "server.shards.execute_batch_ms": mean_self(
            "server.shards.execute_batch"),
        "server.shards.broadcast_ms": mean_self("server.shards.broadcast"),
        "server.shards.load_skew": (
            max(per_shard) / max(1, min(per_shard)) if per_shard else 0.0),
        "server.shards.failovers": float(
            (last.get("shards") or {}).get("failovers", 0)
            - (first.get("shards") or {}).get("failovers", 0)),
        "engine.shm.export_ms": 1e3 * (
            life.get("engine.shm.export") or {}).get("self_s", 0.0),
        "loadgen.lag_p99_ms": percentile(
            [(r.sent - r.due) * 1e3 for r in open_records], 0.99),
        "pair_p99_ms": pct("pair", 0.99),
        "provision_p50_ms": pct("provision", 0.50, session),
        "ratios_p50_ms": pct("ratios", 0.50),
        "ratios_p90_ms": pct("ratios", 0.90),
        "ingest_p50_ms": pct("ingest", 0.50),
        "ingest_p90_ms": pct("ingest", 0.90),
        "forecast_p50_ms": pct("update_forecast", 0.50),
        "error_rate": error_rate,
        "tracing_overhead_ms": pct("pair", 0.50, session)
        - pct("pair", 0.50),
    }


# -- one workload ------------------------------------------------------------


def _pops(workload: Workload) -> List[Tuple[str, float, float]]:
    from launcher import build_network

    network = build_network(workload.network)
    return sorted(
        (p.pop_id, p.location.lat, p.location.lon) for p in network.pops()
    )


def _failures(records: Sequence[Record]) -> List[str]:
    return [
        f"{r.op} ({r.phase}): "
        + (r.reply["error"]["code"] if r.reply else "no reply")
        for r in records
        if r.op != "stats" and not r.ok
    ]


def _check(workload: Workload, session: Session, label: str) -> List[str]:
    """Replay one daemon's traffic on a direct session.

    One daemon per run: each replay rebuilds the streaming model and
    re-applies every write, and the run budget has room for one.
    """
    from launcher import build_session

    os.environ["RISKROUTE_CACHE_DIR"] = session.cache_dir
    fields = CONTINENTAL_FIELDS if workload.network == "continental" else ""
    direct = build_session(workload.network, fields)
    outcome = oracle.check(direct, session.records, label)
    print(f"  oracle: {outcome['checked']} replies checked, "
          f"{len(outcome['wrong'])} wrong, {outcome['inexact']} equal only "
          f"within a relative {oracle.REL_TOL:g}")
    return outcome["wrong"]


def _report_ops(sessions: Sequence[Session]) -> None:
    print("  phase, op, sent / ok / failed, latency p50 ms")
    groups: Dict[Tuple[str, str], List[Record]] = {}
    for session in sessions:
        for record in session.records:
            groups.setdefault((record.phase, record.op), []).append(record)
    for (phase, op), mine in groups.items():
        ok = sum(1 for r in mine if r.ok)
        print(f"    {phase:6s} {op:16s} {len(mine):6d} {ok:6d} "
              f"{len(mine) - ok:4d} "
              f"{percentile(_latencies_ms(mine, op), 0.5):10.3f}")


def _report_spans(spans: List[list], window) -> None:
    print("  self time per span over the timed phases:")
    print(f"    {'span':36s} {'calls':>7s} {'self ms':>10s} {'mean us':>10s}")
    for name, entry in sorted(tracing.aggregate(spans, window).items()):
        if entry["self_s"] > 0:
            print(f"    {name:36s} {entry['count']:7d} "
                  f"{entry['self_s'] * 1e3:10.1f} "
                  f"{entry['self_s'] * 1e6 / entry['count']:10.1f}")


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    os.makedirs(STATE, exist_ok=True)
    if workload.network == "continental" and not os.path.exists(
            CONTINENTAL_FIELDS):
        print("preparing the continental risk fields (once, untimed)",
              file=sys.stderr, flush=True)
        from launcher import prepare_continental_fields

        prepare_continental_fields(CONTINENTAL_FIELDS)
    pops = _pops(workload)
    run_dir = tempfile.mkdtemp(dir=STATE, prefix=f"run-{workload.name}-")
    try:
        print(f"workload {workload.name} seed {seed} seconds {seconds:g} "
              f"trace {int(trace)}: {workload.why}")
        print(f"  open-loop pair rate {workload.pair_rate:g}/s; side ops "
              f"{workload.side_ops or '-'} (gap {workload.side_gap:g} s); "
              f"probe ops {workload.probes(trace) or '-'}")
        phases = ("open", "sat", "probe")
        if trace:
            # An untraced open loop as long as the traced one, for the
            # tracing overhead, then one traced daemon through every phase.
            base = run_daemon(workload, run_dir, pops, seed, 0, seconds,
                              ("open",))
            spans_dir = tempfile.mkdtemp(dir=run_dir, prefix="spans-")
            traced = run_daemon(workload, run_dir, pops, seed, 0, seconds,
                                phases, spans_dir)
            sessions = [base, traced]
        else:
            # Each daemon is set up (timed) and then measured for its
            # share of the run, so the run samples the host three times.
            sessions = [
                run_daemon(workload, run_dir, pops, seed, index,
                           seconds / SETUP_REPEATS, phases)
                for index in range(SETUP_REPEATS)
            ]
        everything = [r for s in sessions for r in s.records]
        problems = _failures(everything)
        # The traced daemon, or a daemon the seed picks, meets the oracle.
        checked = len(sessions) - 1 if trace else seed % len(sessions)
        problems += _check(workload, sessions[checked], f"{seed}:{checked}")
        failed = len(problems)
        attempted = sum(1 for r in everything if r.op != "stats")
        _report_ops(sessions)
        if trace:
            spans = tracing.load(spans_dir)
            values = per_layer(traced, spans, base, failed / attempted)
            units = PER_LAYER
            _report_spans(spans, traced.window)
        else:
            values = end_to_end(sessions)
            units = END_TO_END
            print("  set-ups (s): "
                  + ", ".join(f"{s.setup_s:.3f}" for s in sessions))
        for problem in problems[:20]:
            print(f"  FAILED {problem}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units}
        print(f"  {'metric':40s} {'value':>14s}  unit")
        for name, unit in units:
            print(f"  {name:40s} {values[name]:14.4f}  {unit}")
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="RiskRoute end-to-end load benchmark")
    parser.add_argument("--workload", required=True,
                        help=f"one of {sorted(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no RiskRoute sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, SRC)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                            bool(args.trace)) for name in names]
    print(json.dumps(results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}/{metric}": value
                    for name, r in zip(names, results)
                    for metric, value in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
