"""The benchmark's workloads and their seeded request streams.

A workload fixes the daemon's deployment (topology, shard count) and
the traffic sent to it.  Every request the daemon receives is generated
here from the run's ``--seed``; the same seed gives the same requests.

Traffic comes in three timed phases (see :mod:`loadgen`), which each
daemon runs in several rounds, in this order:

* an **open-loop** phase: Poisson ``pair`` reads at a fixed rate of
  about an eighth of the workload's saturated read rate on a 2-core
  x86-64 host (at a fifth or more, queueing amplified the host's own
  speed drift, up to a third within a minute, into run-to-run spreads
  of the open-loop latencies of 0.15 to 0.35).
  Where the workload has ``side_ops``, one paced sequential stream of
  them (a fixed gap after each reply) runs concurrently, so writes
  land while reads are in flight.  The gap keeps the daemon busy with
  them about a seventh of the time: at a third, the share of reads
  queued behind a write, and with it the read p50, followed the host's
  speed drift;
* a **saturation** phase: a closed loop that replays the read mix at a
  fixed number of outstanding requests;
* a **probe** phase: ``probe_ops`` sent one at a time with nothing else
  in flight.  ``traced_probe_ops`` join it in traced runs only:
  ``provision`` (about a second of work that blocks the batch loop)
  feeds per-layer metrics and no end-to-end one.

Before its first round a daemon's sweep cache is refilled (untimed),
and again before each saturation slice that follows writes, so the
reads of ``l3-pair-zipf`` always find warm caches.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Workload:
    """One deployment plus its traffic."""

    name: str
    network: str                  # "Level3" or "continental"
    shards: int
    replicas: int
    pair_rate: float              # open-loop pair reads per second
    zipf_pairs: bool              # Zipf-skewed pairs, else uniform
    side_ops: Tuple[str, ...] = ()     # paced alongside the open loop
    side_gap: float = 0.0              # seconds between side requests
    probe_ops: Tuple[str, ...] = ()    # sent alone after the other phases
    traced_probe_ops: Tuple[str, ...] = ()  # probed in traced runs only
    sat_mix: Tuple[Tuple[str, float], ...] = (("pair", 1.0),)
    #: Shares of the measured time: open loop, saturation, probe.
    phase_shares: Tuple[float, float, float] = (0.45, 0.2, 0.35)
    sat_outstanding: int = 16     # closed-loop requests in flight
    ratios_sources: int = 5       # sources per subset ratios request
    ratios_targets: Optional[int] = None   # None: every target
    why: str = ""

    def ops(self, traced: bool) -> Tuple[str, ...]:
        """Every op the workload sends."""
        return ("pair",) + self.side_ops + self.probes(traced)

    def probes(self, traced: bool) -> Tuple[str, ...]:
        """The probe phase's ops."""
        return self.probe_ops + (self.traced_probe_ops if traced else ())


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="l3-pair-zipf",
            network="Level3", shards=0, replicas=1,
            pair_rate=60.0, zipf_pairs=True,
            phase_shares=(0.7, 0.3, 0.0),
            why="Level3 unsharded, Zipf pair reads only, on warm caches: "
                "serving overhead (protocol, queue, service) dominates",
        ),
        Workload(
            name="l3-mixed-sharded",
            network="Level3", shards=2, replicas=2,
            pair_rate=50.0, zipf_pairs=True,
            side_ops=("ratios", "ingest", "update_forecast"), side_gap=0.3,
            traced_probe_ops=("provision",),
            sat_mix=(("pair", 0.97), ("ratios", 0.03)),
            phase_shares=(0.75, 0.25, 0.0),
            why="Level3 with 2 shards x 2 replicas: Zipf pairs and subset "
                "ratios under concurrent ingest and forecast write barriers",
        ),
        Workload(
            name="continental-pair",
            network="continental", shards=0, replicas=1,
            pair_rate=18.0, zipf_pairs=False,
            probe_ops=("ratios", "ingest", "update_forecast"),
            sat_outstanding=8, ratios_sources=2, ratios_targets=20,
            phase_shares=(0.3, 0.2, 0.5),
            why="1500-PoP continental network, uniform pair reads: cold sweeps "
                "make the engine kernel the bottleneck",
        ),
    )
}


class RequestFactory:
    """Seeded request parameters for one workload, run and phase.

    The Zipf pair population depends on ``seed`` only, so every phase
    of a run shares one hot set; ``stream`` names the phase and gives
    it its own request sequence.  The population's sources cycle
    through a seeded permutation of the PoPs, so every seed's hot set
    has the same number of distinct sources (sweeps to cache) and only
    which PoPs they are changes with the seed.
    """

    def __init__(self, workload: Workload,
                 pops: Sequence[Tuple[str, float, float]],
                 seed: int, stream: str) -> None:
        self.workload = workload
        self._pops = list(pops)           # (pop_id, lat, lon), sorted by id
        self._ids = [p[0] for p in self._pops]
        self._pairs: List[Tuple[str, str]] = []
        if workload.zipf_pairs:
            population_rng = random.Random(seed)
            sources = population_rng.sample(self._ids, len(self._ids))
            for rank in range(2048):
                source = sources[rank % len(sources)]
                target = population_rng.choice(self._ids)
                while target == source:
                    target = population_rng.choice(self._ids)
                self._pairs.append((source, target))
            self._cum = list(itertools.accumulate(
                1.0 / rank ** 1.1 for rank in range(1, len(self._pairs) + 1)
            ))
        self._rng = random.Random(f"{seed}:{stream}")

    def warm_pairs(self) -> List[dict]:
        """One ``pair`` per distinct source of the Zipf population (none
        for uniform pairs): these fill the sweep cache."""
        return [{"source": s, "target": t}
                for s, t in self._pairs[:len(self._ids)]]

    def pair(self) -> dict:
        if self.workload.zipf_pairs:
            source, target = self._rng.choices(self._pairs, cum_weights=self._cum)[0]
        else:
            source, target = self._rng.sample(self._ids, 2)
        return {"source": source, "target": target}

    def ratios(self) -> dict:
        sources = self._rng.sample(self._ids, self.workload.ratios_sources)
        params = {"sources": sorted(sources)}
        if self.workload.ratios_targets is not None:
            params["targets"] = sorted(
                self._rng.sample(self._ids, self.workload.ratios_targets)
            )
        return params

    def provision(self) -> dict:
        return {"k": 1, "top": 10}

    def ingest(self) -> dict:
        """Ten events at fresh coordinates near randomly chosen PoPs."""
        from repro.disasters.events import EventType

        events = []
        for _ in range(10):
            _, lat, lon = self._rng.choice(self._pops)
            events.append({
                "event_type": self._rng.choice(EventType.ALL),
                "lat": round(lat + self._rng.uniform(-0.3, 0.3), 6),
                "lon": round(lon + self._rng.uniform(-0.3, 0.3), 6),
                "year": self._rng.randint(1995, 2012),
            })
        return {"events": events}

    def update_forecast(self) -> dict:
        """A storm footprint: forecast risk on a few PoPs, 0 elsewhere."""
        hit = self._rng.sample(self._ids, 12)
        return {
            "risk": {pop: round(self._rng.uniform(1e-4, 1e-2), 8) for pop in hit},
            "default": 0.0,
        }

    def params(self, op: str) -> dict:
        return getattr(self, op)()

    def schedule(self, seconds: float) -> List[float]:
        """Open-loop ``pair`` arrival offsets: a Poisson process
        conditioned on its count, ``round(pair_rate * seconds)`` arrivals
        at uniformly drawn times, so every seed offers the same work."""
        count = round(self.workload.pair_rate * seconds)
        return sorted(self._rng.uniform(0.0, seconds) for _ in range(count))
