"""Check the daemon's replies against a direct ``RoutingSession``.

The oracle builds its own session over the same topology and model,
replays every write in the order the daemon applied it (writes travel
on one connection, so send order is apply order), and after each write
recomputes a seeded sample of the reads the daemon answered under that
risk fingerprint.  A read is wrong when its payload differs from the
direct answer after a JSON round trip by more than :data:`REL_TOL`, or
when its fingerprint is not one the replayed write sequence produces.
Each write's reply (``changed``, the ingest delta) and fingerprint must
match exactly.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, List

from loadgen import WRITE_OPS, Record

#: Reads checked per op and run (all of them when fewer were served).
SAMPLE = {"pair": 40, "ratios": 10, "provision": 1}

#: Relative tolerance on served floats.  Aggregates sum in the order a
#: cached sweep settled its nodes, and the bucketed and heap kernels
#: may settle tied nodes differently, so a served aggregate can differ
#: from a cold direct answer in the last bits; such replies are counted
#: as ``inexact``, not wrong.
REL_TOL = 1e-9


def _normal(value):
    return json.loads(json.dumps(value))


def _close(served, direct) -> bool:
    """Structural equality with float leaves compared to ``REL_TOL``."""
    if isinstance(served, dict) and isinstance(direct, dict):
        return served.keys() == direct.keys() and all(
            _close(served[k], direct[k]) for k in served
        )
    if isinstance(served, list) and isinstance(direct, list):
        return len(served) == len(direct) and all(
            _close(a, b) for a, b in zip(served, direct)
        )
    if isinstance(served, float) or isinstance(direct, float):
        return math.isclose(served, direct, rel_tol=REL_TOL, abs_tol=1e-300)
    return served == direct


def _expected_read(session, record: Record) -> dict:
    from repro.server.protocol import (
        pair_to_dict,
        ratios_to_dict,
        recommendation_to_dict,
    )

    params = record.params
    if record.op == "pair":
        return pair_to_dict(session.pair(params["source"], params["target"]))
    if record.op == "ratios":
        return ratios_to_dict(session.all_pairs(
            sources=params.get("sources"), targets=params.get("targets")
        ))
    if record.op == "provision":
        recs = session.provision(k=params["k"], top=params["top"])
        return {"recommendations": [recommendation_to_dict(r) for r in recs]}
    raise ValueError(f"no oracle for op {record.op!r}")


def _sample_reads(records: List[Record], label: str) -> List[Record]:
    rng = random.Random(f"{label}:oracle")
    sample: List[Record] = []
    for op, size in SAMPLE.items():
        served = [r for r in records if r.op == op and r.ok]
        sample.extend(rng.sample(served, min(size, len(served))))
    return sample


def _events(records: List[dict]):
    from repro.disasters.events import DisasterEvent
    from repro.geo.coords import GeoPoint

    return [
        DisasterEvent(
            event_type=e["event_type"],
            location=GeoPoint(lat=float(e["lat"]), lon=float(e["lon"])),
            year=int(e["year"]),
        )
        for e in records
    ]


class _Replay:
    """Writes applied directly to the oracle session."""

    def __init__(self, session) -> None:
        self.session = session
        self._streaming = None

    def apply(self, record: Record) -> dict:
        """Apply one write; returns the reply result it should produce."""
        session = self.session
        params = record.params
        if record.op == "update_forecast":
            full = {
                pop: float(params["risk"].get(pop, params["default"]))
                for pop in session.model.pop_ids()
            }
            return {"changed": session.update_forecast(full),
                    "duplicate": False}
        if self._streaming is None:
            from repro.risk.streaming import default_streaming_model

            self._streaming = default_streaming_model()
        delta = self._streaming.ingest(_events(params["events"]))
        body = delta.as_dict()
        body["changed"] = session.update_historical(
            self._streaming.pop_risks(session.network)
        )
        body["duplicate"] = False
        return body


def check(session, records: List[Record], label: str) -> Dict[str, object]:
    """Replay one daemon's ``records`` on a fresh direct ``session``.

    Returns ``{"checked": n, "inexact": n, "wrong": [description, ...]}``.
    """
    wrong: List[str] = []
    checked = inexact = 0
    by_fingerprint: Dict[str, List[Record]] = {}
    for record in _sample_reads(records, label):
        by_fingerprint.setdefault(record.reply.get("fingerprint"), []).append(
            record
        )

    def check_reads(fingerprint: str) -> None:
        nonlocal checked, inexact
        for record in by_fingerprint.pop(fingerprint, []):
            checked += 1
            expected = _normal(_expected_read(session, record))
            if record.reply["result"] == expected:
                continue
            if _close(record.reply["result"], expected):
                inexact += 1
            else:
                wrong.append(f"{record.op}: served {record.reply['result']}"
                             f" != direct {expected} for {record.params}")

    replay = _Replay(session)
    check_reads(session.engine.risk_fingerprint)
    writes = sorted(
        (r for r in records if r.op in WRITE_OPS), key=lambda r: r.sent
    )
    for record in writes:
        checked += 1
        if not record.ok:
            wrong.append(f"{record.op}: failed, so the replay diverges")
            break
        expected = _normal(replay.apply(record))
        fingerprint = session.engine.risk_fingerprint
        if record.reply["result"] != expected:
            wrong.append(f"{record.op}: reply {record.reply['result']} "
                         f"!= expected {expected}")
        if record.reply.get("fingerprint") != fingerprint:
            wrong.append(f"{record.op}: fingerprint differs after replay")
        check_reads(fingerprint)
    for fingerprint, pending in by_fingerprint.items():
        for record in pending:
            wrong.append(
                f"{record.op}: served under fingerprint {fingerprint!r}, "
                "which no replayed write produces"
            )
    return {"checked": checked, "inexact": inexact, "wrong": wrong}
