"""Shared-memory engine state: export/attach parity and leak guards.

The segments :class:`~repro.engine.shm.SharedEngineState` creates live
in ``/dev/shm`` and outlive their creator — a parent that dies without
:meth:`close` (unhandled exception, ``sys.exit`` mid-serve, SIGTERM
handler that forgets teardown) used to leak pages sized like the whole
topology until reboot, and a respawned daemon then raced the stale
names.  The finalizer tests here pin the unlink guard from every exit
path:

* normal garbage collection without ``close()``;
* interpreter exit without ``close()`` — exercised in a real
  subprocess that ``sys.exit(3)``-s while holding live segments;
* the clean path stays single-unlink (``close()`` detaches the
  finalizer), and spawning *after* a dirty exit does not collide.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import RoutingSession
from repro.engine.shm import SharedEngineState, attach_engine
from tests.conftest import build_diamond_model, build_diamond_network


def _export() -> SharedEngineState:
    session = RoutingSession(build_diamond_network(), build_diamond_model())
    return SharedEngineState.export(session.engine)


def _segment_names(state: SharedEngineState):
    return [name for name, _, _ in state.manifest.segments.values()]


def _assert_all_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestExportAttach:
    def test_attach_sees_the_same_engine(self):
        session = RoutingSession(
            build_diamond_network(), build_diamond_model()
        )
        with SharedEngineState.export(session.engine) as state:
            manifest = state.manifest
            assert manifest.risk_fingerprint == (
                session.engine.risk_fingerprint
            )
            child = attach_engine(manifest, build_diamond_model())
            assert child.risk_fingerprint == manifest.risk_fingerprint
            np.testing.assert_array_equal(
                child._csr.indptr, session.engine._csr.indptr
            )


class TestUnlinkGuard:
    def test_close_unlinks_and_is_idempotent(self):
        state = _export()
        names = _segment_names(state)
        # Live while open …
        shared_memory.SharedMemory(name=names[0]).close()
        state.close()
        _assert_all_unlinked(names)
        state.close()  # idempotent: the second pass has nothing to do

    def test_garbage_collection_unlinks_without_close(self):
        state = _export()
        names = _segment_names(state)
        del state
        gc.collect()
        _assert_all_unlinked(names)

    def test_dirty_parent_exit_unlinks_segments(self):
        """A parent that sys.exit()s mid-serve must not leak segments:
        the finalizer runs at interpreter exit, and a fresh export
        afterwards comes up clean (no stale-name collision, no
        resource-tracker leak warnings)."""
        script = (
            "import json, sys\n"
            "from repro import RoutingSession\n"
            "from repro.engine.shm import SharedEngineState\n"
            "from tests.conftest import (\n"
            "    build_diamond_model, build_diamond_network,\n"
            ")\n"
            "session = RoutingSession(\n"
            "    build_diamond_network(), build_diamond_model()\n"
            ")\n"
            "state = SharedEngineState.export(session.engine)\n"
            "names = [n for n, _, _ in state.manifest.segments.values()]\n"
            "print(json.dumps(names), flush=True)\n"
            "sys.exit(3)  # dirty: no close(), segments still open\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
        )
        assert result.returncode == 3, result.stderr
        names = json.loads(result.stdout.strip().splitlines()[-1])
        assert names
        _assert_all_unlinked(names)
        # The unlink path unregisters from the resource tracker too:
        # no "leaked shared_memory" noise on the way down.
        assert "leaked" not in result.stderr, result.stderr

        # And the next daemon generation starts clean.
        with _export() as fresh:
            for name in _segment_names(fresh):
                shared_memory.SharedMemory(name=name).close()
