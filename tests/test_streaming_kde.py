"""Incremental KDE parity: append patches vs from-scratch rebuild.

The streaming contract: a :class:`StreamingKDE` whose event set was
grown through ``append_events`` evaluates **bit for bit** like a fresh
:class:`GaussianKDE` built over the same events — the rebuild path is
the parity oracle.  The hypothesis test drives random sequences of
append batches (the shape of live ingest) and pins tracked densities
and fingerprints against the oracle at 1e-9 relative tolerance (and in
fact exact equality, which the implementation guarantees); a grid field
evaluated after a patch matches the oracle's too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import BoundingBox
from repro.geo.grid import GeoGrid
from repro.stats.kde import GaussianKDE
from repro.stats.streaming import StreamingKDE
from tests.conftest import examples

BANDWIDTH = 40.0

#: Event/query coordinates over the central US — wide enough that a
#: query row can be out of truncation reach of a whole batch, narrow
#: enough that most batches dirty at least one tracked row.
coords = st.tuples(
    st.floats(min_value=28.0, max_value=46.0),
    st.floats(min_value=-115.0, max_value=-75.0),
)


def _array(pairs) -> np.ndarray:
    return np.asarray(list(pairs), dtype=np.float64).reshape(-1, 2)


class TestConstruction:
    def test_empty_batches_are_noop_deltas(self):
        kde = StreamingKDE(_array([(35.0, -95.0)]), BANDWIDTH)
        before = kde.fingerprint
        delta = kde.append_events(_array([]))
        assert delta.fingerprint == delta.parent_fingerprint == before
        assert kde.fingerprint == before


class TestIncrementalParity:
    @given(data=st.data())
    @settings(max_examples=examples(25), deadline=None)
    def test_random_appends_match_rebuild(self, data):
        """Any sequence of append batches == rebuild, bitwise."""
        events = data.draw(
            st.lists(coords, min_size=4, max_size=16), label="initial"
        )
        queries = _array(
            data.draw(st.lists(coords, min_size=3, max_size=10),
                      label="queries")
        )
        kde = StreamingKDE(_array(events), BANDWIDTH)
        # Register the tracked set cold so later calls exercise the
        # dirty-row patch path, not a fresh sweep.
        kde.tracked_density(queries)
        for _ in range(data.draw(st.integers(1, 4), label="ops")):
            batch = data.draw(
                st.lists(coords, min_size=1, max_size=5), label="append"
            )
            kde.append_events(_array(batch))
            events.extend(batch)
        oracle = GaussianKDE(_array(events), BANDWIDTH)
        incremental = kde.tracked_density(queries)
        rebuilt = oracle.density_array(queries)
        np.testing.assert_allclose(incremental, rebuilt, rtol=1e-9, atol=0.0)
        # The implementation promises more than the 1e-9 contract:
        assert np.array_equal(incremental, rebuilt)
        assert kde.fingerprint == oracle.fingerprint
        assert kde.n_events == oracle.n_events

    def test_delta_reports_patch_and_dirty_rows(self):
        base = [(35.0, -95.0), (35.2, -95.1), (43.0, -78.0)]
        kde = StreamingKDE(_array(base), BANDWIDTH)
        delta = kde.append_events(_array([(35.1, -94.9)]))
        assert delta.fingerprint != delta.parent_fingerprint
        assert delta.appended == 1
        # A row next to the new event is dirty; one far outside the
        # truncation reach is not.
        mask = delta.dirty_mask(_array([(35.05, -95.0), (46.5, -68.0)]))
        assert mask.tolist() == [True, False]

    def test_clean_rows_bitwise_stable_across_append(self):
        """A query out of reach keeps its *kernel sum* unchanged; its
        density moves only by the normaliser (and stays exactly 0.0
        when the sum is 0)."""
        kde = StreamingKDE(
            _array([(35.0, -95.0), (35.3, -95.2)]), BANDWIDTH
        )
        queries = _array([(46.9, -68.0)])  # far from everything
        assert kde.tracked_density(queries)[0] == 0.0
        kde.append_events(_array([(36.0, -96.0)]))
        assert kde.tracked_density(queries)[0] == 0.0


class TestGridFieldsAndDeltaCache:
    # Wide enough that one appended event's truncation-reach
    # neighborhood covers only part of the grid.
    GRID = GeoGrid(BoundingBox(25.0, -115.0, 48.0, -70.0), 12, 16)

    def test_evaluate_grid_matches_rebuild_after_patches(self):
        events = [(34.0, -97.0), (35.0, -95.0), (36.5, -93.0)]
        kde = StreamingKDE(_array(events), BANDWIDTH)
        kde.evaluate_grid(self.GRID)  # builds the index patched below
        kde.append_events(_array([(35.5, -94.5)]))
        events.append((35.5, -94.5))
        field = kde.evaluate_grid(self.GRID)
        oracle = GaussianKDE(_array(events), BANDWIDTH)
        expected = oracle.evaluate_grid(self.GRID)
        np.testing.assert_allclose(
            field.values, expected.values, rtol=1e-9, atol=0.0
        )
