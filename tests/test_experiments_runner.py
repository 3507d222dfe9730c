"""Tests for the case-study helpers and the example scripts."""

import pathlib
import py_compile

from repro.experiments.figure12_tier1_casestudy import sample_ticks
from repro.experiments.figure13_regional_casestudy import networks_in_scope
from repro.forecast.storms import storm_advisories


class TestSampleTicks:
    def test_includes_endpoints(self):
        advisories = storm_advisories("Sandy")
        ticks = sample_ticks(advisories, 5)
        assert ticks[0] is advisories[0]
        assert ticks[-1] is advisories[-1]
        assert len(ticks) == 5

    def test_monotone_times(self):
        ticks = sample_ticks(storm_advisories("Irene"), 7)
        times = [t.time for t in ticks]
        assert times == sorted(times)

    def test_more_ticks_than_advisories(self):
        advisories = storm_advisories("Katrina")
        ticks = sample_ticks(advisories, 1000)
        assert len(ticks) == len(advisories)


class TestNetworksInScope:
    def test_katrina_gulf_only(self):
        in_scope = networks_in_scope("Katrina")
        assert "Telepak" in in_scope          # Gulf states regional
        assert "CoStreet" not in in_scope     # Pacific northwest

    def test_sandy_atlantic(self):
        in_scope = networks_in_scope("Sandy")
        assert "Digex" in in_scope            # mid-Atlantic regional
        assert "Goodnet" not in in_scope      # southwest

    def test_deterministic(self):
        assert networks_in_scope("Irene") == networks_in_scope("Irene")


class TestExamples:
    def test_all_examples_compile(self):
        examples = pathlib.Path(__file__).parent.parent / "examples"
        scripts = sorted(examples.glob("*.py"))
        assert len(scripts) >= 5
        for script in scripts:
            py_compile.compile(str(script), doraise=True)
