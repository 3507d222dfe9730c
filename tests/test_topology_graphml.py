"""Tests for repro.topology.graphml."""

import io

import pytest

from repro.geo.distance import haversine_miles
from repro.topology.graphml import read_graphml

ZOO_SAMPLE = """<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="label" attr.type="string" for="node" id="d1"/>
  <key attr.name="Latitude" attr.type="double" for="node" id="d2"/>
  <key attr.name="Longitude" attr.type="double" for="node" id="d3"/>
  <key attr.name="Network" attr.type="string" for="graph" id="d0"/>
  <graph edgedefault="undirected">
    <data key="d0">SampleNet</data>
    <node id="0">
      <data key="d1">Madison</data>
      <data key="d2">43.07</data>
      <data key="d3">-89.40</data>
    </node>
    <node id="1">
      <data key="d1">Chicago</data>
      <data key="d2">41.88</data>
      <data key="d3">-87.63</data>
    </node>
    <node id="2">
      <data key="d1">Satellite</data>
    </node>
    <edge source="0" target="1"/>
    <edge source="0" target="2"/>
  </graph>
</graphml>
"""


class TestRead:
    def test_parses_nodes_and_edges(self):
        net = read_graphml(io.StringIO(ZOO_SAMPLE))
        assert net.name == "SampleNet"
        assert net.pop_count == 2  # ungeolocated satellite node dropped
        assert net.link_count == 1

    def test_coordinates(self):
        net = read_graphml(io.StringIO(ZOO_SAMPLE))
        madison = net.pop("SampleNet:Madison")
        assert madison.location.lat == pytest.approx(43.07)

    def test_link_length_is_great_circle(self):
        net = read_graphml(io.StringIO(ZOO_SAMPLE))
        (link,) = net.links()
        expected = haversine_miles(
            net.pop("SampleNet:Madison").location,
            net.pop("SampleNet:Chicago").location,
        )
        assert link.length_miles == pytest.approx(expected, rel=1e-12)

    def test_name_override(self):
        net = read_graphml(io.StringIO(ZOO_SAMPLE), name="Override")
        assert net.name == "Override"
        assert net.has_pop("Override:Madison")

    def test_missing_graph_element(self):
        bad = '<?xml version="1.0"?><graphml xmlns="http://graphml.graphdrawing.org/xmlns"/>'
        with pytest.raises(ValueError):
            read_graphml(io.StringIO(bad))
