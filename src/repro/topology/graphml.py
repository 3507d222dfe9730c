"""GraphML input compatible with the Internet Topology Zoo.

Topology Zoo files are GraphML with per-node ``label``, ``Latitude`` and
``Longitude`` attributes.  This module lets a real Zoo map drop into the
reproduction in place of a synthetic network.

Nodes without coordinates (a handful of Zoo maps have satellite or
unlabeled nodes) are skipped, along with their incident edges, matching
how the paper's analysis is necessarily geolocation-only.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, IO, Optional, Union

from ..geo.coords import GeoPoint
from .network import Network, NetworkTier, PoP

__all__ = ["read_graphml"]

_NS = "http://graphml.graphdrawing.org/xmlns"


def _tag(name: str) -> str:
    return f"{{{_NS}}}{name}"


def read_graphml(
    source: Union[str, IO[str]],
    name: Optional[str] = None,
    tier: str = NetworkTier.TIER1,
) -> Network:
    """Parse a Topology Zoo GraphML document into a :class:`Network`.

    Args:
        source: a filename or an open file-like object.
        name: network name override; defaults to the graph's Network/label
            attribute or ``"unnamed"``.
        tier: tier to assign the parsed network.

    Raises:
        ValueError: for documents without a <graph> element.
    """
    tree = ET.parse(source)
    root = tree.getroot()
    graph_el = root.find(_tag("graph"))
    if graph_el is None:
        raise ValueError("GraphML document has no <graph> element")

    # Resolve attribute keys: Zoo uses <key attr.name="Latitude" id="d29">.
    key_names: Dict[str, str] = {}
    for key_el in root.findall(_tag("key")):
        attr_name = key_el.get("attr.name")
        key_id = key_el.get("id")
        if attr_name and key_id:
            key_names[key_id] = attr_name

    def data_of(element: ET.Element) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for data_el in element.findall(_tag("data")):
            key_id = data_el.get("key", "")
            attr = key_names.get(key_id, key_id)
            out[attr] = (data_el.text or "").strip()
        return out

    graph_data = data_of(graph_el)
    network_name = name or graph_data.get("Network") or graph_data.get("label") or "unnamed"
    network = Network(network_name, tier=tier)

    node_ids: Dict[str, str] = {}
    for node_el in graph_el.findall(_tag("node")):
        raw_id = node_el.get("id")
        if raw_id is None:
            continue
        attrs = data_of(node_el)
        lat_text = attrs.get("Latitude")
        lon_text = attrs.get("Longitude")
        if not lat_text or not lon_text:
            continue  # ungeolocated node: unusable for risk analysis
        try:
            location = GeoPoint(float(lat_text), float(lon_text))
        except ValueError:
            continue
        label = attrs.get("label") or raw_id
        pop_id = f"{network_name}:{label}"
        if network.has_pop(pop_id):
            pop_id = f"{pop_id}#{raw_id}"
        network.add_pop(PoP(pop_id=pop_id, city=label, location=location))
        node_ids[raw_id] = pop_id

    for edge_el in graph_el.findall(_tag("edge")):
        src = edge_el.get("source")
        dst = edge_el.get("target")
        if src not in node_ids or dst not in node_ids:
            continue
        pop_a, pop_b = node_ids[src], node_ids[dst]
        if pop_a == pop_b or network.has_link(pop_a, pop_b):
            continue
        network.add_link(pop_a, pop_b)
    return network
