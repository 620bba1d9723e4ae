"""Interconnect topologies: 3D tori, twisted tori, and meshes.

The TPU v4 machine cables each 4x4x4 block as an electrical mesh and uses
OCSes to provide wraparound (torus) links and, for qualifying shapes, the
Camarero-style twisted wraparound that raises bisection bandwidth.
"""

from repro.topology.base import Coord, Topology
from repro.topology.builder import build_topology
from repro.topology.mesh import Mesh3D
from repro.topology.properties import (
    average_distance,
    bisection_links,
    bisection_bandwidth,
    diameter,
    theoretical_bisection_scaling,
)
from repro.topology.routing import RoutingTable, ecmp_edge_loads
from repro.topology.torus import Torus3D
from repro.topology.twisted import TwistedTorus3D, is_twistable

__all__ = [
    "Coord",
    "Topology",
    "Torus3D",
    "TwistedTorus3D",
    "Mesh3D",
    "build_topology",
    "is_twistable",
    "bisection_links",
    "bisection_bandwidth",
    "diameter",
    "average_distance",
    "theoretical_bisection_scaling",
    "RoutingTable",
    "ecmp_edge_loads",
]
