"""Topology discovery: candidate clusters per region of the Internet.

Paper Section 2.2: the server-assignment pipeline first builds "a
real-time topological map of the Internet that captures how well the
different parts of the Internet connect with each other" (*topology
discovery*), and scoring then evaluates *candidate* clusters -- not
every cluster on the planet -- for each mapping unit.  Discovery is a
*periodic* pipeline whose output the per-query scoring reads; it is
not recomputed per query.

:class:`CandidateIndex` is that pre-cut: a spatial index over
deployment clusters that returns the ``k`` geographically nearest
clusters (plus every same-AS in-network cluster, which may be the
network-topologically best choice regardless of distance).  The global
load balancer scores only these candidates, turning each mapping
decision from O(#clusters) into O(k).  The cluster set is fixed once
deployments are built, so each (location, AS) target's candidates are
computed on first use and then served from a memo; liveness is not
part of the answer (callers filter dead clusters themselves).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cdn.deployments import Cluster, DeploymentPlan
from repro.core.policies import MapTarget
from repro.net.geometry import GeoPoint, great_circle_miles

_CELL_DEG = 10.0
_MAX_RINGS = int(180 // _CELL_DEG) + 1


def _ring_offsets(ring: int) -> Tuple[Tuple[int, int], ...]:
    """(dy, dx) of the cells on the perimeter of ring ``ring``."""
    if ring == 0:
        return ((0, 0),)
    edges = [(dy, dx) for dy in (-ring, ring)
             for dx in range(-ring, ring + 1)]
    edges += [(dy, dx) for dy in range(1 - ring, ring)
              for dx in (-ring, ring)]
    return tuple(edges)


_RINGS = tuple(_ring_offsets(ring) for ring in range(_MAX_RINGS))


class CandidateIndex:
    """Spatial pre-cut over clusters for candidate selection."""

    def __init__(self, deployments: DeploymentPlan,
                 k_nearest: int = 16) -> None:
        if k_nearest < 1:
            raise ValueError("k_nearest must be positive")
        self.deployments = deployments
        self.k_nearest = k_nearest
        self._cells: Dict[Tuple[int, int], List[Cluster]] = {}
        self._by_asn: Dict[int, List[Cluster]] = {}
        for cluster in deployments.clusters.values():
            self._cells.setdefault(self._cell(cluster.geo),
                                   []).append(cluster)
            self._by_asn.setdefault(cluster.asn, []).append(cluster)
        self._all = list(deployments.clusters.values())
        self._memo: Dict[Tuple[GeoPoint, int], List[Cluster]] = {}

    @staticmethod
    def _cell(geo: GeoPoint) -> Tuple[int, int]:
        return (int(geo.lat // _CELL_DEG), int(geo.lon // _CELL_DEG))

    def candidates(self, target: MapTarget) -> List[Cluster]:
        """Candidate clusters for a mapping target.

        The k geographically nearest clusters, searched outward in
        grid rings, unioned with all clusters deployed inside the
        target's AS.  Falls back to the full cluster list when the
        index would return fewer than k (tiny deployments).  The
        returned list is the caller's own: mutating it does not touch
        the memo.
        """
        key = (target.geo, target.asn)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._discover(target)
        return list(cached)

    def _discover(self, target: MapTarget) -> List[Cluster]:
        if len(self._all) <= self.k_nearest:
            return list(self._all)
        found: List[Tuple[float, Cluster]] = []
        seen: set = set()
        home_y, home_x = self._cell(target.geo)
        for ring, offsets in enumerate(_RINGS):
            added = False
            for dy, dx in offsets:
                cell = (home_y + dy, int((home_x + dx + 18) % 36 - 18))
                for cluster in self._cells.get(cell, ()):
                    if cluster.cluster_id in seen:
                        continue
                    seen.add(cluster.cluster_id)
                    found.append((great_circle_miles(
                        target.geo, cluster.geo), cluster))
                    added = True
            # One ring beyond the first ring that filled the budget
            # guards the cell-boundary case.
            if len(found) >= self.k_nearest and ring >= 1:
                break
            if not added and ring > 4 and found:
                break
        found.sort(key=lambda pair: (pair[0], pair[1].cluster_id))
        out = [cluster for _d, cluster in found[: self.k_nearest]]
        out_ids = {c.cluster_id for c in out}
        for cluster in self._by_asn.get(target.asn, ()):
            if cluster.cluster_id not in out_ids:
                out.append(cluster)
                out_ids.add(cluster.cluster_id)
        return out

    def coverage_report(self) -> Dict[str, float]:
        """Index statistics (cells used, clusters per cell)."""
        sizes = [len(v) for v in self._cells.values()]
        return {
            "cells": float(len(self._cells)),
            "clusters": float(len(self._all)),
            "max_cell": float(max(sizes) if sizes else 0),
            "mean_cell": (sum(sizes) / len(sizes)) if sizes else 0.0,
        }


def nearest_cluster(deployments: DeploymentPlan,
                    geo: GeoPoint) -> Cluster:
    """Geographically nearest cluster (diagnostics helper)."""
    clusters = list(deployments.clusters.values())
    if not clusters:
        raise ValueError("no deployments")
    return min(clusters,
               key=lambda c: great_circle_miles(geo, c.geo))
