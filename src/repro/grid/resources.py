"""Hardware-resource ontology: machines, sites, links, topology.

The paper assumes "ontologies describing data, programs, and hardware
resources"; this module is the hardware third.  A machine advertises its
capabilities (speed, memory, disk) — the attributes program preconditions
are checked against — plus dynamic load, which brokerage and dynamic
replanning react to ("assume that site S is overloaded and there are
alternative sites capable of executing program P at lower costs").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

__all__ = ["Machine", "Site", "Link", "GridTopology"]


@dataclass(frozen=True)
class Machine:
    """One compute resource.

    Attributes
    ----------
    name:
        Unique id.
    site:
        The site (administrative domain) the machine belongs to.
    speed:
        Relative compute speed in Mflop/s; execution time of a program is
        ``program.flops / (speed / (1 + load))``.
    memory_gb / disk_tb:
        Capacity limits checked against program requirements.
    load:
        Background load factor ≥ 0; 0 means dedicated.  An overloaded
        machine still works, just slower — exactly the scenario that makes
        static scripts inferior to replanning.
    up:
        Whether the machine is alive; failed machines accept no work.
    """

    name: str
    site: str
    speed: float
    memory_gb: float = 4.0
    disk_tb: float = 1.0
    load: float = 0.0
    up: bool = True

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"machine {self.name!r}: speed must be positive")
        if self.memory_gb <= 0 or self.disk_tb <= 0:
            raise ValueError(f"machine {self.name!r}: capacities must be positive")
        if self.load < 0:
            raise ValueError(f"machine {self.name!r}: load must be non-negative")

    @property
    def effective_speed(self) -> float:
        """Speed after background load: ``speed / (1 + load)``."""
        return self.speed / (1.0 + self.load)

    def with_load(self, load: float) -> "Machine":
        return replace(self, load=load)

    def failed(self) -> "Machine":
        return replace(self, up=False)

    def restored(self) -> "Machine":
        return replace(self, up=True)


@dataclass(frozen=True)
class Site:
    """An administrative domain hosting machines."""

    name: str
    description: str = ""


@dataclass(frozen=True)
class Link:
    """A network link between two sites.

    ``bandwidth_mbps`` is the sustained transfer rate; ``latency_s`` is a
    fixed per-transfer startup cost.
    """

    a: str
    b: str
    bandwidth_mbps: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError(f"link {self.a}-{self.b}: bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError(f"link {self.a}-{self.b}: latency must be non-negative")


def _bidirectional_pred_succ(adj: Dict[str, Dict[str, Link]], source: str, target: str):
    """BFS from both ends that meets in the middle (networkx's helper).

    Grows the smaller fringe one level at a time, visiting neighbours in
    adjacency order, and stops at the first node both searches reached.
    Returns ``(pred, succ, meet)`` or ``None`` when no path exists;
    *source* and *target* differ.
    """
    pred: Dict[str, Optional[str]] = {source: None}
    succ: Dict[str, Optional[str]] = {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in adj[v]:
                    if w not in pred:
                        forward.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            level, reverse = reverse, []
            for v in level:
                for w in adj[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse.append(w)
                    if w in pred:
                        return pred, succ, w
    return None


class GridTopology:
    """The grid: sites, machines, and inter-site links.

    Intra-site transfers use a configurable (fast) local bandwidth.
    Machine lookups are by name; iteration order is sorted by name so that
    planning operations ground deterministically.

    Links live in an adjacency dict ``{site: {site: Link}}`` whose entries
    are inserted, overwritten and deleted in the order networkx's
    ``nx.Graph`` would; :meth:`_route` walks it exactly as
    ``nx.shortest_path`` does, so routes (and the floats taken from them)
    match networkx tie for tie.
    """

    def __init__(self, local_bandwidth_mbps: float = 10_000.0) -> None:
        self.sites: Dict[str, Site] = {}
        self.machines: Dict[str, Machine] = {}
        self._adj: Dict[str, Dict[str, Link]] = {}
        self.local_bandwidth_mbps = local_bandwidth_mbps
        # Pristine Link records for currently degraded/partitioned site
        # pairs, keyed by the sorted pair — what restore_link reinstates.
        self._pristine_links: Dict[Tuple[str, str], Link] = {}

    # -- construction --------------------------------------------------------

    def add_site(self, site: Site) -> "GridTopology":
        if site.name in self.sites:
            raise ValueError(f"duplicate site {site.name!r}")
        self.sites[site.name] = site
        self._adj[site.name] = {}
        return self

    def add_machine(self, machine: Machine) -> "GridTopology":
        if machine.name in self.machines:
            raise ValueError(f"duplicate machine {machine.name!r}")
        if machine.site not in self.sites:
            raise ValueError(f"machine {machine.name!r} references unknown site {machine.site!r}")
        self.machines[machine.name] = machine
        return self

    def add_link(self, link: Link) -> "GridTopology":
        for s in (link.a, link.b):
            if s not in self.sites:
                raise ValueError(f"link references unknown site {s!r}")
        self._set_link(link.a, link.b, link)
        return self

    def _set_link(self, site_a: str, site_b: str, link: Link) -> None:
        # Overwriting keeps an entry's position; a new pair goes last.
        self._adj[site_a][site_b] = link
        self._adj[site_b][site_a] = link

    # -- queries -------------------------------------------------------------

    def machine_names(self) -> list:
        return sorted(self.machines)

    def link_pairs(self) -> list:
        """Sorted site pairs that have (or had, while faulted) a link."""
        pairs = {tuple(sorted((a, b))) for a, nbrs in self._adj.items() for b in nbrs}
        pairs.update(self._pristine_links)
        return sorted(pairs)

    def up_machines(self) -> list:
        return [self.machines[n] for n in self.machine_names() if self.machines[n].up]

    def _route(self, source: str, target: str) -> Optional[List[str]]:
        """Fewest-hop site path from *source* to *target*, ``None`` if cut off.

        A port of networkx 3.6's ``bidirectional_shortest_path``.
        """
        met = _bidirectional_pred_succ(self._adj, source, target)
        if met is None:
            return None
        pred, succ, node = met
        path: List[str] = []
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[path[-1]]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def _route_links(self, src_machine: str, dst_machine: str) -> Optional[List[Link]]:
        """Links along the route between two machines' sites (``[]`` if same site)."""
        src = self.machines[src_machine].site
        dst = self.machines[dst_machine].site
        if src == dst:
            return []
        path = self._route(src, dst)
        if path is None:
            return None
        return [self._adj[a][b] for a, b in zip(path, path[1:])]

    def _bandwidth_of(self, links: List[Link]) -> float:
        return min([self.local_bandwidth_mbps, *(link.bandwidth_mbps for link in links)])

    @staticmethod
    def _latency_of(links: List[Link]) -> float:
        return sum((link.latency_s for link in links), 0.0)

    def bandwidth(self, src_machine: str, dst_machine: str) -> Optional[float]:
        """Path bandwidth (bottleneck) between two machines, Mbit/s.

        ``None`` when no path exists.  Same-machine transfers are free and
        report local bandwidth.
        """
        links = self._route_links(src_machine, dst_machine)
        return None if links is None else self._bandwidth_of(links)

    def latency(self, src_machine: str, dst_machine: str) -> Optional[float]:
        """Total path latency in seconds (0 for same-site)."""
        links = self._route_links(src_machine, dst_machine)
        return None if links is None else self._latency_of(links)

    def transfer_time(self, src_machine: str, dst_machine: str, volume_mb: float) -> Optional[float]:
        """Seconds to move *volume_mb* megabytes between two machines."""
        if volume_mb < 0:
            raise ValueError(f"volume must be non-negative, got {volume_mb}")
        if src_machine == dst_machine:
            return 0.0
        links = self._route_links(src_machine, dst_machine)
        if links is None:
            return None
        return self._latency_of(links) + (volume_mb * 8.0) / self._bandwidth_of(links)

    # -- mutation (dynamic events) -------------------------------------------

    def set_machine(self, machine: Machine) -> None:
        """Replace a machine record (load change, failure, recovery)."""
        if machine.name not in self.machines:
            raise ValueError(f"unknown machine {machine.name!r}")
        self.machines[machine.name] = machine

    def _get(self, name: str) -> Machine:
        try:
            return self.machines[name]
        except KeyError:
            raise ValueError(f"unknown machine {name!r}") from None

    def fail_machine(self, name: str) -> None:
        self.set_machine(self._get(name).failed())

    def restore_machine(self, name: str) -> None:
        self.set_machine(self._get(name).restored())

    def set_load(self, name: str, load: float) -> None:
        self.set_machine(self._get(name).with_load(load))

    # -- link faults ---------------------------------------------------------
    #
    # Link degradation and partition are the network half of the fault
    # model: a degraded link keeps routing at a fraction of its bandwidth,
    # a partitioned link disappears entirely (paths through it become
    # unreachable until restored).  The pristine Link is remembered on the
    # first fault so restore_link always returns to the original state.

    def _link_key(self, site_a: str, site_b: str) -> Tuple[str, str]:
        for s in (site_a, site_b):
            if s not in self.sites:
                raise ValueError(f"unknown site {s!r}")
        return tuple(sorted((site_a, site_b)))  # type: ignore[return-value]

    def _current_link(self, key: Tuple[str, str]) -> Optional[Link]:
        return self._adj[key[0]].get(key[1])

    def degrade_link(self, site_a: str, site_b: str, factor: float) -> None:
        """Divide the link's bandwidth by *factor* (> 1)."""
        if factor <= 1.0:
            raise ValueError(f"degrade factor must be > 1, got {factor}")
        key = self._link_key(site_a, site_b)
        link = self._current_link(key)
        if link is None:
            raise ValueError(f"no link between {site_a!r} and {site_b!r}")
        self._pristine_links.setdefault(key, link)
        degraded = replace(link, bandwidth_mbps=link.bandwidth_mbps / factor)
        self._set_link(*key, degraded)

    def partition_link(self, site_a: str, site_b: str) -> None:
        """Remove the link entirely until :meth:`restore_link`."""
        key = self._link_key(site_a, site_b)
        link = self._current_link(key)
        if link is None:
            if key not in self._pristine_links:
                raise ValueError(f"no link between {site_a!r} and {site_b!r}")
            return  # already partitioned
        self._pristine_links.setdefault(key, link)
        del self._adj[key[0]][key[1]]
        self._adj[key[1]].pop(key[0], None)  # a self-loop has one entry

    def restore_link(self, site_a: str, site_b: str) -> None:
        """Undo any degradation/partition, reinstating the pristine link."""
        key = self._link_key(site_a, site_b)
        pristine = self._pristine_links.pop(key, None)
        if pristine is None:
            return  # never faulted — nothing to do
        self._set_link(*key, pristine)
