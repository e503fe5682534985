"""The grid's graph walks match networkx exactly.

``GridTopology`` routes with a port of networkx's bidirectional BFS and
``ActivityGraph`` orders with a port of its Kahn levels.  Both copy
networkx's tie-breaking: the simulator's event order, and so the soak's
pinned event log, depends on which of several equal routes or orders is
taken.  Each case drives the same calls into a mirror networkx graph and
asks for identical answers, floats included.
"""

from dataclasses import replace
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_rng
from repro.grid import ActivityGraph, GridTopology, Link, Machine, Site, plan_to_activity_graph
from repro.grid.activity_graph import Activity
from repro.grid.generators import random_pipeline

LOCAL_BW = 1_000.0

# -- topologies ---------------------------------------------------------------

link_op = st.tuples(
    st.sampled_from(["add", "add", "degrade", "partition", "restore"]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.floats(1.0, 2_000.0),
    st.floats(0.0, 0.5),
)


class NxTopology:
    """The networkx-backed link bookkeeping ``GridTopology`` replaced."""

    def __init__(self, sites):
        self.graph = nx.Graph()
        self.graph.add_nodes_from(sites)
        self.pristine = {}

    def link(self, key):
        return self.graph.edges[key]["link"] if self.graph.has_edge(*key) else None

    def links_between(self, src_site, dst_site):
        if src_site == dst_site:
            return []
        try:
            path = nx.shortest_path(self.graph, src_site, dst_site)
        except nx.NetworkXNoPath:
            return None
        return [self.graph.edges[a, b]["link"] for a, b in zip(path, path[1:])]

    def link_pairs(self):
        pairs = {tuple(sorted(edge)) for edge in self.graph.edges}
        pairs.update(self.pristine)
        return sorted(pairs)


def apply_link_op(topo, mirror, sites, op):
    kind, i, j, x, y = op
    a, b = sites[i % len(sites)], sites[j % len(sites)]
    key = tuple(sorted((a, b)))
    current = mirror.link(key)
    if kind == "add":
        link = Link(a, b, bandwidth_mbps=x, latency_s=y)
        mirror.graph.add_edge(a, b, link=link)
        topo.add_link(link)
    elif kind == "degrade":
        factor = 1.0 + x / 100.0
        if current is None:
            with pytest.raises(ValueError):
                topo.degrade_link(a, b, factor)
            return
        mirror.pristine.setdefault(key, current)
        mirror.graph.edges[key]["link"] = replace(
            current, bandwidth_mbps=current.bandwidth_mbps / factor
        )
        topo.degrade_link(a, b, factor)
    elif kind == "partition":
        if current is None:
            if key not in mirror.pristine:
                with pytest.raises(ValueError):
                    topo.partition_link(a, b)
                return
        else:
            mirror.pristine.setdefault(key, current)
            mirror.graph.remove_edge(*key)
        topo.partition_link(a, b)
    else:
        pristine = mirror.pristine.pop(key, None)
        if pristine is not None:
            mirror.graph.add_edge(key[0], key[1], link=pristine)
        topo.restore_link(a, b)


def assert_routes_match(topo, mirror, volume):
    assert topo.link_pairs() == mirror.link_pairs()
    names = topo.machine_names()
    for src in names:
        for dst in names:
            s, d = topo.machines[src].site, topo.machines[dst].site
            links = mirror.links_between(s, d)
            if s != d:
                path = topo._route(s, d)
                if links is None:
                    assert path is None
                else:
                    assert path == nx.shortest_path(mirror.graph, s, d)
            if links is None:
                assert topo.bandwidth(src, dst) is None
                assert topo.latency(src, dst) is None
                if src != dst:
                    assert topo.transfer_time(src, dst, volume) is None
                continue
            bw = LOCAL_BW
            for link in links:
                bw = min(bw, link.bandwidth_mbps)
            lat = sum(link.latency_s for link in links) if links else 0.0
            assert topo.bandwidth(src, dst) == bw
            assert topo.latency(src, dst) == lat
            expected = 0.0 if src == dst else lat + (volume * 8.0) / bw
            assert topo.transfer_time(src, dst, volume) == expected


class TestTopologyMatchesNetworkx:
    @given(
        st.permutations([f"site{i}" for i in range(7)]),
        st.integers(2, 7),
        st.lists(link_op, max_size=40),
        st.floats(0.0, 500.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_routes_follow_nx_shortest_path(self, order, n_sites, ops, volume):
        """Interleaved link adds and faults; every pair re-checked after each."""
        sites = list(order[:n_sites])
        topo = GridTopology(local_bandwidth_mbps=LOCAL_BW)
        for k, name in enumerate(sites):
            topo.add_site(Site(name))
            topo.add_machine(Machine(f"m{k}", site=name, speed=100.0))
        topo.add_machine(Machine("extra", site=sites[0], speed=100.0))
        mirror = NxTopology(sites)
        assert_routes_match(topo, mirror, volume)
        for op in ops:
            apply_link_op(topo, mirror, sites, op)
            assert_routes_match(topo, mirror, volume)

    def test_tie_broken_by_adjacency_order(self):
        """Two equal two-hop routes: the reverse search meets at b's first-linked neighbour."""
        topo = GridTopology()
        for name in ("a", "z", "m", "b"):
            topo.add_site(Site(name))
        topo.add_link(Link("a", "z", 10.0)).add_link(Link("a", "m", 10.0))
        topo.add_link(Link("z", "b", 10.0)).add_link(Link("m", "b", 10.0))
        assert topo._route("a", "b") == ["a", "z", "b"]
        topo.degrade_link("z", "b", 2.0)  # overwritten in place: still first
        assert topo._route("a", "b") == ["a", "z", "b"]
        topo.partition_link("z", "b")
        topo.restore_link("z", "b")  # re-added last: now behind "m"
        assert topo._route("a", "b") == ["a", "m", "b"]


# -- activity graphs -----------------------------------------------------------


def nx_mirror(calls):
    graph = nx.DiGraph()
    for aid, deps in calls:
        graph.add_node(aid)
        for dep in deps:
            graph.add_edge(dep, aid)
    return graph


def assert_graph_matches(ag, graph):
    assert [a.id for a in ag.topological_order()] == list(nx.topological_sort(graph))
    assert ag.edges() == list(graph.edges)
    assert len(ag) == graph.number_of_nodes()
    for aid in graph.nodes:
        assert ag.predecessors(aid) == sorted(graph.predecessors(aid))
        assert ag.successors(aid) == list(graph.successors(aid))


@st.composite
def id_ordered_dags(draw):
    """Activities added one by one, each depending on earlier ones only.

    Ids are a random relabelling, so insertion order and id order differ;
    dependency lists may repeat an id or come unsorted.
    """
    n = draw(st.integers(0, 25))
    labels = draw(st.permutations(range(100, 100 + n)))
    calls = []
    for k, aid in enumerate(labels):
        deps = draw(st.lists(st.sampled_from(labels[:k]), max_size=4)) if k else []
        calls.append((aid, deps))
    return calls


class TestActivityGraphMatchesNetworkx:
    @given(id_ordered_dags())
    @settings(max_examples=200, deadline=None)
    def test_random_dags(self, calls):
        ag = ActivityGraph()
        for aid, deps in calls:
            ag.add(Activity(id=aid, kind="run", op=aid, consumes=(), produces=()), depends_on=deps)
        assert_graph_matches(ag, nx_mirror(calls))

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_compiled_random_plans(self, seed, n_stages, steps):
        """Random walks through a random pipeline's operations, compiled."""
        rng = make_rng(seed)
        _onto, domain = random_pipeline(rng, n_stages=n_stages)
        state, plan = domain.initial_state, []
        for _ in range(steps):
            ops = domain.valid_operations(state)
            if not ops:
                break
            op = ops[int(rng.integers(len(ops)))]
            plan.append(op)
            state = domain.apply(state, op)
        calls = []
        original_add = ActivityGraph.add

        def recording_add(self, activity, depends_on=()):
            calls.append((activity.id, list(depends_on)))
            original_add(self, activity, depends_on)

        with mock.patch.object(ActivityGraph, "add", recording_add):
            ag = plan_to_activity_graph(domain, plan)
        assert len(calls) == len(plan)
        assert_graph_matches(ag, nx_mirror(calls))
