"""Bundled instance fixtures."""

from importlib import resources

from ..model import Instance, build_instance, edge_key, parse_instance


def _load(name: str) -> Instance:
    text = resources.files(__package__).joinpath(name).read_text()
    return parse_instance(text)


def fig1() -> Instance:
    """The worked three-route example: 14 nodes, 8 peers, 9 overlay edges."""
    return _load("fig1.json")


def fig1_text() -> str:
    return resources.files(__package__).joinpath("fig1.json").read_text()


def shared_edge() -> Instance:
    """Two-hop overlay whose concatenated route reuses an underlying edge twice."""
    return _load("shared_edge.json")


def k2() -> Instance:
    """Single overlay edge routed as itself."""
    return identity_instance(["a", "b"], [("a", "b")])


def triangle() -> Instance:
    """K3 with identity overlay and routing."""
    return identity_instance(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])


def identity_instance(nodes, edges) -> Instance:
    """Single-layer view: all nodes are peers, H = G, every edge routed as itself."""
    return build_instance(
        nodes=nodes,
        edges=edges,
        peers=nodes,
        overlay_edges=edges,
        routes={edge_key(u, v): edge_key(u, v) for u, v in edges},
    )
