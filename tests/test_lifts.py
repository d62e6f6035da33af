"""Planar cubic frameworks that carry a stress, built as projections of
polyhedral lifts (Maxwell-Cremona), checked beyond the two fixtures.

`maxwell_cremona_lift` gives each face of a plane embedding of a planar
3-connected cubic graph a seeded plane z = a x + b y + c and places each
vertex at the projection of the meet of its three faces' planes.  The
placement is the projection of a polyhedral surface, so it carries a
self-stress: stress dimension 1 on these graphs, whose generic placements
carry none.  Moving one vertex off its meet destroys it.
"""

import json
import random
from fractions import Fraction

import networkx as nx
import pytest

from tensec.cli import main
from tensec.framework import Framework, Graph, framework_to_json
from tensec.numeric import clear_denominators
from tensec.projective import ProjPoint


def maxwell_cremona_lift(g: nx.Graph, seed: int) -> Framework:
    """The framework of the faces of `check_planarity`'s embedding of a
    planar 3-connected cubic graph, each face on a seeded plane
    z = a x + b y + c (a, b and c each p/q, |p| <= 60, 1 <= q <= 60), each
    vertex at the projection (x, y) of its three planes' meet, cleared to
    an integer triple."""
    planar, embedding = nx.check_planarity(g)
    assert planar
    rng = random.Random(seed)
    planes = {v: [] for v in g}
    marked = set()
    for half_edge in embedding.edges():
        if half_edge not in marked:
            plane = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 60))
                          for _ in range(3))
            for v in embedding.traverse_face(*half_edge, mark_half_edges=marked):
                planes[v].append(plane)
    placement = {}
    for v, ((a1, b1, c1), (a2, b2, c2), (a3, b3, c3)) in planes.items():
        # (a1 - ai) x + (b1 - bi) y = ci - c1 for i = 2, 3, by Cramer's rule
        det = (a1 - a2) * (b1 - b3) - (b1 - b2) * (a1 - a3)
        x = (c2 - c1) * (b1 - b3) - (b1 - b2) * (c3 - c1)
        y = (a1 - a2) * (c3 - c1) - (c2 - c1) * (a1 - a3)
        assert det
        placement[f"v{v}"] = ProjPoint(tuple(clear_denominators([x, y, det])))
    graph = Graph(sorted(placement), [(f"v{u}", f"v{v}") for u, v in g.edges])
    return Framework(graph, placement)


def moved_first_vertex(fw: Framework) -> Framework:
    """The framework with its first vertex (x, y, z) moved to (x + z, y, z)."""
    v = fw.graph.vertices[0]
    x, y, z = fw.placement[v].coords
    return Framework(fw.graph, {**fw.placement, v: ProjPoint((x + z, y, z))})


LIFTED_GRAPHS = {"cube": nx.hypercube_graph(3),
                 **{f"prism{n}": nx.circular_ladder_graph(n) for n in range(3, 13)},
                 "dodecahedron": nx.dodecahedral_graph(),
                 "frucht": nx.frucht_graph(),
                 "truncated-tetrahedron": nx.truncated_tetrahedron_graph()}


def check_report(fw, path, capsys):
    path.write_text(json.dumps(framework_to_json(fw)))
    assert main(["check", str(path), "--format", "json", "--seed", "1"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", LIFTED_GRAPHS)
def test_check_says_yes_on_lifted_planar_cubic_frameworks(name, tmp_path, capsys):
    g = nx.convert_node_labels_to_integers(LIFTED_GRAPHS[name])
    for seed in (1, 2, 3):
        fw = maxwell_cremona_lift(g, seed)
        report = check_report(fw, tmp_path / "lift.json", capsys)
        assert report["stress_dim"] == 1, seed
        assert (report["oracle_nonparallelizable"], report["quantization_consistent"],
                report["conditions_fulfilled"]) == (True, True, True), seed
        assert report["verdict"] == "YES"
        # the negative control: off its meet, the vertex breaks the stress
        report = check_report(moved_first_vertex(fw), tmp_path / "moved.json", capsys)
        assert report["stress_dim"] == 0, seed
        assert (report["oracle_nonparallelizable"], report["quantization_consistent"],
                report["conditions_fulfilled"]) == (False, False, False), seed
        assert report["verdict_sources_agree"] is True
