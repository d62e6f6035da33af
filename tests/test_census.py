"""Every small graph the theorem applies to, checked in one run each.

`networkx.graph_atlas_g()` lists every graph on at most 7 vertices.  The
census takes the connected ones with minimum degree >= 3 (173 graphs: 1
on 4 vertices, 3 on 5, 19 on 6 and 150 on 7), places each by
`random_placement(g, 1, bound=60)` and runs `check --format json --seed 1`
on it in process.  Every run must exit 0 with its verdict sources agreeing,
and the verdict table (atlas index, stress dimension and the three
verdicts) must hash to `CENSUS_SHA256`.
"""

import hashlib
import json

import networkx as nx

from tensec.cli import main
from tensec.framework import Graph, framework_to_json
from tensec.sampling import random_placement

#: sha256 of the JSON verdict table, recorded before the oracle tried only
#: nonzero combinations of its basis.  A change that moves a row re-records
#: it and says which rows moved.
CENSUS_SHA256 = "3f69c9f613bd85242661b9ebf1d782145769e3164d2d186943575fe543d0e02d"

#: Rows per vertex count: (three-way YES, NO from the oracle alone with
#: the other two sources unknown, three-way NO).  The README tabulates them.
CENSUS_COUNTS = {4: (1, 0, 0), 5: (3, 0, 0), 6: (16, 1, 2), 7: (137, 13, 0)}


def census_graphs():
    """(atlas index, Graph) of every connected atlas graph with minimum
    degree >= 3, vertices named by their atlas labels."""
    for index, g in enumerate(nx.graph_atlas_g()):
        if len(g) >= 4 and min(d for _, d in g.degree()) >= 3 and nx.is_connected(g):
            yield index, Graph([str(v) for v in g.nodes],
                               [(str(u), str(v)) for u, v in g.edges])


#: The verdict triples (oracle, quantization, conditions) the census holds,
#: in the order of the `CENSUS_COUNTS` tuples.
KINDS = ((True, True, True), (False, None, None), (False, False, False))


def test_census_verdicts_match_recorded_digest(tmp_path, capsys):
    path = tmp_path / "census.json"
    table = []
    counts = {n: [0] * len(KINDS) for n in CENSUS_COUNTS}
    for index, g in census_graphs():
        path.write_text(json.dumps(framework_to_json(random_placement(g, 1, bound=60))))
        assert main(["check", str(path), "--format", "json", "--seed", "1"]) == 0, index
        report = json.loads(capsys.readouterr().out)
        assert report["verdict_sources_agree"] is True, index
        verdicts = (report["oracle_nonparallelizable"], report["quantization_consistent"],
                    report["conditions_fulfilled"])
        table.append([index, report["stress_dim"], *verdicts])
        counts[len(g.vertices)][KINDS.index(verdicts)] += 1
    assert len(table) == 173
    assert hashlib.sha256(json.dumps(table).encode()).hexdigest() == CENSUS_SHA256
    assert {n: tuple(c) for n, c in counts.items()} == CENSUS_COUNTS
