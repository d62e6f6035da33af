import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from all_cycles import all_cycles_system, condition_lines, fundamental_lines
from tensec.cli import main
from tensec.fixtures import (DESARGUES_GRAPH, DESARGUES_NEG, DESARGUES_POS,
                             PASCAL_GRAPH, PASCAL_POS, WHEEL5_GRAPH)
from tensec.framework import framework_to_json
from tensec.projective import ProjPoint, _dot
from tensec.quantization import consistency_cycles

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def files(tmp_path):
    out = {}
    for name, fw in [("dpos", DESARGUES_POS), ("dneg", DESARGUES_NEG),
                     ("ppos", PASCAL_POS)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(framework_to_json(fw)))
        out[name] = str(p)
    wheel = tmp_path / "wheel.json"
    wheel.write_text(json.dumps({
        "vertices": list(WHEEL5_GRAPH.vertices),
        "edges": [list(e) for e in WHEEL5_GRAPH.edges],
    }))
    out["wheel"] = str(wheel)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out["bad"] = str(bad)
    lowdeg = tmp_path / "lowdeg.json"
    lowdeg.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
    }))
    out["lowdeg"] = str(lowdeg)
    return out


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "tensec.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_check_verdicts(files, capsys):
    assert main(["check", files["dpos"], "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "tensegrity: YES" in out
    assert "self-stress dimension: 1" in out
    assert "verdict sources agree: YES" in out

    assert main(["check", files["dneg"], "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "tensegrity: NO" in out
    assert "verdict sources agree: YES" in out

    assert main(["check", files["ppos"], "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "tensegrity: YES" in out


def test_malformed_input_exits_2(files, tmp_path, capsys):
    # each of these once ended in a traceback (exit 1) or exit 3
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    fw = framework_to_json(DESARGUES_POS)
    numeric = json.loads(json.dumps(fw))
    numeric["vertices"][0]["coords"] = [0, 0, 1]
    triple_edge = json.loads(json.dumps(fw))
    triple_edge["edges"][0] = ["p1", "p2", "p3"]
    zero = json.loads(json.dumps(fw))
    zero["vertices"][0]["coords"] = ["0", "0", "0"]
    cycle = {"points": [[0, 0, 1], ["4", "0", "1"], ["0", "4", "1"]],
             "framings": [["1", "-1", "0"], ["1", "3", "-4"], ["1", "0", "0"]]}
    coords_string = json.loads(json.dumps(fw))
    coords_string["vertices"][0]["coords"] = "001"
    # K4 on one-letter ids, the edge a-b written as the string "ab"
    edge_string = {"vertices": [{"id": v, "coords": c} for v, c in (
        ("a", ["0", "0", "1"]), ("b", ["4", "0", "1"]), ("c", ["0", "4", "1"]),
        ("d", ["1", "1", "1"]))],
        "edges": ["ab", ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]]}
    empty = write("empty.json", {"vertices": [], "edges": []})
    literals = []
    for k, text in enumerate(("0.5", "1e3", "1_000", "1e10000000")):
        # only "p" and "p/q"; Fraction would expand the last to 10^7 digits
        bad = json.loads(json.dumps(fw))
        bad["vertices"][0]["coords"] = [text, "0", "1"]
        literals.append(["check", write(f"literal{k}.json", bad)])
    out = str(tmp_path / "x.svg")
    bad_ids = []
    for k, bad in enumerate((1, 2.5, True, None, ["a"])):
        # the id replaced in the vertex list and in every edge
        renamed = json.loads(json.dumps(fw).replace('"p1"', json.dumps(bad)))
        graph = {"vertices": [v["id"] for v in renamed["vertices"]],
                 "edges": renamed["edges"]}
        bad_ids += [["check", write(f"id{k}.json", renamed)],
                    ["conditions", write(f"id{k}g.json", graph)],
                    ["verify", write(f"id{k}g.json", graph), "--samples", "1"]]
    wheel = {"vertices": [{"id": v, "coords": [str(i), str(i * i), "1"]}
                          for i, v in enumerate(WHEEL5_GRAPH.vertices)],
             "edges": [list(e) for e in WHEEL5_GRAPH.edges]}
    wheel["edges"][0][0] = 1  # an edge naming a non-string id
    for argv in (*bad_ids, *literals,
                 ["check", write("edge_id.json", wheel)],
                 ["check", empty],
                 ["conditions", empty],
                 ["verify", empty, "--samples", "2"],
                 ["render", empty, "-o", out],
                 ["verify", files["wheel"], "--samples", "0"],
                 ["verify", files["wheel"], "--samples", "-5"],
                 ["check", write("coords_string.json", coords_string)],
                 ["check", write("edge_string.json", edge_string)],
                 ["check", write("numeric.json", numeric)],
                 ["check", write("edge3.json", triple_edge)],
                 ["conditions", write("edge3.json", triple_edge)],
                 ["verify", write("edge3.json", triple_edge), "--samples", "1"],
                 ["check", write("zero.json", zero)],
                 ["render", write("zero.json", zero), "-o", out],
                 ["render", write("cycle.json", cycle), "-o", out],
                 ["check", files["dpos"], "--chart", "0,0,0"],
                 ["render", files["dpos"], "-o", out, "--chart", "0,0,0"],
                 # output paths that cannot be written
                 ["render", files["dpos"], "-o", str(tmp_path)],
                 ["render", files["dpos"], "-o", str(tmp_path / "missing" / "x.svg")]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


# Pools for framework-shaped JSON: each slot mostly holds what the format
# wants and sometimes any other JSON value.
_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.floats(-4, 4), st.text(max_size=3),
                  st.lists(st.sampled_from(["a", "0", 1]), max_size=2),
                  st.dictionaries(st.sampled_from(["id", "x"]),
                                  st.sampled_from(["a", 1]), max_size=1))
_ids = st.one_of(st.sampled_from("habcd"), _junk)
_rationals = st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "-5/3"])
_coords = st.one_of(st.lists(st.one_of(_rationals, _junk), min_size=3, max_size=3),
                    st.lists(_rationals, max_size=4), _junk)
_edge = st.one_of(st.lists(_ids, min_size=2, max_size=2), st.lists(_ids, max_size=3),
                  _junk)
_WHEEL4_EDGES = [["h", v] for v in "abcd"] + [["a", "b"], ["b", "c"], ["c", "d"],
                                               ["a", "d"]]


@st.composite
def _wheel4_documents(draw):
    """Wheel on hub h and rim a-d at drawn rational coordinates, with at most
    one id, coordinate triple or edge replaced from the pools."""
    vertices = [{"id": v, "coords": draw(st.lists(_rationals, min_size=3, max_size=3))}
                for v in "habcd"]
    edges = [list(e) for e in _WHEEL4_EDGES]
    slot, k = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    if slot == 1:
        vertices[k]["id"] = draw(_ids)
    elif slot == 2:
        vertices[k]["coords"] = draw(_coords)
    elif slot == 3:
        edges[k] = draw(_edge)
    return {"vertices": vertices, "edges": edges}


_documents = st.one_of(
    _wheel4_documents(),
    st.fixed_dictionaries({
        "vertices": st.one_of(st.lists(st.one_of(
            st.fixed_dictionaries({"id": _ids, "coords": _coords}), _ids), max_size=5),
            _junk),
        "edges": st.one_of(st.lists(_edge, max_size=10), _junk)}),
    _junk)


@given(_documents)
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_framework_json_exits_0_2_or_3(tmp_path, document):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    for argv in (["check", str(path)], ["conditions", str(path)],
                 ["verify", str(path), "--samples", "1"],
                 ["render", str(path), "-o", str(tmp_path / "fuzz.svg")]):
        assert main(argv) in (0, 2, 3), argv


def _fuzz_files(tmp_path):
    """Inputs of the argv fuzz: a placed framework, a graph without
    coordinates, a framed cycle, and output paths of each kind."""
    from lemmas import framed_cycle_to_json, random_framed_cycle

    inputs = []
    for name, obj in (("fw", framework_to_json(DESARGUES_POS)),
                      ("graph", {"vertices": list(WHEEL5_GRAPH.vertices),
                                 "edges": [list(e) for e in WHEEL5_GRAPH.edges]}),
                      ("cycle", framed_cycle_to_json(random_framed_cycle(4, 3, True)))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        inputs.append(str(path))
    outputs = [str(tmp_path / "out.svg"), str(tmp_path),
               str(tmp_path / "missing" / "out.svg")]
    return inputs, outputs


# Option values as (valid, invalid); "-o" draws from the output paths (a
# writable one, a directory, one in a missing directory).
_OPTION_VALUES = {
    "--seed": (["0", "7", " 7 ", "-5", "1" + "0" * 40], ["abc", "", "1.5"]),
    "--samples": (["1", "2"], ["0", "-1", "x"]),
    "--format": (["text", "json"], ["xml"]),
    "--chart": (["0,0,1", "1,1,17", " 0 , 0 , 1 "],
                ["1,2", "0,0,1,0", "0,0,0", "1/0,0,1", "a,b,c"]),
    "--timings": None,
    "-o": None,
}
_OWN_OPTIONS = {"check": "--seed --format --chart --timings",
                "conditions": "--format",
                "verify": "--seed --samples --format --timings",
                "render": "--chart -o"}
_ENV_SEEDS = [None, "3", " 7 ", "-2", "1" + "0" * 40, "abc", ""]


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_and_env_exit_0_2_or_3(tmp_path, capsys, data):
    inputs, outputs = _fuzz_files(tmp_path)
    command = data.draw(st.sampled_from(sorted(_OWN_OPTIONS)))
    argv = [command, data.draw(st.sampled_from(inputs))]
    # mostly options the subcommand reads, sometimes one it rejects
    options = data.draw(st.sets(st.sampled_from(_OWN_OPTIONS[command].split())))
    if data.draw(st.integers(0, 4)) == 0:
        options.add(data.draw(st.sampled_from(sorted(_OPTION_VALUES))))
    if command == "verify":
        # at its default of 200 samples one run would take seconds
        options.add("--samples")
    for option in sorted(options):
        if option == "--timings":
            argv.append(option)
        elif option == "-o":
            argv += [option, data.draw(st.sampled_from(outputs))]
        else:
            valid, invalid = _OPTION_VALUES[option]
            pool = invalid if data.draw(st.integers(0, 3)) == 0 else valid
            argv += [option, data.draw(st.sampled_from(pool))]
    env_seed = data.draw(st.sampled_from(_ENV_SEEDS))
    with mock.patch.dict(os.environ):
        os.environ.pop("TENSEC_SEED", None)
        if env_seed is not None:
            os.environ["TENSEC_SEED"] = env_seed
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, env_seed)
        else:
            assert rc in (0, 2, 3), (argv, env_seed)
    capsys.readouterr()


def test_render_requires_output_before_reading_input(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["render", str(tmp_path / "absent.json")])
    assert exc.value.code == 2
    assert "the following arguments are required: -o/--output" in capsys.readouterr().err


def test_bad_env_seed_is_a_usage_error_only_where_seed_is_read(
        files, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSEC_SEED", "abc")
    for argv in (["check", files["dpos"]],
                 ["verify", files["dpos"], "--samples", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "invalid int value: 'abc'" in capsys.readouterr().err
    assert main(["conditions", files["dpos"]]) == 0
    assert main(["render", files["dpos"], "-o", str(tmp_path / "x.svg")]) == 0
    # an explicit --seed wins over the variable; padding is accepted
    assert main(["check", files["dpos"], "--seed", "7"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("TENSEC_SEED", " 7 ")
    assert main(["check", files["dpos"], "--format", "json"]) == 0
    padded = capsys.readouterr().out
    assert main(["check", files["dpos"], "--seed", "7", "--format", "json"]) == 0
    assert padded == capsys.readouterr().out


def test_check_exit_codes(files, tmp_path, capsys):
    assert main(["check", files["bad"]]) == 2
    assert main(["check", files["lowdeg"]]) == 2
    capsys.readouterr()
    # general-position failure: collinear triple on a cycle
    from tensec.fixtures import DESARGUES_GRAPH
    from tensec.projective import ProjPoint
    from tensec.framework import Framework

    placement = dict(DESARGUES_POS.placement)
    placement["p5"] = ProjPoint((1, 1, 1))
    placement["p6"] = ProjPoint((2, 2, 1))
    bad_fw = Framework(DESARGUES_GRAPH, placement)
    p = tmp_path / "badgp.json"
    p.write_text(json.dumps(framework_to_json(bad_fw)))
    assert main(["check", str(p)]) == 3
    out = capsys.readouterr().out
    assert "general position: NO" in out


def write_prism(rungs, tmp_path):
    """A placed prism: two cycles u and w of `rungs` vertices joined by the
    rungs u_i w_i."""
    u = [f"u{i}" for i in range(rungs)]
    w = [f"w{i}" for i in range(rungs)]
    edges = [[a[i], a[(i + 1) % rungs]] for a in (u, w) for i in range(rungs)]
    edges += [[u[i], w[i]] for i in range(rungs)]
    vertices = [{"id": v, "coords": [str(i), str(i * i + k * 7), "1"]}
                for k, ring in enumerate((u, w)) for i, v in enumerate(ring)]
    path = tmp_path / "prism.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    return str(path)


@pytest.mark.parametrize("rungs", [20, 600])
def test_check_on_large_prism_hits_cycle_limit(rungs, tmp_path, capsys):
    # the 600-rung prism once ended in a RecursionError (exit 1), and the
    # 20-rung prism ran for more than 30 s.  The parallel rungs make both
    # enumerate simple cycles for general position; the 600-rung prism's
    # fundamental cycles (602 vertices) are refused first, by the graph
    limit = {20: "MAX_CYCLE_EXTENSIONS = 20000", 600: "MAX_CONDITION_CYCLE = 64"}
    assert main(["check", write_prism(rungs, tmp_path)]) == 3
    assert limit[rungs] in capsys.readouterr().err


def write_generic_prism(rungs, tmp_path):
    """The prism of `write_prism` at a seeded placement in general position."""
    from tensec.framework import framework_from_json, read_json
    from tensec.sampling import random_placement

    prism = framework_from_json(read_json(write_prism(rungs, tmp_path)))
    path = tmp_path / "generic_prism.json"
    path.write_text(json.dumps(framework_to_json(
        random_placement(prism.graph, seed=12, bound=10**6))))
    return path


def test_check_generators_decides_12_rung_prism_in_general_position(tmp_path, capsys):
    # general position enumerates no cycles here (the prism's simple cycles
    # take 67,537 extensions, past MAX_CYCLE_EXTENSIONS); the fundamental
    # cycles decide it
    path = write_generic_prism(12, tmp_path)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "general position: YES" in out
    assert "verdict sources agree: YES" in out
    assert "tensegrity: NO" in out


def test_check_stops_at_condition_cycle_limit_before_the_oracle(tmp_path, capsys,
                                                               monkeypatch):
    # the conditions are compiled first, so a fundamental cycle on 65
    # vertices ends the run before general position is tested or any stress
    # is computed
    import tensec.cli

    calls = []
    basis = tensec.cli.self_stress_basis
    monkeypatch.setattr(tensec.cli, "self_stress_basis",
                        lambda *args: calls.append(args) or basis(*args))
    path = write_generic_prism(63, tmp_path)
    assert main(["check", str(path), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_CONDITION_CYCLE = 64" in captured.err
    assert calls == []


def generalized_petersen(n: int, k: int):
    """GP(n, k): the outer cycle u, the spokes u_i v_i and the inner edges
    v_i v_{i+k}."""
    from tensec.framework import Graph

    edges = [(f"u{i}", f"u{(i + 1) % n}") for i in range(n)]
    edges += [(f"u{i}", f"v{i}") for i in range(n)]
    edges += [(f"v{i}", f"v{(i + k) % n}") for i in range(n)]
    return Graph([f"{a}{i}" for a in "uv" for i in range(n)], edges)


def test_check_refuses_by_the_graph_before_the_geometry(tmp_path, capsys, monkeypatch):
    # GP(600,7) has a 94-vertex fundamental cycle; the refusal comes from
    # the compile, before the quadratic edge-line arrangement is built
    import tensec.framework
    from tensec.sampling import random_placement

    calls = []
    general = tensec.framework.framework_in_general_position
    monkeypatch.setattr(tensec.framework, "framework_in_general_position",
                        lambda fw: calls.append(fw) or general(fw))
    path = tmp_path / "gp600.json"
    path.write_text(json.dumps(framework_to_json(
        random_placement(generalized_petersen(600, 7), 1, bound=1000))))
    assert main(["check", str(path), "--timings"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: a consistency cycle has 94 vertices, more than" \
        " MAX_CONDITION_CYCLE = 64" in captured.err
    assert "[timing] general-position" not in captured.err
    assert calls == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_conditions_on_large_prism_hits_condition_cycle_limit(fmt, tmp_path, capsys):
    # the fundamental cycles of the 600-rung prism reach 602 vertices; their
    # conditions once ended in a RecursionError (exit 1)
    path = write_prism(600, tmp_path)
    assert main(["conditions", path, "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_CONDITION_CYCLE = 64" in captured.err


def test_conditions_json_of_62_rung_prism_stays_small(tmp_path, capsys):
    # 43 MB when the report was indented: the indentation grew with the
    # depth of each condition's AST
    path = write_prism(62, tmp_path)
    assert main(["conditions", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert len(out) < 2_000_000
    assert len(json.loads(out)["conditions"]) == 63


def test_check_above_degree_limit_exits_3(tmp_path, capsys):
    from tensec.framework import Graph
    from tensec.projective import MAX_SUBSET_DEGREE
    from tensec.sampling import random_placement

    spokes = MAX_SUBSET_DEGREE + 1
    rim = [f"r{i}" for i in range(spokes)]
    g = Graph(["h"] + rim, [("h", r) for r in rim]
              + [(rim[i], rim[(i + 1) % spokes]) for i in range(spokes)])
    path = tmp_path / "wheel.json"
    path.write_text(json.dumps(framework_to_json(random_placement(g, 1, bound=1000))))
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"MAX_SUBSET_DEGREE = {MAX_SUBSET_DEGREE}" in captured.err


def test_check_json_format(files, capsys):
    assert main(["check", files["dpos"], "--format", "json", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "YES"
    assert payload["stress_dim"] == 1
    assert payload["general_position"] is True
    assert payload["quantization_consistent"] is True
    assert payload["conditions_fulfilled"] is True
    assert payload["verdict_sources_agree"] is True


def test_check_verdict_sources_agree_on_all_fixtures(files, tmp_path, capsys):
    from tensec.fixtures import PASCAL_NEG

    pneg = tmp_path / "pneg.json"
    pneg.write_text(json.dumps(framework_to_json(PASCAL_NEG)))
    for path, verdict in ((files["dpos"], "YES"), (files["dneg"], "NO"),
                          (files["ppos"], "YES"), (str(pneg), "NO")):
        assert main(["check", path, "--format", "json", "--seed", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == verdict
        assert payload["verdict_sources_agree"] is True
        assert payload["quantization_consistent"] is (verdict == "YES")
        assert payload["conditions_fulfilled"] is (verdict == "YES")
        assert payload["witness"] == "empty"


def test_cycles_option_is_a_usage_error(files, capsys):
    # the fundamental cycles are the only cycle set; the option is gone
    for command in ("check", "conditions", "verify"):
        for value in ("all", "generators"):
            with pytest.raises(SystemExit) as exc:
                main([command, files["dpos"], "--cycles", value])
            assert exc.value.code == 2, (command, value)
            assert "unrecognized arguments: --cycles" in capsys.readouterr().err


def test_conditions_golden_files(files, capsys):
    # the goldens hold every simple cycle, as the tests' reference compiles
    # them; the command prints the lines of the fundamental cycles
    for name, fixture, graph in (("desargues", "dpos", DESARGUES_GRAPH),
                                 ("pascal", "ppos", PASCAL_GRAPH)):
        assert main(["conditions", files[fixture]]) == 0
        out = capsys.readouterr().out
        body = [l for l in out.splitlines() if l.startswith("[")]
        golden = (GOLDEN / f"{name}_conditions.sexpr").read_text().splitlines()
        assert condition_lines(all_cycles_system(graph)) == golden
        assert body == fundamental_lines(graph, golden)
        assert len(body) == len(consistency_cycles(graph))


def _complete_graph_json(n):
    vs = [f"v{i}" for i in range(n)]
    return {"vertices": vs, "edges": [[a, b] for i, a in enumerate(vs) for b in vs[i + 1:]]}


def _wheel_graph_json(spokes):
    rim = [f"r{i}" for i in range(spokes)]
    return {"vertices": ["h"] + rim,
            "edges": [["h", r] for r in rim]
            + [[rim[i], rim[(i + 1) % spokes]] for i in range(spokes)]}


@pytest.mark.parametrize("name, graph", [
    ("K6", _complete_graph_json(6)), ("K7", _complete_graph_json(7)),
    ("wheel8", _wheel_graph_json(8)), ("wheel12", _wheel_graph_json(12))])
def test_conditions_json_matches_recorded_digest(name, graph, tmp_path, capsys):
    # graphs whose framings need surgeries; the digests are the sha256 of
    # `conditions --format json` as the compiler printed it when it still
    # built a tree per surgery and a fresh node per subexpression
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(graph))
    assert main(["conditions", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    digests = json.loads((GOLDEN / "conditions_json.sha256.json").read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == digests[name]


def _cube_chord_graph_json():
    vs = [f"{ring}{i}" for ring in "uw" for i in range(4)]
    edges = [[f"{ring}{i}", f"{ring}{(i + 1) % 4}"] for ring in "uw" for i in range(4)]
    return {"vertices": vs,
            "edges": edges + [[f"u{i}", f"w{i}"] for i in range(4)] + [["u0", "w2"]]}


#: The graphs of the `check` digests, each placed by `random_placement(g,
#: seed, bound=60)` and checked at `--seed seed`.
_DIGEST_GRAPHS = {"K5": _complete_graph_json(5), "K6": _complete_graph_json(6),
                  "wheel8": _wheel_graph_json(8), "cube-chord": _cube_chord_graph_json()}


@pytest.mark.parametrize("command, name, seed", [
    *(("check", name, seed) for name in _DIGEST_GRAPHS for seed in (1, 2)),
    ("verify", "wheel5", 5)])
def test_check_and_verify_json_match_recorded_digest(command, name, seed, tmp_path,
                                                     monkeypatch, capsys):
    # the conditions evaluate generic picks under surgeries (K5, K6, wheel8)
    # and the slot witness of an oracle load; the digests are the sha256 of
    # the reports printed while condition nodes still compared by structure
    from tensec.framework import graph_from_json
    from tensec.sampling import random_placement

    monkeypatch.chdir(tmp_path)
    path = Path(f"{name}.json")
    if command == "verify":
        path.write_text(json.dumps({"vertices": list(WHEEL5_GRAPH.vertices),
                                    "edges": [list(e) for e in WHEEL5_GRAPH.edges]}))
        extra = ["--samples", "20"]
    else:
        g = graph_from_json(_DIGEST_GRAPHS[name])
        path.write_text(json.dumps(framework_to_json(random_placement(g, seed, bound=60))))
        extra = []
    assert main([command, path.name, *extra, "--seed", str(seed), "--format", "json"]) == 0
    digests = json.loads((GOLDEN / "check_verify_json.sha256.json").read_text())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[f"{command} {name} {seed}"]


#: Slot graphs, whose quantization runs monodromies under a witness derived
#: from the oracle's load, for the `check` digests across seeds.
_SEED_DIGEST_GRAPHS = {**{f"wheel{k}": _wheel_graph_json(k) for k in range(4, 10)},
                       **{f"K{n}": _complete_graph_json(n) for n in range(5, 8)}}


@pytest.mark.parametrize("name", sorted(_SEED_DIGEST_GRAPHS))
def test_check_json_matches_recorded_digest_across_seeds(name, tmp_path, monkeypatch,
                                                         capsys):
    # `check --format json` at seeds 0, 5 and 17 on placements 1-3; the
    # digests are the sha256 of the reports printed while consistency still
    # took the command's seed for its auxiliary lines
    from tensec.framework import graph_from_json
    from tensec.sampling import random_placement

    monkeypatch.chdir(tmp_path)
    g = graph_from_json(_SEED_DIGEST_GRAPHS[name])
    digests = json.loads((GOLDEN / "check_seeds_json.sha256.json").read_text())
    for placement in (1, 2, 3):
        path = Path(f"{name}-{placement}.json")
        path.write_text(json.dumps(framework_to_json(random_placement(g, placement,
                                                                      bound=60))))
        for seed in (0, 5, 17):
            assert main(["check", path.name, "--seed", str(seed), "--format", "json"]) == 0
            out = capsys.readouterr().out
            key = f"{name} {placement} {seed}"
            assert hashlib.sha256(out.encode()).hexdigest() == digests[key], key


def test_conditions_json_contains_ast(files, capsys):
    assert main(["conditions", files["wheel"], "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xi"]["slots"] == [["p1", 1]]
    assert all({"cycle", "ast", "sexpr"} <= set(c) for c in payload["conditions"])


def test_conditions_rejects_degree2(files):
    assert main(["conditions", files["lowdeg"]]) == 2


def test_verify_zero_mismatches(files, capsys):
    assert main(["verify", files["dpos"], "--samples", "16", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "mismatches: 0" in out
    assert "oracle positive: 8" in out

    assert main(["verify", files["wheel"], "--samples", "8", "--seed", "5",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mismatch_count"] == 0
    assert payload["xi_dimension"] == 1
    for entry in payload["results"]:
        assert "seed" in entry

    # the Pascal graph draws its odd samples on a conic
    assert main(["verify", files["ppos"], "--samples", "8", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "mismatches: 0" in out
    assert "oracle positive: 4" in out


def test_verify_enumerates_the_short_cycles_once(files, capsys, monkeypatch):
    # each odd sample puts the three rungs through one point, so the
    # general-position test needs the short cycles of the graph 20 times
    import tensec.framework

    calls = []
    enumerate_all = tensec.framework.enumerate_simple_cycles
    monkeypatch.setattr(tensec.framework, "enumerate_simple_cycles",
                        lambda *args: calls.append(args) or enumerate_all(*args))
    assert main(["verify", files["dpos"], "--samples", "40", "--seed", "5"]) == 0
    assert "mismatches: 0" in capsys.readouterr().out
    assert len(calls) <= 1


def test_verify_reports_each_mismatch(files, capsys, monkeypatch):
    # conditions that contradict the oracle on every sample
    import tensec.cli

    fulfilled = tensec.cli.fulfilled_with_witness
    monkeypatch.setattr(tensec.cli, "fulfilled_with_witness",
                        lambda *args: not fulfilled(*args))
    argv = ["verify", files["dpos"], "--samples", "4", "--seed", "5"]
    assert main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    results = payload["results"]
    assert payload["mismatch_count"] == 4
    assert payload["mismatches"] == results
    assert all(r["conditions"] is not r["oracle"] for r in results)

    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "mismatches: 4" in lines
    assert lines[-4:] == [f"  mismatch at sample {r['index']} (seed {r['seed']}): "
                          f"oracle={r['oracle']} conditions={r['conditions']}"
                          for r in results]


def test_cross_process_byte_determinism(files):
    a = run_cli(["check", files["dpos"], "--seed", "11", "--format", "json"])
    b = run_cli(["check", files["dpos"], "--seed", "11", "--format", "json"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli(["conditions", files["ppos"], "--format", "json"])
    d = run_cli(["conditions", files["ppos"], "--format", "json"])
    assert c.stdout == d.stdout
    e = run_cli(["verify", files["dpos"], "--samples", "6", "--format", "json"])
    f = run_cli(["verify", files["dpos"], "--samples", "6", "--format", "json"])
    assert e.stdout == f.stdout


def check_wheel6(monkeypatch, capsys):
    """`check --format json` on the seeded 6-spoke wheel in tests/golden; the
    relative input path keeps the report independent of the checkout."""
    monkeypatch.chdir(GOLDEN)
    assert main(["check", "wheel6_framework.json", "--seed", "6",
                 "--format", "json"]) == 0
    return capsys.readouterr().out


def test_check_golden_wheel6_generators(monkeypatch, capsys):
    # a hub of degree 6: three interior line slots and framings that need
    # up to three surgeries; the 6 fundamental cycles of the wheel, not its
    # 25 simple cycles on at most 6 vertices
    out = check_wheel6(monkeypatch, capsys)
    assert out == (GOLDEN / "wheel6_check_generators.json").read_text()
    report = json.loads(out)
    assert report["conditions_count"] == 6
    assert report["verdict"] == "YES"
    assert report["verdict_sources_agree"] is True
    monkeypatch.chdir(GOLDEN)
    assert main(["conditions", "wheel6_framework.json", "--format", "json"]) == 0
    compiled = json.loads(capsys.readouterr().out)["conditions"]
    assert report["conditions"] == [{"cycle": c["cycle"], "sexpr": c["sexpr"]}
                                    for c in compiled]


@pytest.mark.parametrize("name, seed, dim", [("wheel6", "6", 1), ("k5", "5", 3)])
def test_check_golden_under_non_standard_chart(name, seed, dim, monkeypatch, capsys):
    # the chart's <p, V> takes both signs on both placements, so the
    # column-scaled integer oracle meets negative scales; the goldens were
    # written by the chart-Fraction oracle
    monkeypatch.chdir(GOLDEN)
    framework = f"{name}_framework.json"
    assert main(["check", framework, "--seed", seed, "--chart=-3,7,101",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}_check_chart.json").read_text()
    report = json.loads(out)
    assert report["stress_dim"] == dim
    assert report["verdict"] == "YES"
    signs = {_dot(ProjPoint.from_strings(v["coords"]).coords, (-3, 7, 101)) > 0
             for v in json.loads((GOLDEN / framework).read_text())["vertices"]}
    assert signs == {True, False}


def test_check_golden_unknown_witness(monkeypatch, capsys):
    # cube plus a chord: two vertices of degree 4, so two line slots, and
    # no self-stress; with no oracle stress to derive them from, the slot
    # lines are unknown and neither the quantization nor the conditions
    # decide
    monkeypatch.chdir(GOLDEN)
    assert main(["check", "cube_chord_framework.json", "--seed", "8",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "cube_chord_check.json").read_text()
    report = json.loads(out)
    assert report["oracle_nonparallelizable"] is False
    assert report["quantization_consistent"] is None
    assert report["conditions_fulfilled"] is None
    assert report["witness"] is None
    assert report["verdict_sources_agree"] is True
    unknown = "unknown (existential over the line slots)"
    assert report["quantization_note"] == report["conditions_note"] == unknown


def test_verify_counts_unknown_samples(files, tmp_path, capsys):
    # a sample without an oracle stress has no slot witness: its condition
    # verdict is unknown, counted as skipped and never as a mismatch
    vertices = [f"{ring}{i}" for ring in "uw" for i in range(4)]
    edges = [[f"u{i}", f"u{(i + 1) % 4}"] for i in range(4)]
    edges += [[f"w{i}", f"w{(i + 1) % 4}"] for i in range(4)]
    edges += [[f"u{i}", f"w{i}"] for i in range(4)] + [["u0", "w2"]]
    graph = tmp_path / "cube_chord.json"
    graph.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    assert main(["verify", str(graph), "--samples", "6", "--seed", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xi_dimension"] == 2
    assert payload["skipped_unknown"] == payload["oracle_negative"] == 6
    assert payload["mismatch_count"] == 0
    assert all(entry["conditions"] is None for entry in payload["results"])

    assert main(["verify", files["wheel"], "--samples", "8", "--seed", "5",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["skipped_unknown"] == payload["oracle_negative"]
    assert payload["mismatch_count"] == 0
    # an oracle stress gives the witness, so such a sample is decided
    assert all(e["conditions"] is not None for e in payload["results"] if e["oracle"])


def test_check_walks_each_framing_once(monkeypatch, capsys):
    """Framings are computed once per corner of a consistency cycle, and no
    two fundamental cycles of the wheel share a corner; the one scheme that
    needs surgeries (the hub) propagates its force-load and checks strong
    genericity once for all its framings."""
    import tensec.quantization as quantization
    import tensec.resolution as resolution

    framing = resolution.associated_framing
    strongly_generic = resolution.is_strongly_generic
    forceload = resolution.scheme_forceload
    counts = {"framings": 0, "surgery_walks": 0, "genericity_checks": 0,
              "forceloads": 0}
    keys = set()

    def counted_framing(s, leaf_a, leaf_b):
        counts["framings"] += 1
        keys.add((s.base, frozenset((leaf_a, leaf_b))))
        tree = s.tree
        if len(tree.path(tree.leaf_node(leaf_a), tree.leaf_node(leaf_b))) > 3:
            counts["surgery_walks"] += 1
        return framing(s, leaf_a, leaf_b)

    def counted_genericity(s):
        counts["genericity_checks"] += 1
        return strongly_generic(s)

    def counted_forceload(*args):
        counts["forceloads"] += 1
        return forceload(*args)

    monkeypatch.setattr(quantization, "associated_framing", counted_framing)
    monkeypatch.setattr(resolution, "is_strongly_generic", counted_genericity)
    monkeypatch.setattr(resolution, "scheme_forceload", counted_forceload)
    check_wheel6(monkeypatch, capsys)
    assert counts["surgery_walks"] > 0
    assert counts["framings"] == len(keys)
    assert counts["forceloads"] == 1
    assert counts["genericity_checks"] == 1


def test_check_tests_non_parallelizability_once(monkeypatch, capsys):
    """The quantization reuses the load the oracle accepted and does not
    run the subset enumeration on it again."""
    import tensec.framework as framework

    original = framework.is_non_parallelizable
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("tensec"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    check_wheel6(monkeypatch, capsys)
    assert len(calls) == 1


def test_env_seed_fallback(files):
    import os

    env = dict(os.environ)
    env["TENSEC_SEED"] = "11"
    a = subprocess.run([sys.executable, "-m", "tensec.cli", "check",
                        files["dpos"], "--format", "json"],
                       capture_output=True, text=True, env=env)
    b = run_cli(["check", files["dpos"], "--seed", "11", "--format", "json"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_timings_go_to_stderr_only(files):
    a = run_cli(["check", files["dpos"], "--seed", "2", "--format", "json"])
    b = run_cli(["check", files["dpos"], "--seed", "2", "--format", "json",
                 "--timings"])
    assert a.stdout == b.stdout
    assert "[timing]" in b.stderr and "[timing]" not in a.stderr


def test_subcommands_reject_options_they_do_not_read(files, tmp_path, capsys):
    out = str(tmp_path / "out.json")
    for argv in (["check", files["dpos"], "-o", out],
                 ["conditions", files["wheel"], "--seed", "3"],
                 ["verify", files["wheel"], "--chart", "0,0,1"],
                 ["render", files["dpos"], "-o", out, "--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_render_framework(files, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["render", files["dpos"], "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<circle") == 6
    assert svg.count('stroke="#1f3b73"') == 9
    for v in DESARGUES_POS.graph.vertices:
        assert f">{v}</text>" in svg
    out2 = tmp_path / "fig2.svg"
    assert main(["render", files["dpos"], "-o", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    assert out.read_bytes() == (GOLDEN / "desargues_pos.svg").read_bytes()


def test_render_framed_cycle(tmp_path):
    from lemmas import framed_cycle_to_json, random_framed_cycle

    c = random_framed_cycle(4, 3, equilibrium=True)
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps(framed_cycle_to_json(c)))
    out = tmp_path / "cycle.svg"
    assert main(["render", str(p), "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<circle") == 4
    assert "stroke-dasharray" in svg
    assert out.read_bytes() == (GOLDEN / "framed_cycle_4_3.svg").read_bytes()


#: sha256 of `render --chart=-3,7,101`, recorded with the Fraction chart
#: arithmetic.  The standard chart makes the chart line coefficients the
#: line's own; this one divides them by V's dropped coordinate, -3.
_CHART_RENDER_SHA256 = {
    "wheel6": "23d50f775a6b11a533b15200bbc8cd619a2471a4a8dd6d1cfb085c3406445c2b",
    "framed_cycle_4_3": "a6daecb67c879c94e508d65506281ac1ef055faa826270ab658cebe29ad2f7da",
}


@pytest.mark.parametrize("name", sorted(_CHART_RENDER_SHA256))
def test_render_under_non_standard_chart_matches_recorded_digest(name, tmp_path):
    from lemmas import framed_cycle_to_json, random_framed_cycle

    if name == "wheel6":
        p, dashed = GOLDEN / "wheel6_framework.json", 0
    else:
        p, dashed = tmp_path / "cycle.json", 4
        p.write_text(json.dumps(framed_cycle_to_json(random_framed_cycle(4, 3, True))))
    out = tmp_path / "fig.svg"
    assert main(["render", str(p), "-o", str(out), "--chart=-3,7,101"]) == 0
    assert out.read_text().count("stroke-dasharray") == dashed
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _CHART_RENDER_SHA256[name]


def test_render_rejects_points_at_infinity(tmp_path):
    obj = {
        "vertices": [{"id": "a", "coords": ["1", "0", "0"]},
                     {"id": "b", "coords": ["0", "1", "1"]},
                     {"id": "c", "coords": ["1", "1", "1"]}],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
    }
    p = tmp_path / "inf.json"
    p.write_text(json.dumps(obj))
    assert main(["render", str(p), "-o", str(tmp_path / "x.svg")]) == 3


_HUGE = "1" + "0" * 400  # 10^400, beyond the float range
_FAR = "1" + "0" * 308  # 10^308: a float, but 2 * 10^308 is not


@pytest.mark.parametrize("obj, cause", [
    ({"vertices": [{"id": "a", "coords": [_HUGE, "0", "1"]},
                   {"id": "b", "coords": ["0", "1", "1"]},
                   {"id": "c", "coords": ["1", "1", "1"]}],
      "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
     "a chart coordinate exceeds the float range"),
    ({"points": [["1", "1", "1"], ["0", "0", "1"], ["1", "0", "1"], ["0", "1", "1"]],
      "framings": [["1", _HUGE, "-1" + "0" * 399 + "1"], ["1", "0", "0"],
                   ["0", "1", "0"], ["1", "0", "0"]]},
     "a framing line coefficient exceeds the float range"),
    ({"vertices": [{"id": "a", "coords": [_FAR, "0", "1"]},
                   {"id": "b", "coords": ["-" + _FAR, "1", "1"]},
                   {"id": "c", "coords": ["1", "1", "1"]}],
      "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
     "the chart coordinates span more than the float range"),
], ids=["coordinate", "framing", "span"])
def test_render_rejects_values_beyond_floats(tmp_path, capsys, obj, cause):
    p = tmp_path / "big.json"
    p.write_text(json.dumps(obj))
    out = tmp_path / "x.svg"
    assert main(["render", str(p), "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"error: cannot draw: {cause}\n"
    assert not out.exists()


def test_custom_chart_flag(tmp_path, capsys):
    # same framework, chart moved so no fixture point is at infinity
    obj = framework_to_json(DESARGUES_POS)
    p = tmp_path / "d.json"
    p.write_text(json.dumps(obj))
    assert main(["check", str(p), "--chart", "1,1,17"]) == 0
    out = capsys.readouterr().out
    assert "tensegrity: YES" in out


def test_chart_with_negative_first_coefficient_attached_by_equals(monkeypatch, capsys):
    # argparse reads a separate "-1,1,17" as an option; "=" attaches it
    monkeypatch.chdir(GOLDEN)
    assert main(["check", "wheel6_framework.json", "--chart=-1,1,17"]) == 0
    moved = capsys.readouterr().out
    assert main(["check", "wheel6_framework.json"]) == 0
    assert moved == capsys.readouterr().out
    assert "tensegrity: YES" in moved


@pytest.mark.parametrize("n, dim", [(5, 3), (6, 6)])
def test_check_decides_complete_graphs_with_multidimensional_stresses(
        n, dim, tmp_path, capsys):
    # each oracle probe combines the basis with one coefficient per basis
    # vector, so it is a stress and its force-load is in equilibrium
    from tensec.framework import Graph
    from tensec.sampling import random_placement

    vs = [f"v{i}" for i in range(n)]
    g = Graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]])
    p = tmp_path / f"k{n}.json"
    p.write_text(json.dumps(framework_to_json(random_placement(g, 40 + n, bound=1000))))
    assert main(["check", str(p), "--format", "json", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stress_dim"] == dim
    assert payload["oracle_nonparallelizable"] is True
    assert payload["verdict"] == "YES"
    assert payload["verdict_sources_agree"] is True


def test_check_finds_the_stress_of_k11(tmp_path, capsys):
    """K11 placed by `random_placement(K11, 4, bound=60)` carries a
    non-parallelizable stress in its 36-dimensional space, and the other
    two sources print unknown, so the oracle alone decides.  Under seed 4
    each of the 16 probes would draw a zero coefficient from -9..9, which
    leaves the free edge of a basis vector without force; drawn nonzero,
    they find the stress."""
    from tensec.framework import Graph
    from tensec.sampling import random_placement

    vs = [f"v{i}" for i in range(11)]
    g = Graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]])
    p = tmp_path / "k11.json"
    p.write_text(json.dumps(framework_to_json(random_placement(g, 4, bound=60))))
    assert main(["check", str(p), "--format", "json", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stress_dim"] == 36
    assert payload["oracle_nonparallelizable"] is True
    assert payload["verdict"] == "YES"


def mapped_desargues(digits: int, tmp_path):
    """`DESARGUES_POS` mapped by a seeded 3x3 integer matrix with entries of
    `digits` digits: a projective image, so it still carries its stress,
    whose weights now have more digits than the coordinates."""
    import random

    from tensec.framework import Framework

    rng = random.Random(5)
    m = [[rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(3)]
         for _ in range(3)]
    placement = {v: ProjPoint(tuple(sum(a * x for a, x in zip(row, p.coords)) for row in m))
                 for v, p in DESARGUES_POS.placement.items()}
    path = tmp_path / f"desargues{digits}.json"
    path.write_text(json.dumps(framework_to_json(Framework(DESARGUES_GRAPH, placement))))
    return str(path)


LIMIT_MESSAGE = (f"error: a number in the report has more than"
                 f" {sys.get_int_max_str_digits()} digits, the interpreter's"
                 " int-to-str limit (sys.set_int_max_str_digits)\n")


def test_report_past_the_int_to_str_limit_exits_3(tmp_path, capsys):
    # the stress weights of the 3,000-digit image have more than 4,300
    # digits, and once ended in a ValueError traceback in both formats
    path = mapped_desargues(3000, tmp_path)
    assert main(["check", path, "--format", "json"]) == 3
    assert capsys.readouterr() == ("", LIMIT_MESSAGE)
    # the text report prints no weight
    assert main(["check", path]) == 0
    assert "tensegrity: YES" in capsys.readouterr().out
    assert main(["check", mapped_desargues(1500, tmp_path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "YES"
    assert max(len(x) for x in report["stress_basis"][0].values()) > 3000
    # a seed of 4,299 digits makes sample seeds of more than 4,300
    seed = "9" * (sys.get_int_max_str_digits() - 1)
    assert main(["verify", str(GOLDEN / "wheel6_framework.json"), "--samples", "1",
                 "--seed", seed, "--format", "json"]) == 3
    assert capsys.readouterr() == ("", LIMIT_MESSAGE)


def test_render_names_a_point_at_infinity_by_its_label(tmp_path, capsys):
    # the point's canonical triple has about 8,000 digits, too many to print
    big = "7" * 4000
    obj = {"vertices": [{"id": "a", "coords": [f"{big}/{big}1", f"1/{'3' * 3999}1", "0"]},
                        {"id": "b", "coords": ["0", "0", "1"]}],
           "edges": [["a", "b"]]}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(obj))
    assert main(["render", str(path), "-o", str(tmp_path / "far.svg")]) == 3
    assert capsys.readouterr().err == "error: point a lies on the infinity line\n"
