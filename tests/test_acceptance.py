"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact arithmetic with zero tolerance.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from all_cycles import (all_cycles_system, both_systems, condition_lines,
                        framing, fundamental_lines, simple_cycles)
from lemmas import (aux_line_avoiding, chart_avoiding, cycle_equilibrium_basis,
                    enumerate_equivalent_schemes, hf_surgery_framework, is_trivial,
                    project_cycle, proportional_to, random_framed_cycle)
from reference_oracle import reference_stress_of_forceload
from tensec.conditions import _node_table, evaluate, fulfilled_with_witness
from tensec.cycles import monodromy, pick_aux_line
from tensec.errors import GeometryError, PreconditionError
from tensec.fixtures import (DESARGUES_GRAPH, DESARGUES_NEG, DESARGUES_POS,
                             PASCAL_GRAPH, PASCAL_NEG, PASCAL_POS, WHEEL5_GRAPH)
from tensec.framework import (find_nonparallelizable_stress,
                              forceload_from_stress, framework_in_general_position,
                              framework_to_json, is_equilibrium,
                              is_non_parallelizable, self_stress_basis)
from tensec.projective import AffineChart
from tensec.quantization import (consistency_cycles, construct_forceload,
                                 default_trees, is_consistent,
                                 quantization_from_stress)
from tensec.sampling import (desargues_concurrent_placement,
                             pascal_conic_placement, random_placement)

GOLDEN = Path(__file__).parent / "golden"
STANDARD = AffineChart.standard()


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_desargues_fixture():
    basis = self_stress_basis(DESARGUES_POS, STANDARD)
    assert len(basis) == 1
    assert all(w != 0 for w in basis[0])
    assert len(self_stress_basis(DESARGUES_NEG, STANDARD)) == 0
    report(1, "desargues stress dimensions 1 (all weights nonzero) and 0")


def test_criterion_2_pascal_fixture():
    basis = self_stress_basis(PASCAL_POS, STANDARD)
    assert len(basis) == 1
    assert all(w != 0 for w in basis[0])
    assert len(self_stress_basis(PASCAL_NEG, STANDARD)) == 0
    report(2, "pascal stress dimensions 1 (all weights nonzero) and 0")


def test_criterion_3_monodromy_equals_equilibrium_500():
    agree = 0
    for i in range(500):
        k = 3 + i % 5
        c = random_framed_cycle(k, 10_000 + i, equilibrium=(i % 2 == 0))
        aux = pick_aux_line(c, 20_000 + i)
        lhs = is_trivial(monodromy(c, 0, aux))
        rhs = bool(cycle_equilibrium_basis(c))
        assert lhs == rhs, f"mismatch at sample {i}"
        agree += 1
    assert agree == 500
    report(3, "trivial monodromy iff nonzero equilibrium load, 500/500")


def test_criterion_4_invariance_suite_200():
    checked = 0
    for i in range(200):
        k = 4 + i % 4
        c = random_framed_cycle(k, 30_000 + i, equilibrium=(i % 2 == 0))
        aux1 = pick_aux_line(c, 40_000 + i)
        aux2 = pick_aux_line(c, 50_000 + i)
        v1 = is_trivial(monodromy(c, 0, aux1))
        assert v1 == is_trivial(monodromy(c, 0, aux2))
        for start in range(1, k):
            assert v1 == is_trivial(monodromy(c, start, aux1))
        projected = project_cycle(c, 1)
        aux3 = aux_line_avoiding(c, 60_000 + i, projected.points)
        m_full = monodromy(c, 0, aux3)
        m_proj = monodromy(projected, 0, aux3)
        assert proportional_to(m_full, m_proj)
        checked += 1
    assert checked == 200
    report(4, "aux/base invariance and projection-preserved monodromy, 200/200")


ROLES = {"q3": "p4", "q4": "p5", "q5": "p3", "q6": "p6"}


def test_criterion_5_surgery_invariance_100():
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        fw = random_placement(DESARGUES_GRAPH, 70_000 + seed, bound=40)
        try:
            out = hf_surgery_framework(fw, ("p1", "p2"), ROLES)
        except (PreconditionError, GeometryError):
            continue
        chart = chart_avoiding(list(fw.placement.values())
                               + list(out.placement.values()), seed=seed)
        assert len(self_stress_basis(out, chart)) == len(self_stress_basis(fw, chart))
        done += 1
    assert done == 100
    report(5, "H/Phi surgery preserves stress dimension, 100/100")


def test_criterion_6_scheme_enumeration_counts():
    import random as _random

    from tensec.projective import ProjPoint, pick_generic_line_through
    from tensec.resolution import ResolutionScheme, default_tree

    base = ProjPoint((0, 0, 1))
    rng = _random.Random(99)
    expected = {3: 1, 4: 3, 5: 15}
    for n, count in expected.items():
        tree = default_tree([f"e{i}" for i in range(n)])
        labels = {}
        used = set()
        for e in tree.edges():
            while True:
                line = pick_generic_line_through(base, [], rng.randint(0, 10 ** 6))
                if line not in used:
                    used.add(line)
                    labels[e] = line
                    break
        schemes = enumerate_equivalent_schemes(ResolutionScheme(tree, base, labels))
        assert len(schemes) == count
    report(6, "equivalent-scheme counts 1, 3, 15 for 3, 4, 5 leaves")


def _sample_placement(graph, constrained, index, seed):
    for attempt in range(200):
        s = seed * 211 + attempt
        fw = constrained(graph, s) if index % 2 else random_placement(graph, s, bound=60)
        if framework_in_general_position(fw):
            return fw
    raise AssertionError("no general-position sample found")


@pytest.mark.parametrize("graph,constrained,tag", [
    (DESARGUES_GRAPH, desargues_concurrent_placement, "desargues"),
    (PASCAL_GRAPH, pascal_conic_placement, "pascal"),
])
def test_criterion_7_end_to_end_equivalence_200(graph, constrained, tag):
    systems = both_systems(graph)
    assert all(system.slots == () for system in systems)
    verdicts = {True: 0, False: 0}
    for i in range(200):
        fw = _sample_placement(graph, constrained, i, 80_000 + i)
        basis = self_stress_basis(fw, STANDARD)
        oracle = find_nonparallelizable_stress(fw, basis, STANDARD, seed=i) is not None
        for system in systems:
            cond = fulfilled_with_witness(system, fw, {}, 90_000 + i)
            assert cond == oracle, f"{tag} sample {i}: oracle={oracle} cond={cond}"
        verdicts[oracle] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20
    report(7, f"{tag}: condition verdict equals oracle verdict, 200/200 "
              f"({verdicts[True]} positive, {verdicts[False]} negative)")


def test_criterion_8_wheel_witness_direction_100():
    systems = both_systems(WHEEL5_GRAPH)
    trees, node = default_trees(WHEEL5_GRAPH), _node_table()
    pairs = [framing(trees, "p1", *pair, node)
             for pair in ((("p1", "p2"), ("p1", "p4")), (("p1", "p3"), ("p1", "p5")))]
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        fw = random_placement(WHEEL5_GRAPH, 100_000 + seed, bound=60)
        if not framework_in_general_position(fw):
            continue
        stress = find_nonparallelizable_stress(
            fw, self_stress_basis(fw, STANDARD), STANDARD, seed=seed)
        if stress is None:
            continue
        quant = quantization_from_stress(fw, forceload_from_stress(fw, stress, STANDARD),
                                         trees)
        witness = quant.interior_labels
        for system in systems:
            assert fulfilled_with_witness(system, fw, witness, seed)
        one, two = (evaluate(expr, fw, witness, seed) for expr in pairs)
        assert one == two
        done += 1
    assert done == 100
    report(8, "wheel witness fulfills the system and the degree-4 pairing "
              "identity holds, 100/100")


def test_criterion_9_quantization_roundtrip_on_fixtures():
    for fw in (DESARGUES_POS, PASCAL_POS):
        w = self_stress_basis(fw, STANDARD)[0]
        quant = quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD),
                                         default_trees(fw.graph))
        assert is_consistent(quant, consistency_cycles(fw.graph))
        assert is_consistent(quant, simple_cycles(fw.graph))
        ind = construct_forceload(quant)
        assert is_equilibrium(fw, ind)
        assert is_non_parallelizable(fw, ind)
        got = reference_stress_of_forceload(fw, ind, STANDARD)
        ratios = {g / x for g, x in zip(got, w)}
        assert len(ratios) == 1
    report(9, "stress -> quantization -> constructed load -> stress, "
              "proportional on both fixtures")


def test_criterion_10_determinism_and_goldens(tmp_path):
    dpos = tmp_path / "dpos.json"
    dpos.write_text(json.dumps(framework_to_json(DESARGUES_POS)))
    ppos = tmp_path / "ppos.json"
    ppos.write_text(json.dumps(framework_to_json(PASCAL_POS)))

    def run(args):
        return subprocess.run([sys.executable, "-m", "tensec.cli", *args],
                              capture_output=True, text=True)

    a = run(["check", str(dpos), "--seed", "21", "--format", "json"])
    b = run(["check", str(dpos), "--seed", "21", "--format", "json"])
    assert a.returncode == 0 and a.stdout == b.stdout

    for name, path, graph in (("desargues", dpos, DESARGUES_GRAPH),
                              ("pascal", ppos, PASCAL_GRAPH)):
        c = run(["conditions", str(path)])
        d = run(["conditions", str(path)])
        assert c.returncode == 0 and c.stdout == d.stdout
        body = [l for l in c.stdout.splitlines() if l.startswith("[")]
        golden = (GOLDEN / f"{name}_conditions.sexpr").read_text().splitlines()
        # the golden holds every simple cycle; the command prints the lines
        # of the fundamental cycles, in golden order
        assert condition_lines(all_cycles_system(graph)) == golden
        assert body == fundamental_lines(graph, golden)
        assert len(body) == len(consistency_cycles(graph))
    report(10, "byte-identical check/conditions reruns; goldens match")
