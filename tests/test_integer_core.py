"""The integer projective core against its rational references
(`reference_rational.py`): the triple normal form, the seeded picks and
draws, and the slot witness of `check` and `verify`, which derives its lines
from an integer multiple of the oracle stress's force-load."""

import functools
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import tensec.projective as projective
from reference_rational import (reference_desargues_concurrent_placement,
                                reference_pascal_conic_placement,
                                reference_pick_generic_line_through,
                                reference_pick_generic_point_on, reference_primitive,
                                reference_random_affine_point,
                                reference_random_placement, reference_slot_witness)
from test_framework import mixed_sign_chart
from tensec.cli import _slot_witness, main
from tensec.conditions import generate_system
from tensec.fixtures import DESARGUES_GRAPH, DESARGUES_POS, PASCAL_GRAPH
from tensec.framework import (Graph, find_nonparallelizable_stress,
                              forceload_from_stress, framework_to_json,
                              self_stress_basis)
from tensec.numeric import clear_denominators, primitive, primitive_triple
from tensec.projective import (AffineChart, ProjLine, ProjPoint,
                               pick_generic_line_through, pick_generic_point_on)
from tensec.sampling import (desargues_concurrent_placement, pascal_conic_placement,
                             random_affine_point, random_placement)

GOLDEN = Path(__file__).resolve().parent / "golden"


def wheel(spokes):
    rim = [f"r{i}" for i in range(spokes)]
    return Graph(["h"] + rim, [("h", r) for r in rim]
                 + [(rim[i], rim[(i + 1) % spokes]) for i in range(spokes)])


@functools.lru_cache(maxsize=None)
def wheel_system(spokes):
    g = wheel(spokes)
    return g, generate_system(g)


# entries around zero make zeros and negative leading entries common
small = st.integers(-6, 6)
entries = st.one_of(small, st.integers(-10**12, 10**12))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(entries, entries, entries), st.integers(-5, 5).filter(bool))
def test_primitive_of_int_triples_matches_fraction_triples(triple, k):
    want = reference_primitive(triple)
    for form in (primitive(triple),
                 primitive(clear_denominators([Fraction(x) for x in triple])),
                 primitive_triple(*triple)):
        assert form == want
        assert all(type(x) is int for x in form)
    scaled = tuple(k * x for x in triple)
    assert primitive(scaled) == want
    assert primitive(clear_denominators([Fraction(x, k) for x in triple])) == want
    if any(triple):
        assert (ProjPoint(triple).coords == ProjLine(triple).coeffs
                == ProjPoint([Fraction(x, 7) for x in scaled]).coords == want)


nonzero_triples = st.tuples(small, small, small).filter(any)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nonzero_triples, st.integers(0, 2**31), st.integers(1, 4))
def test_picks_match_the_fraction_pencil(triple, seed, picks):
    # each pick avoids the ones before it, so a later pick rejects the
    # candidates the earlier ones took
    for pick, reference, of in (
            (pick_generic_point_on, reference_pick_generic_point_on, ProjLine),
            (pick_generic_line_through, reference_pick_generic_line_through, ProjPoint)):
        element = of(triple)
        avoid = set()
        for _ in range(picks):
            got = pick(element, avoid, seed)
            assert got == reference(element, avoid, seed)
            assert got not in avoid
            avoid.add(got)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**31), st.sampled_from((1, 2, 60, 1000)))
def test_random_affine_point_matches_fraction_draw(seed, bound):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert random_affine_point(rng, bound) == reference_random_affine_point(ref, bound)
    assert rng.random() == ref.random()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(4, 9), st.integers(0, 10**6), st.sampled_from((2, 60, 1000)))
def test_random_placement_matches_fraction_draw(spokes, seed, bound):
    g = wheel(spokes)
    got = random_placement(g, seed, bound)
    assert got.placement == reference_random_placement(g, seed, bound).placement


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_desargues_placement_matches_fraction_draw(seed):
    got = desargues_concurrent_placement(DESARGUES_GRAPH, seed)
    want = reference_desargues_concurrent_placement(DESARGUES_GRAPH, seed)
    assert got.placement == want.placement


#: sha256 of the first 40 Desargues-concurrent placements (seeds 0-39), each
#: vertex's repr((id, coords)) in vertex order, recorded while the sampler
#: still computed each rung line's direction once per candidate point.
DESARGUES_PLACEMENTS_SHA256 = "3ac1712696d53cb2946d66568973136904f8bf4dd89128d9b36cede48be3ad37"


def test_desargues_placements_keep_their_digest():
    digest = hashlib.sha256()
    for seed in range(40):
        fw = desargues_concurrent_placement(DESARGUES_GRAPH, seed)
        for v in fw.graph.vertices:
            digest.update(repr((v, fw.placement[v].coords)).encode())
    assert digest.hexdigest() == DESARGUES_PLACEMENTS_SHA256


def test_pascal_placement_matches_fraction_draw(monkeypatch):
    # the library builds each conic point from ints: the Fraction clearing
    # of the triple constructor is never reached
    monkeypatch.setattr(projective, "clear_denominators", None)
    got = [pascal_conic_placement(PASCAL_GRAPH, seed).placement for seed in range(201)]
    monkeypatch.undo()
    for seed, placement in enumerate(got):
        assert placement == reference_pascal_conic_placement(PASCAL_GRAPH, seed).placement


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spokes=st.integers(4, 9), placement=st.integers(0, 10**6),
       mixed=st.booleans(), seed=st.integers(0, 10**6))
def test_slot_witness_matches_fraction_forceload(spokes, placement, mixed, seed):
    g, system = wheel_system(spokes)
    fw = random_placement(g, placement, 60)
    chart = mixed_sign_chart(fw, seed) if mixed else AffineChart.standard()
    stress = find_nonparallelizable_stress(fw, self_stress_basis(fw, chart), chart, seed)
    labels, quant = _slot_witness(system, fw, stress, chart)
    assert labels == reference_slot_witness(system, fw, stress, chart)
    if stress is not None:
        assert quant.interior_labels is labels
        load = forceload_from_stress(fw, stress, chart)
        assert all(type(x) is int for f in load.forces.values() for x in f.dual)


def test_check_builds_one_quantization(monkeypatch, capsys):
    """The golden wheel6 has slots and an oracle stress: the quantization
    of the stress is the one its monodromy is checked on."""
    import tensec.quantization as quantization

    built = []
    post_init = quantization.Quantization.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(quantization.Quantization, "__post_init__", counted)
    monkeypatch.chdir(GOLDEN)
    assert main(["check", "wheel6_framework.json", "--seed", "6",
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_slot_witness_builds_a_load_only_with_slots(tmp_path, monkeypatch, capsys):
    """The Desargues-positive fixture has no line slots and is decided under
    the empty witness, so `check` builds no integer load for it; the golden
    wheel6 has slots and an oracle stress, and builds one.  Only the slot
    witness calls the builder through the cli module's name: the oracle's
    own loads are not counted."""
    import tensec.cli as cli

    calls = []
    monkeypatch.setattr(cli, "forceload_from_stress",
                        lambda *args: calls.append(args) or forceload_from_stress(*args))
    path = tmp_path / "dpos.json"
    path.write_text(json.dumps(framework_to_json(DESARGUES_POS)))
    assert main(["check", str(path), "--seed", "2"]) == 0
    assert "tensegrity: YES" in capsys.readouterr().out
    assert len(calls) == 0
    monkeypatch.chdir(GOLDEN)
    assert main(["check", "wheel6_framework.json", "--seed", "6",
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


#: Fractions constructed by one `check` of the golden 6-spoke wheel: none.
#: Its 21 coordinates and 3 chart coefficients are read as ints, and the
#: oracle, its stress basis and the report, the picks, the slot witness and
#: the resolution schemes' force-loads make none either.  No Fraction
#: arithmetic runs, so the count does not depend on how a Python version
#: builds arithmetic results.
CHECK_WHEEL6_FRACTIONS = 0


def test_check_wheel6_fraction_count(monkeypatch, capsys):
    new = Fraction.__new__
    count = [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.chdir(GOLDEN)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert main(["check", "wheel6_framework.json", "--seed", "6",
                 "--format", "json"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert count[0] == CHECK_WHEEL6_FRACTIONS


def _creator_module():
    """Module of the first frame outside `fractions` that led to the
    current Fraction creation (an arithmetic result is built inside
    `fractions`, on behalf of the code that did the arithmetic)."""
    frame = sys._getframe(2)
    while frame.f_globals.get("__name__") == "fractions":
        frame = frame.f_back
    return frame.f_globals.get("__name__")


def test_check_wheel6_makes_no_fraction_in_resolution_or_projective(monkeypatch, capsys):
    """Every Fraction that one `check` of the golden wheel creates, found
    through `Fraction.__new__` and, where the Python version builds
    arithmetic results without it, `Fraction._from_coprime_ints`: there is
    none, on behalf of any module, the input reader included."""
    creators = set()
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        creators.add(_creator_module())
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in vars(Fraction):
        from_coprime = vars(Fraction)["_from_coprime_ints"].__func__

        def counted_from_coprime(cls, *args):
            creators.add(_creator_module())
            return from_coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted_from_coprime))
    monkeypatch.chdir(GOLDEN)
    assert main(["check", "wheel6_framework.json", "--seed", "6",
                 "--format", "json"]) == 0
    found = set(creators)
    # the hooks are live: a sum made here is seen, on behalf of this module
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    monkeypatch.undo()
    capsys.readouterr()
    assert found == set()
    assert creators == {__name__}
