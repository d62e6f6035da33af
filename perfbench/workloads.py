"""Workloads of the tensec benchmark: input classes, seeded inputs, and the
rule that decides whether one op passed.

Every input is generated here, from the workload seed, before the op that
uses it is timed.  Placements are drawn by this file's own generator and
filtered by this file's own general-position test, so a change to
`tensec.sampling` or `tensec.framework` cannot change what is measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

#: Wall-clock limit of one op.  An op that runs longer is stopped and fails.
OP_LIMIT_S = 20.0

#: Coordinates are p/q with |p| <= BOUND and 1 <= q <= BOUND.
BOUND = 60



# ---------------------------------------------------------------------------
# Graphs

def wheel(spokes):
    rim = [f"r{i}" for i in range(spokes)]
    edges = [("h", r) for r in rim]
    edges += [(rim[i], rim[(i + 1) % spokes]) for i in range(spokes)]
    return ["h"] + rim, edges


def complete(n):
    vs = [f"v{i}" for i in range(n)]
    return vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]


def generalized_petersen(n, k):
    """GP(n, k): outer cycle u0..u(n-1), spokes ui-wi, inner star wi-w(i+k)."""
    vs = [f"u{i}" for i in range(n)] + [f"w{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        edges.add(tuple(sorted((f"u{i}", f"u{(i + 1) % n}"))))
        edges.add((f"u{i}", f"w{i}"))
        edges.add(tuple(sorted((f"w{i}", f"w{(i + k) % n}"))))
    return vs, sorted(edges)


def cube_with_chord():
    vs, edges = generalized_petersen(4, 1)
    return vs, edges + [("u0", "w2")]


def graph_json(vertices, edges):
    return {"vertices": list(vertices), "edges": [list(e) for e in edges]}


# ---------------------------------------------------------------------------
# Placements

def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _det(a, b, c):
    return sum(x * y for x, y in zip(_cross(a, b), c))


def strictly_general(points, edges):
    """Edge lines pairwise distinct, and no three concurrent unless the
    three edges share a vertex.

    This implies tensec's general position (every simple cycle on at most
    n-1 vertices has k(k-1)/2 distinct meets), since no three edges of a
    cycle share a vertex.  It rejects a few placements tensec would accept;
    random placements almost never hit either condition.
    """
    lines = [_cross(points[u], points[v]) for u, v in edges]
    m = len(edges)
    for i in range(m):
        for j in range(i + 1, m):
            if not any(_cross(lines[i], lines[j])):
                return False
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                if set(edges[i]) & set(edges[j]) & set(edges[k]):
                    continue
                if _det(lines[i], lines[j], lines[k]) == 0:
                    return False
    return True


def random_placement(rng, vertices, edges):
    """Seeded affine placement in strict general position, as framework
    JSON with integer homogeneous coordinates."""
    while True:
        points = {}
        for v in vertices:
            x = Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))
            y = Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))
            q = x.denominator * y.denominator
            points[v] = (int(x * q), int(y * q), q)
        if strictly_general(points, edges):
            return framework_json(vertices, edges, points)


def framework_json(vertices, edges, points):
    return {
        "vertices": [{"id": v, "coords": [str(c) for c in points[v]]}
                     for v in vertices],
        "edges": [list(e) for e in edges],
    }


def affine_image(fixture, rng):
    """The bundled fixture under a seeded integer affine map.

    Affine maps keep incidences, concurrency and conics, so the fixture's
    verdict and general position carry over; the map keeps every point off
    the line at infinity.
    """
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c != 0:
            break
    tx, ty = rng.randint(-5, 5), rng.randint(-5, 5)
    vertices = list(fixture.graph.vertices)
    points = {}
    for v in vertices:
        x, y, z = fixture.placement[v].coords
        points[v] = (a * x + b * y + tx * z, c * x + d * y + ty * z, z)
    return framework_json(vertices, fixture.graph.edges, points)


# ---------------------------------------------------------------------------
# Input classes and workloads

@dataclass(frozen=True)
class KnownFailure:
    """How an input class fails today: exit code `rc` with `message` on
    stderr.  Any other failure of the class is unexpected."""

    rc: int
    message: str
    why: str

    def matches(self, rc, stderr):
        return rc == self.rc and self.message in stderr


#: K5 and K6 today: the oracle combines basis stresses with one coefficient
#: per edge, and the force-load it builds is not in equilibrium.
ROADMAP_ITEM_2 = KnownFailure(
    3, "force-load is not an equilibrium force-load",
    "oracle combines basis stresses with one coefficient per edge (ROADMAP item 2)")


@dataclass(frozen=True)
class InputClass:
    """One kind of input.  `make(rng, index)` returns the JSON input of one
    op; every op of a class gets a fresh input."""

    name: str
    command: str
    make: object
    samples: int = 1
    fmt: str = "text"
    verdict: str | None = None
    known_failure: KnownFailure | None = None

    def argv(self, path, op_seed):
        argv = [self.command, path, "--seed", str(op_seed)]
        if self.command == "verify":
            argv += ["--samples", str(self.samples)]
        if self.fmt != "text":
            argv += ["--format", self.fmt]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple
    #: Rounds (one op per class each) of the traced run; fixed, so that the
    #: per-layer counts repeat exactly for a given seed.
    trace_rounds: int


def _placed(graph):
    vertices, edges = graph

    def make(rng, index):
        return random_placement(rng, vertices, edges)
    return make


def _graph_only(graph):
    def make(rng, index):
        return graph_json(*graph)
    return make


def _fixture(fixture):
    def make(rng, index):
        if index == 0:
            return framework_json(fixture.graph.vertices, fixture.graph.edges,
                                  {v: p.coords for v, p in fixture.placement.items()})
        return affine_image(fixture, rng)
    return make


def workloads():
    from tensec import fixtures as fx

    def fixture_graph(g):
        return g.vertices, g.edges

    hubs = Workload("check-hubs", tuple(
        InputClass(f"wheel{m}", "check", _placed(wheel(m)), verdict="YES")
        for m in range(4, 9)), trace_rounds=1)
    cubic = Workload("verify-cubic", (
        InputClass("v-desargues", "verify", _graph_only(fixture_graph(fx.DESARGUES_GRAPH)),
                   samples=40),
        InputClass("v-pascal", "verify", _graph_only(fixture_graph(fx.PASCAL_GRAPH)),
                   samples=40),
        InputClass("v-cube", "verify", _graph_only(generalized_petersen(4, 1)),
                   samples=20),
        InputClass("v-petersen", "verify", _graph_only(generalized_petersen(5, 2)),
                   samples=8),
        InputClass("v-gp83", "verify", _graph_only(generalized_petersen(8, 3)),
                   samples=2),
    ), trace_rounds=2)
    ladder = Workload("check-ladder", (
        InputClass("K4", "check", _placed(complete(4)), fmt="json", verdict="YES"),
        InputClass("K5", "check", _placed(complete(5)), fmt="json",
                   known_failure=ROADMAP_ITEM_2),
        InputClass("K6", "check", _placed(complete(6)), fmt="json",
                   known_failure=ROADMAP_ITEM_2),
        InputClass("cube-chord", "check", _placed(cube_with_chord()), fmt="json",
                   verdict="NO"),
        InputClass("petersen", "check", _placed(generalized_petersen(5, 2)),
                   fmt="json", verdict="NO"),
        InputClass("gp83", "check", _placed(generalized_petersen(8, 3)),
                   fmt="json", verdict="NO"),
        InputClass("desargues-pos", "check", _fixture(fx.DESARGUES_POS),
                   fmt="json", verdict="YES"),
        InputClass("desargues-neg", "check", _fixture(fx.DESARGUES_NEG),
                   fmt="json", verdict="NO"),
        InputClass("pascal-pos", "check", _fixture(fx.PASCAL_POS),
                   fmt="json", verdict="YES"),
        InputClass("pascal-neg", "check", _fixture(fx.PASCAL_NEG),
                   fmt="json", verdict="NO"),
    ), trace_rounds=2)
    return {w.name: w for w in (hubs, cubic, ladder)}


def class_names():
    """Every class name of every workload, in a fixed order."""
    return [c.name for w in workloads().values() for c in w.classes]


# ---------------------------------------------------------------------------
# Ops

@dataclass
class Op:
    """One `tensec` invocation on one fresh input."""

    index: int
    cls: InputClass
    instance: int
    path: str
    argv: list


def make_op(workload, seed, index, cls, instance, path):
    """Write the input of the `instance`-th op of `cls` to `path`.

    The input and the op's --seed depend only on (workload, seed, class,
    instance), so an op is reproducible in another process.
    """
    rng = random.Random(f"{workload.name}:{seed}:{cls.name}:{instance}")
    op_seed = rng.randrange(1 << 30)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cls.make(rng, instance), fh, indent=1)
    return Op(index, cls, instance, path, cls.argv(path, op_seed))


def judge(op, rc, stdout):
    """Why the op failed, or None.  Covers exit code, verdict-source
    agreement, verify mismatches, and the known verdict."""
    if rc != 0:
        return f"exit {rc} (expected 0)"
    if op.cls.command == "verify":
        lines = dict(line.split(": ", 1) for line in stdout.splitlines()
                     if ": " in line and not line.startswith(" "))
        if lines.get("samples") != str(op.cls.samples):
            return "verify report lacks the sample count"
        if lines.get("mismatches") != "0":
            return f"verify mismatches: {lines.get('mismatches')}"
        return None
    if op.cls.fmt == "json":
        report = json.loads(stdout)
        agree, verdict = report.get("verdict_sources_agree"), report.get("verdict")
    else:
        lines = dict(line.split(": ", 1) for line in stdout.splitlines()
                     if ": " in line)
        agree = {"YES": True, "NO": False}.get(lines.get("verdict sources agree"))
        verdict = lines.get("tensegrity")
    if agree is not True:
        return "verdict sources agree: NO"
    if op.cls.verdict is not None and verdict != op.cls.verdict:
        return f"verdict {verdict} (known answer {op.cls.verdict})"
    return None
