"""Symbolic geometric conditions: the configuration space, the condition
AST, the graph-to-condition compiler, and evaluation.

The configuration space of a framework fixes all placed points and attaches
deg(v) - 3 free lines through each vertex v.  A condition is a composition
of the four geometric operations (meet, join, generic point on a line,
generic line through a point) capped by one of the three relations
(concurrent lines, collinear points, point-line incidence), evaluated with
absorption of the TRUE token.

Compilation mirrors the numeric pipeline symbolically: a cycle's framing at
each vertex is the associated-framing expression (third-edge label after
rewiring surgeries, each surgery expanded into the seven-step meet/join
construction of the new interior line), and the cycle condition reduces the
framed cycle by symbolic projections down to a three-line relation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InputError, PreconditionError
from .framework import Framework, Graph, cycle_corners
from .projective import (TRUE, join, meet, pick_generic_line_through,
                         pick_generic_point_on, rel_collinear,
                         rel_concurrent, rel_incident, sub_seed)
from .quantization import consistency_cycles, default_trees
from .resolution import tree_edge, tree_labels, walk_to_shared_node


# --------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class PointConst:
    vertex: str


@dataclass(frozen=True)
class LineVar:
    vertex: str
    index: int


@dataclass(frozen=True)
class Join:
    a: object
    b: object

    def __post_init__(self):
        _require_point(self.a)
        _require_point(self.b)


@dataclass(frozen=True)
class Meet:
    a: object
    b: object

    def __post_init__(self):
        _require_line(self.a)
        _require_line(self.b)


@dataclass(frozen=True)
class GenericPointOn:
    line: object
    avoid: tuple = ()

    def __post_init__(self):
        _require_line(self.line)
        for a in self.avoid:
            _require_point(a)


@dataclass(frozen=True)
class GenericLineThrough:
    point: object
    avoid: tuple = ()

    def __post_init__(self):
        _require_point(self.point)
        for a in self.avoid:
            _require_line(a)


@dataclass(frozen=True)
class Concurrent3:
    a: object
    b: object
    c: object

    def __post_init__(self):
        for x in (self.a, self.b, self.c):
            _require_line(x)


@dataclass(frozen=True)
class Collinear3:
    a: object
    b: object
    c: object

    def __post_init__(self):
        for x in (self.a, self.b, self.c):
            _require_point(x)


@dataclass(frozen=True)
class Incident:
    point: object
    line: object

    def __post_init__(self):
        _require_point(self.point)
        _require_line(self.line)


_POINT_NODES = (PointConst, Meet, GenericPointOn)
_LINE_NODES = (LineVar, Join, GenericLineThrough)
_RELATION_NODES = (Concurrent3, Collinear3, Incident)


def _require_point(e):
    if not isinstance(e, _POINT_NODES):
        raise InputError(f"expected a point-valued expression, got {type(e).__name__}")


def _require_line(e):
    if not isinstance(e, _LINE_NODES):
        raise InputError(f"expected a line-valued expression, got {type(e).__name__}")


def to_sexpr(e) -> str:
    if isinstance(e, PointConst):
        return e.vertex
    if isinstance(e, LineVar):
        return f"(linevar {e.vertex} {e.index})"
    if isinstance(e, Join):
        return f"(join {to_sexpr(e.a)} {to_sexpr(e.b)})"
    if isinstance(e, Meet):
        return f"(meet {to_sexpr(e.a)} {to_sexpr(e.b)})"
    if isinstance(e, GenericPointOn):
        avoid = " ".join(to_sexpr(a) for a in e.avoid)
        return f"(generic-point {to_sexpr(e.line)} (avoid {avoid}))"
    if isinstance(e, GenericLineThrough):
        avoid = " ".join(to_sexpr(a) for a in e.avoid)
        return f"(generic-line {to_sexpr(e.point)} (avoid {avoid}))"
    if isinstance(e, Concurrent3):
        return f"(concurrent {to_sexpr(e.a)} {to_sexpr(e.b)} {to_sexpr(e.c)})"
    if isinstance(e, Collinear3):
        return f"(collinear {to_sexpr(e.a)} {to_sexpr(e.b)} {to_sexpr(e.c)})"
    if isinstance(e, Incident):
        return f"(incident {to_sexpr(e.point)} {to_sexpr(e.line)})"
    raise InputError(f"not an expression: {e!r}")


def to_json_ast(e, counter=None) -> dict:
    """JSON form with prefix-order node ids."""
    if counter is None:
        counter = [0]
    nid = counter[0]
    counter[0] += 1
    if isinstance(e, PointConst):
        return {"id": nid, "op": "point", "vertex": e.vertex}
    if isinstance(e, LineVar):
        return {"id": nid, "op": "linevar", "vertex": e.vertex, "index": e.index}
    if isinstance(e, Join):
        return {"id": nid, "op": "join",
                "args": [to_json_ast(e.a, counter), to_json_ast(e.b, counter)]}
    if isinstance(e, Meet):
        return {"id": nid, "op": "meet",
                "args": [to_json_ast(e.a, counter), to_json_ast(e.b, counter)]}
    if isinstance(e, GenericPointOn):
        return {"id": nid, "op": "generic-point",
                "arg": to_json_ast(e.line, counter),
                "avoid": [to_json_ast(a, counter) for a in e.avoid]}
    if isinstance(e, GenericLineThrough):
        return {"id": nid, "op": "generic-line",
                "arg": to_json_ast(e.point, counter),
                "avoid": [to_json_ast(a, counter) for a in e.avoid]}
    if isinstance(e, Concurrent3):
        return {"id": nid, "op": "concurrent",
                "args": [to_json_ast(x, counter) for x in (e.a, e.b, e.c)]}
    if isinstance(e, Collinear3):
        return {"id": nid, "op": "collinear",
                "args": [to_json_ast(x, counter) for x in (e.a, e.b, e.c)]}
    if isinstance(e, Incident):
        return {"id": nid, "op": "incident",
                "args": [to_json_ast(e.point, counter), to_json_ast(e.line, counter)]}
    raise InputError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# Configuration space

@dataclass(frozen=True)
class XiSpace:
    """Free-line slots (vertex, 1..deg-3) on top of the fixed placement."""

    slots: tuple

    @property
    def dimension(self) -> int:
        return len(self.slots)


def xi_space(g: Graph) -> XiSpace:
    g.require_min_degree(3)
    slots = []
    for v in g.vertices:
        for idx in range(1, g.degree(v) - 3 + 1):
            slots.append((v, idx))
    return XiSpace(tuple(slots))


# --------------------------------------------------------------------------
# Compiler

def _surgery_expression(p, l12, l13, l14, l25, l26):
    """Seven-step meet/join construction of the relabeled interior line.

    Picks an affine chart (a generic point on the old interior line and a
    generic line through it), transports a generic point of l13 around the
    H-pattern by chart-parallels, and joins the final intersection back to
    the base vertex.
    """
    p_inf = GenericPointOn(l12, avoid=(p,))
    l_inf = GenericLineThrough(p_inf, avoid=(l12,))
    p1 = GenericPointOn(l13, avoid=(p, p_inf, Meet(l13, l_inf)))
    l_hat = Join(p1, Meet(l12, l_inf))
    p2 = Meet(l_hat, l25)
    l_a = Join(p1, Meet(l14, l_inf))
    l_b = Join(p2, Meet(l26, l_inf))
    p3 = Meet(l_a, l_b)
    return Join(p, p3)


def framing_expression(trees: dict, vertex: str, edge_a, edge_b):
    """Expression for the associated framing of two edges at a vertex.

    Walks the leaf-to-leaf path of the vertex's tree, expanding each surgery
    into the seven-step construction; leaves that already share a node (the
    two other edges at a degree-3 vertex, each degree-4 complementary pair)
    give the third edge's label unexpanded.
    """
    edge_a, edge_b = tuple(edge_a), tuple(edge_b)
    if edge_a == edge_b:
        raise InputError("framing needs two distinct incident edges")
    # expression labels: edge lines at leaf edges, configuration-space
    # variables at interior edges
    labels = tree_labels(trees[vertex], lambda i, j: Join(PointConst(i), PointConst(j)),
                         lambda k: LineVar(vertex, k))
    base = PointConst(vertex)

    def surgery_expression(tree, labels, h):
        return _surgery_expression(base, *(labels[tree_edge(*e)] for e in h))

    return walk_to_shared_node(trees[vertex], labels, edge_a, edge_b,
                               surgery_expression)


def cycle_condition_expression(cycle_points, framing_exprs, variant: str = "paper"):
    """Relation-rooted condition for a framed cycle given symbolically.

    Applies k-3 symbolic projection operations and caps with a three-line
    relation.  The default variant emits the standard display shapes for
    k = 4 and k = 5 (projections at the middle pairs, the four-cycle one
    rewritten through the three-point relation); `variant="head"` always
    merges the first two vertices, giving an equivalent condition by a
    different operation order.
    """
    pts = list(cycle_points)
    frs = list(framing_exprs)
    k = len(pts)
    if k != len(frs) or k < 3:
        raise InputError("need k >= 3 points with k framings")
    if k == 3:
        return Concurrent3(frs[0], frs[1], frs[2])
    if variant == "paper" and k == 4:
        return Collinear3(
            Meet(frs[0], frs[3]),
            Meet(frs[1], frs[2]),
            Meet(Join(pts[0], pts[1]), Join(pts[2], pts[3])),
        )
    if variant == "paper" and k == 5:
        left = Join(Meet(frs[1], frs[2]),
                    Meet(Join(pts[0], pts[1]), Join(pts[2], pts[3])))
        right = Join(Meet(frs[3], frs[4]),
                     Meet(Join(pts[2], pts[3]), Join(pts[4], pts[0])))
        return Concurrent3(left, frs[0], right)
    while len(pts) > 3:
        merged = Meet(Join(pts[-1], pts[0]), Join(pts[1], pts[2]))
        new_fr = Join(merged, Meet(frs[0], frs[1]))
        pts = [merged] + pts[2:]
        frs = [new_fr] + frs[2:]
    return Concurrent3(frs[0], frs[1], frs[2])


@dataclass(frozen=True)
class Condition:
    cycle: tuple
    expr: object


@dataclass(frozen=True)
class ConditionSystem:
    xi: XiSpace
    conditions: tuple


def generate_system(g: Graph, mode: str = "all") -> ConditionSystem:
    """One relation-rooted condition per cycle of `consistency_cycles`,
    over the default trees.

    The system depends only on the graph.  Fulfillment is equivalent to the
    existence of a non-parallelizable tensegrity on frameworks in general
    position, which `check` tests first.
    """
    g.require_min_degree(3)
    # a corner (vertex, edge in, edge out) recurs in many cycles
    framing = functools.cache(functools.partial(framing_expression, default_trees(g)))
    conditions = []
    for cycle in consistency_cycles(g, mode):
        framings = [framing(*corner) for corner in cycle_corners(cycle)]
        pts = [PointConst(v) for v in cycle]
        conditions.append(Condition(tuple(cycle),
                                    cycle_condition_expression(pts, framings)))
    return ConditionSystem(xi_space(g), tuple(conditions))


# --------------------------------------------------------------------------
# Evaluation

def evaluate(expr, fw: Framework, line_assignment, seed: int):
    """Bottom-up evaluation over a placement and a slot assignment.

    Relation roots return a bool; inner nodes return a point, a line, or the
    absorbing TRUE token.  Generic nodes draw seeded rational witnesses with
    their structural avoid sets; the same (expression, seed) pair always
    evaluates identically.
    """
    return _evaluator(fw, line_assignment, seed)(expr)


_UNSET = object()


def _evaluator(fw: Framework, line_assignment, seed: int):
    """`evaluate` as a one-argument function that memoizes by subexpression.

    Equal subexpressions evaluate identically under one (placement,
    assignment, seed), so each is evaluated once however often it recurs.
    """
    memo = {}

    def ev(expr):
        value = memo.get(expr, _UNSET)
        if value is _UNSET:
            value = memo[expr] = _node_value(expr, ev, fw, line_assignment, seed)
        return value
    return ev


def _node_value(expr, ev, fw: Framework, line_assignment, seed: int):
    """Value of one node, its subexpressions evaluated by `ev`."""
    if isinstance(expr, PointConst):
        try:
            return fw.placement[expr.vertex]
        except KeyError as exc:
            raise InputError(f"placement misses vertex {expr.vertex!r}") from exc
    if isinstance(expr, LineVar):
        key = (expr.vertex, expr.index)
        if key not in line_assignment:
            raise InputError(f"assignment misses slot {key}")
        line = line_assignment[key]
        if not line.contains(fw.placement[expr.vertex]):
            raise PreconditionError(f"assigned line for {key} misses its point")
        return line
    if isinstance(expr, Join):
        return join(ev(expr.a), ev(expr.b))
    if isinstance(expr, Meet):
        return meet(ev(expr.a), ev(expr.b))
    if isinstance(expr, GenericPointOn):
        line = ev(expr.line)
        if line is TRUE:
            return TRUE
        avoid = [a for a in map(ev, expr.avoid) if a is not TRUE]
        return pick_generic_point_on(line, avoid, sub_seed(seed, to_sexpr(expr)))
    if isinstance(expr, GenericLineThrough):
        point = ev(expr.point)
        if point is TRUE:
            return TRUE
        avoid = [a for a in map(ev, expr.avoid) if a is not TRUE]
        return pick_generic_line_through(point, avoid, sub_seed(seed, to_sexpr(expr)))
    if isinstance(expr, Concurrent3):
        return rel_concurrent(ev(expr.a), ev(expr.b), ev(expr.c))
    if isinstance(expr, Collinear3):
        return rel_collinear(ev(expr.a), ev(expr.b), ev(expr.c))
    if isinstance(expr, Incident):
        return rel_incident(ev(expr.point), ev(expr.line))
    raise InputError(f"not an expression: {expr!r}")


def fulfilled_with_witness(system: ConditionSystem, fw: Framework,
                           witness, seed: int) -> bool:
    """Conjunction of all conditions under one slot assignment; a
    subexpression shared by several conditions is evaluated once."""
    for slot in system.xi.slots:
        if slot not in witness:
            raise InputError(f"witness misses slot {slot}")
    ev = _evaluator(fw, witness, seed)
    return all(ev(cond.expr) for cond in system.conditions)


# --------------------------------------------------------------------------
# JSON

def system_to_json(system: ConditionSystem) -> dict:
    return {
        "xi": {"slots": [[v, i] for v, i in system.xi.slots]},
        "conditions": [
            {"cycle": list(cond.cycle),
             "ast": to_json_ast(cond.expr),
             "sexpr": to_sexpr(cond.expr)}
            for cond in system.conditions
        ],
    }
