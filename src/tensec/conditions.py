"""Symbolic geometric conditions: the condition AST, the graph-to-condition
compiler, and evaluation.

A condition is a composition of the four geometric operations (meet, join,
generic point on a line, generic line through a point) capped by one of the
three relations (concurrent lines, collinear points, point-line incidence),
evaluated with absorption of the TRUE token.  Its leaves are the placed
points and the Xi slots of the default vertex trees (`xi_slots`): a
`linevar` names one free line through its vertex's point.

Compilation mirrors the numeric pipeline symbolically: a cycle's framing at
each vertex is the associated-framing expression (third-edge label after
rewiring surgeries, each surgery expanded into the seven-step meet/join
construction of the new interior line, folded over the vertex tree's leaf
path by `fold_to_shared_node`), and the cycle condition reduces the framed
cycle by symbolic projections down to a three-line relation.  The
conditions of one system share their subexpressions: `generate_system`
builds every node through one node table (`_node_table`), so structurally
equal nodes of one system are one object, and nodes compare and hash by
identity.  The table lives for one call, so two systems share no node.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .errors import InputError, PreconditionError
from .framework import Framework, Graph, cycle_corners
from .projective import (TRUE, join, meet, pick_generic_line_through,
                         pick_generic_point_on, rel_collinear,
                         rel_concurrent, rel_incident, sub_seed)
from .quantization import consistency_cycles, default_trees, xi_slots
from .resolution import fold_to_shared_node, tree_labels


# --------------------------------------------------------------------------
# AST

#: The grammar of conditions: op -> (value sort, argument sorts).  The two
#: leaves hold data in place of arguments: `point` a vertex id, `linevar` a
#: vertex id and a slot index.  The two generic picks also take an avoid
#: set of their own value sort.
GRAMMAR = {
    "point": ("point", None),
    "linevar": ("line", None),
    "join": ("line", ("point", "point")),
    "meet": ("point", ("line", "line")),
    "generic-point": ("point", ("line",)),
    "generic-line": ("line", ("point",)),
    "concurrent": ("relation", ("line", "line", "line")),
    "collinear": ("relation", ("point", "point", "point")),
    "incident": ("relation", ("point", "line")),
}
_GENERIC = ("generic-point", "generic-line")
_SORT = operator.attrgetter("sort")


def _sorts(exprs):
    """The expressions' sorts, or None if one of them is no expression."""
    try:
        return tuple(map(_SORT, exprs))
    except AttributeError:
        return None


@dataclass(slots=True, eq=False)
class Expr:
    """One node of a condition: an operation of `GRAMMAR` applied to `args`.

    The node checks its arguments' sorts and computes its own sort once, at
    construction.  Nodes compare and hash by identity: every node is built
    by the node table of its system (`_node_table`), which builds one node
    per structure, so two nodes of one system are equal exactly when they
    are the same object.  Nodes are never changed after construction.  The
    class is not frozen: frozen fields made compiling the 9 conditions of
    GP(8,3) 1.3x slower.
    """

    op: str
    args: tuple
    avoid: tuple = ()
    sort: str = field(init=False, repr=False)

    def __post_init__(self):
        if self.op not in GRAMMAR:
            raise InputError(f"unknown operation {self.op!r}")
        sort, arg_sorts = GRAMMAR[self.op]
        if arg_sorts is not None and _sorts(self.args) != arg_sorts:
            raise InputError(f"{self.op} expects arguments {arg_sorts},"
                             f" got {_sorts(self.args)}")
        if self.avoid and (self.op not in _GENERIC
                           or set(_sorts(self.avoid) or ()) != {sort}):
            raise InputError(f"{self.op} cannot avoid {_sorts(self.avoid)}")
        self.sort = sort


def to_sexpr(e, memo: dict) -> str:
    """The s-expression of a node.  `memo` maps generic nodes, the ones
    that seed picks and that surgeries nest, to their text: a dict shared
    over many calls (one evaluator's seeds, one report) builds the text of
    each once, however many nodes and conditions share it."""
    op, args = e.op, e.args
    if op == "point":
        return args[0]
    if op == "linevar":
        return f"(linevar {args[0]} {args[1]})"
    if op in _GENERIC:
        text = memo.get(e)
        if text is None:
            avoid = " ".join(to_sexpr(a, memo) for a in e.avoid)
            text = memo[e] = f"({op} {to_sexpr(args[0], memo)} (avoid {avoid}))"
        return text
    if len(args) == 2:
        return f"({op} {to_sexpr(args[0], memo)} {to_sexpr(args[1], memo)})"
    return (f"({op} {to_sexpr(args[0], memo)} {to_sexpr(args[1], memo)}"
            f" {to_sexpr(args[2], memo)})")


def to_json_ast(e, counter=None) -> dict:
    """JSON form with prefix-order node ids."""
    if counter is None:
        counter = [0]
    nid = counter[0]
    counter[0] += 1
    op, args = e.op, e.args
    if op == "point":
        return {"id": nid, "op": op, "vertex": args[0]}
    if op == "linevar":
        return {"id": nid, "op": op, "vertex": args[0], "index": args[1]}
    if op in _GENERIC:
        return {"id": nid, "op": op, "arg": to_json_ast(args[0], counter),
                "avoid": [to_json_ast(a, counter) for a in e.avoid]}
    return {"id": nid, "op": op, "args": [to_json_ast(a, counter) for a in args]}


# --------------------------------------------------------------------------
# Compiler

def _node_table():
    """The node builder of one condition system, hash-consed: called as
    `Expr`, it returns the one node of that operation, arguments and avoid
    set, built and checked the first time it is asked for.  The children in
    a key (op, args, avoid) come from the same table, so by induction equal
    keys mean equal structure, and the table is the one place that knows
    when two nodes are the same."""
    table = {}

    def node(op, args, avoid=()):
        key = (op, args, avoid)
        built = table.get(key)
        if built is None:
            built = table[key] = Expr(op, args, avoid)
        return built
    return node


def _surgery_expression(p, l12, l13, l14, l25, l26, node):
    """Seven-step meet/join construction of the relabeled interior line,
    its nodes built by `node`.

    Picks an affine chart (a generic point on the old interior line and a
    generic line through it), transports a generic point of l13 around the
    H-pattern by chart-parallels, and joins the final intersection back to
    the base vertex.
    """
    p_inf = node("generic-point", (l12,), (p,))
    l_inf = node("generic-line", (p_inf,), (l12,))
    p1 = node("generic-point", (l13,), (p, p_inf, node("meet", (l13, l_inf))))
    l_hat = node("join", (p1, node("meet", (l12, l_inf))))
    p2 = node("meet", (l_hat, l25))
    l_a = node("join", (p1, node("meet", (l14, l_inf))))
    l_b = node("join", (p2, node("meet", (l26, l_inf))))
    p3 = node("meet", (l_a, l_b))
    return node("join", (p, p3))


def vertex_labels(tree, vertex: str, node) -> dict:
    """Expression label of every edge of a vertex's tree: the edge line
    (join of its end points) at each leaf edge, a configuration-space
    variable (`linevar`) at each interior edge.  `node` builds the nodes."""
    return tree_labels(
        tree,
        lambda i, j: node("join", (node("point", (i,)), node("point", (j,)))),
        lambda k: node("linevar", (vertex, k)))


def framing_expression(trees: dict, vertex: str, edge_a, edge_b, labels, node):
    """Expression for the associated framing of two edges at a vertex.

    Folds the surgeries along the leaf-to-leaf path of the vertex's tree
    (`fold_to_shared_node`), expanding each into the seven-step
    construction; leaves that already share a node (the two other edges at
    a degree-3 vertex, each degree-4 complementary pair) give the third
    edge's label unexpanded.  `labels` are the tree's `vertex_labels`, and
    `node` is the `_node_table` that built them, which makes the framing's
    nodes the system's own.
    """
    edge_a, edge_b = tuple(edge_a), tuple(edge_b)
    if edge_a == edge_b:
        raise InputError("framing needs two distinct incident edges")
    tree = trees[vertex]

    def surgery_expression(*h):
        return _surgery_expression(node("point", (vertex,)), *h, node)

    return fold_to_shared_node(tree, labels, edge_a, edge_b, surgery_expression)


def cycle_condition_expression(cycle_points, framing_exprs, node):
    """Relation-rooted condition for a framed cycle given symbolically.

    Applies k-3 symbolic projection operations and caps with a three-line
    relation.  For k = 4 and k = 5 it emits the standard display shapes
    (projections at the middle pairs, the four-cycle one rewritten through
    the three-point relation); longer cycles merge the first two vertices
    until three remain.  `node` builds the nodes.
    """
    pts = list(cycle_points)
    frs = list(framing_exprs)
    k = len(pts)
    if k != len(frs) or k < 3:
        raise InputError("need k >= 3 points with k framings")

    def meet_of_joins(a, b, c, d):
        return node("meet", (node("join", (a, b)), node("join", (c, d))))

    if k == 3:
        return node("concurrent", tuple(frs))
    if k == 4:
        return node("collinear", (node("meet", (frs[0], frs[3])),
                                  node("meet", (frs[1], frs[2])),
                                  meet_of_joins(*pts)))
    if k == 5:
        left = node("join", (node("meet", (frs[1], frs[2])), meet_of_joins(*pts[:4])))
        right = node("join", (node("meet", (frs[3], frs[4])),
                              meet_of_joins(pts[2], pts[3], pts[4], pts[0])))
        return node("concurrent", (left, frs[0], right))
    while len(pts) > 3:
        merged = meet_of_joins(pts[-1], pts[0], pts[1], pts[2])
        new_fr = node("join", (merged, node("meet", (frs[0], frs[1]))))
        pts = [merged] + pts[2:]
        frs = [new_fr] + frs[2:]
    return node("concurrent", tuple(frs))


@dataclass(frozen=True)
class Condition:
    cycle: tuple
    expr: object


@dataclass(frozen=True)
class ConditionSystem:
    """Conditions over the Xi slots (vertex, k) of `xi_slots` of `trees`,
    the default vertex trees the system was compiled over.

    `_sexprs` is the system's one `to_sexpr` memo: the text of each generic
    node is built once, by the first evaluation that seeds a pick with it
    or by the first report, and every later evaluation and report reads it.
    It lives as long as the system, one command.
    """

    slots: tuple
    conditions: tuple
    trees: dict = field(repr=False, compare=False)
    _sexprs: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)


def generate_system(g: Graph) -> ConditionSystem:
    """One relation-rooted condition per cycle of `consistency_cycles`,
    over the default trees.

    The system depends only on the graph.  Fulfillment is equivalent to the
    existence of a non-parallelizable tensegrity on frameworks in general
    position, which `check` tests first.
    """
    g.require_min_degree()
    trees = default_trees(g)
    node = _node_table()
    labels = {v: vertex_labels(tree, v, node) for v, tree in trees.items()}
    points = {v: node("point", (v,)) for v in g.vertices}
    conditions = []
    for cycle in consistency_cycles(g):
        framings = [framing_expression(trees, v, a, b, labels[v], node)
                    for v, a, b in cycle_corners(cycle)]
        pts = [points[v] for v in cycle]
        conditions.append(Condition(tuple(cycle),
                                    cycle_condition_expression(pts, framings, node)))
    return ConditionSystem(xi_slots(trees), tuple(conditions), trees)


# --------------------------------------------------------------------------
# Evaluation

def evaluate(expr, fw: Framework, line_assignment, seed: int):
    """Bottom-up evaluation over a placement and a slot assignment.

    Relation roots return a bool; inner nodes return a point, a line, or the
    absorbing TRUE token.  Generic nodes draw seeded rational witnesses with
    their structural avoid sets; the same (expression, seed) pair always
    evaluates identically.
    """
    return _evaluator(fw, line_assignment, seed, {})(expr)


def _evaluator(fw: Framework, line_assignment, seed: int, sexprs: dict):
    """`evaluate` as a one-argument function that memoizes by subexpression.

    A node evaluates identically wherever it recurs under one (placement,
    assignment, seed), so each node is evaluated once.  No value is None.
    The picks' seed texts go through the `to_sexpr` memo `sexprs`.
    """
    memo = {}

    def ev(expr):
        value = memo.get(expr)
        if value is None:
            value = memo[expr] = _node_value(expr, ev, fw, line_assignment, seed,
                                             sexprs)
        return value
    return ev


def _node_value(expr, ev, fw: Framework, line_assignment, seed: int, sexprs):
    """Value of one node, its subexpressions evaluated by `ev`; a generic
    node seeds its pick with its s-expression, memoized in `sexprs`."""
    op, args = expr.op, expr.args
    if op == "point":
        try:
            return fw.placement[args[0]]
        except KeyError as exc:
            raise InputError(f"placement misses vertex {args[0]!r}") from exc
    if op == "linevar":
        if args not in line_assignment:
            raise InputError(f"assignment misses slot {args}")
        line = line_assignment[args]
        if not line.contains(fw.placement[args[0]]):
            raise PreconditionError(f"assigned line for {args} misses its point")
        return line
    if op == "join":
        return join(ev(args[0]), ev(args[1]))
    if op == "meet":
        return meet(ev(args[0]), ev(args[1]))
    if op in _GENERIC:
        base = ev(args[0])
        if base is TRUE:
            return TRUE
        avoid = [a for a in map(ev, expr.avoid) if a is not TRUE]
        pick = pick_generic_point_on if op == "generic-point" else pick_generic_line_through
        return pick(base, avoid, sub_seed(seed, to_sexpr(expr, sexprs)))
    if op == "concurrent":
        return rel_concurrent(ev(args[0]), ev(args[1]), ev(args[2]))
    if op == "collinear":
        return rel_collinear(ev(args[0]), ev(args[1]), ev(args[2]))
    return rel_incident(ev(args[0]), ev(args[1]))


def fulfilled_with_witness(system: ConditionSystem, fw: Framework,
                           witness, seed: int) -> bool:
    """Conjunction of all conditions under one slot assignment; a
    subexpression shared by several conditions is evaluated once."""
    for slot in system.slots:
        if slot not in witness:
            raise InputError(f"witness misses slot {slot}")
    ev = _evaluator(fw, witness, seed, system._sexprs)
    return all(ev(cond.expr) for cond in system.conditions)


# --------------------------------------------------------------------------
# JSON

def condition_sexprs(system: ConditionSystem) -> list:
    """The s-expression of every condition, in order, each generic node's
    text built once per system."""
    return [to_sexpr(cond.expr, system._sexprs) for cond in system.conditions]


def system_to_json(system: ConditionSystem) -> dict:
    return {
        "xi": {"slots": [[v, i] for v, i in system.slots]},
        "conditions": [
            {"cycle": list(cond.cycle),
             "ast": to_json_ast(cond.expr),
             "sexpr": sexpr}
            for cond, sexpr in zip(system.conditions, condition_sexprs(system))
        ],
    }
