"""Reference cycle set of the tests: every simple cycle on at most n-1
vertices, compiled with the library's own framing and cycle-condition
expressions.

The library checks and compiles only the fundamental cycles
(`quantization.consistency_cycles`), which decide consistency because the
holonomy is a homomorphism on the cycle space.  The tests keep the full
sweep to check that claim and to pin the goldens and counts of every simple
cycle.
"""

import functools

from tensec.conditions import (Condition, ConditionSystem, _node_table,
                               cycle_condition_expression, framing_expression,
                               generate_system, to_sexpr, vertex_labels)
from tensec.framework import cycle_corners, enumerate_simple_cycles
from tensec.quantization import consistency_cycles, default_trees, xi_slots


def simple_cycles(g):
    """Every simple cycle of the graph on at most n-1 vertices."""
    return enumerate_simple_cycles(g, len(g.vertices) - 1)


@functools.cache
def all_cycles_system(g) -> ConditionSystem:
    """One condition per simple cycle of `simple_cycles`, built exactly as
    `generate_system` builds the condition of a fundamental cycle, through
    a node table of its own."""
    g.require_min_degree()
    trees = default_trees(g)
    node = _node_table()
    labels = {v: vertex_labels(tree, v, node) for v, tree in trees.items()}
    conditions = []
    for cycle in simple_cycles(g):
        pts = [node("point", (v,)) for v in cycle]
        framings = [framing_expression(trees, v, a, b, labels[v], node)
                    for v, a, b in cycle_corners(cycle)]
        conditions.append(Condition(cycle, cycle_condition_expression(pts, framings, node)))
    return ConditionSystem(xi_slots(trees), tuple(conditions), trees)


def framing(trees, vertex, edge_a, edge_b, node):
    """`framing_expression` of two edges at a vertex, with its tree's labels
    and every node built by `node`, a `_node_table`."""
    return framing_expression(trees, vertex, edge_a, edge_b,
                              vertex_labels(trees[vertex], vertex, node), node)


def both_systems(g):
    """The compiled system of the fundamental cycles and the reference
    system of every simple cycle."""
    return generate_system(g), all_cycles_system(g)


def condition_lines(system):
    """The condition lines `tensec conditions` prints for a system."""
    return [f"[{' '.join(c.cycle)}] {to_sexpr(c.expr, {})}" for c in system.conditions]


def fundamental_lines(g, lines):
    """The lines of `condition_lines(all_cycles_system(g))`, or of a golden
    equal to them, that belong to the fundamental cycles, in their order."""
    fundamental = set(consistency_cycles(g))
    return [line for cond, line in zip(all_cycles_system(g).conditions, lines)
            if cond.cycle in fundamental]
