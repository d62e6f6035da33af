"""Command-line front end.

Subcommands: `check` (decision run on a framework), `conditions` (compile a
graph to its condition system), `verify` (randomized oracle-vs-conditions
harness), and `render` (SVG figure).  All runs are deterministic under a
fixed --seed (fallback: the TENSEC_SEED environment variable); reports carry
no wall-clock data, so outputs are byte-identical across repeated runs.

Exit codes: 0 run completed (verdict inside the report), 2 malformed input,
3 precondition failure (general position, the chart, or a named limit).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from .conditions import (condition_sexprs, fulfilled_with_witness, generate_system,
                         system_to_json)
from .errors import InputError, PreconditionError, TensecError
from .framework import (find_nonparallelizable_stress, forceload_from_stress,
                        framework_from_json, graph_from_json, read_json,
                        self_stress_basis)
from .fixtures import DESARGUES_GRAPH, PASCAL_GRAPH
from .projective import AffineChart, ProjLine
from .quantization import Quantization, is_consistent, quantization_from_stress
from .render import render_framed_cycle, render_framework
from .sampling import (desargues_concurrent_placement, pascal_conic_placement,
                       random_placement)


def _parse_chart(text: str) -> AffineChart:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("--chart expects three comma-separated rationals")
    return AffineChart(ProjLine.from_strings(parts))


@contextlib.contextmanager
def _int_str_limit():
    """A report number past CPython's int-to-str limit (ValueError), which
    the package leaves as it is, is a PreconditionError."""
    try:
        yield
    except ValueError:
        raise PreconditionError(
            f"a number in the report has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's int-to-str limit (sys.set_int_max_str_digits)") from None


def _emit(report: dict, text_lines, fmt: str):
    with _int_str_limit():
        text = json.dumps(report, sort_keys=True) if fmt == "json" else "\n".join(text_lines)
    sys.stdout.write(text + "\n")


@contextlib.contextmanager
def _phase(args, name: str):
    """Wall-clock time of a phase, reported on stderr with --timings only
    (keeps stdout stable)."""
    t0 = time.perf_counter()
    yield
    if args.timings:
        print(f"[timing] {name}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)


# ---------------------------------------------------------------------------
# check

def _slot_witness(system, fw, stress, chart):
    """Lines on the Xi slots that the quantization and the conditions are
    evaluated under, and the Quantization that holds them if one was built:
    ({}, None) without slots; the labels and the quantization of an oracle
    stress, derived from its force-load, when there is one; and
    (None, None), unknown, otherwise."""
    if not system.slots:
        return {}, None
    if stress is None:
        return None, None
    quant = quantization_from_stress(fw, forceload_from_stress(fw, stress, chart),
                                     system.trees)
    return quant.interior_labels, quant


def cmd_check(args) -> int:
    fw = framework_from_json(read_json(args.framework))
    fw.graph.require_min_degree()
    chart = _parse_chart(args.chart)
    report = {"command": "check", "input": args.framework, "seed": args.seed}

    # the graph's own limits refuse before the quadratic geometry runs
    with _phase(args, "compile"):
        system = generate_system(fw.graph)
    cycles = [c.cycle for c in system.conditions]

    with _phase(args, "general-position"):
        gp = fw.in_general_position
    report["general_position"] = gp
    if not gp:
        report["verdict"] = "UNDECIDED"
        _emit(report, ["general position: NO", "verdict: UNDECIDED"], args.format)
        return 3

    with _phase(args, "oracle"):
        basis = self_stress_basis(fw, chart)
        stress = find_nonparallelizable_stress(fw, basis, chart, args.seed)
    report["stress_dim"] = len(basis)
    oracle = stress is not None
    report["oracle_nonparallelizable"] = oracle

    consistent = fulfilled = None
    with _phase(args, "quantization"):
        witness, quant = _slot_witness(system, fw, stress, chart)
        if witness is None:
            report["quantization_note"] = report["conditions_note"] = \
                "unknown (existential over the line slots)"
        else:
            try:
                consistent = is_consistent(
                    quant or Quantization(fw, witness, system.trees), cycles)
            except PreconditionError as exc:
                report["quantization_note"] = str(exc)
    report["quantization_consistent"] = consistent

    with _phase(args, "conditions"):
        if witness is not None:
            fulfilled = fulfilled_with_witness(system, fw, witness, args.seed)
    report["conditions_count"] = len(system.conditions)
    if args.format == "json":
        with _int_str_limit():
            report["stress_basis"] = [
                {f"{u}-{v}": str(x) for (u, v), x in zip(fw.graph.edges, w)} for w in basis]
        report["conditions"] = [
            {"cycle": list(c.cycle), "sexpr": sexpr}
            for c, sexpr in zip(system.conditions, condition_sexprs(system))
        ]
    report["conditions_fulfilled"] = fulfilled
    witness_kind = None if witness is None else ("derived" if witness else "empty")
    report["witness"] = witness_kind
    report["verdict"] = "YES" if oracle else "NO"
    verdicts = [v for v in (oracle, consistent, fulfilled) if v is not None]
    report["verdict_sources_agree"] = len(set(verdicts)) == 1

    lines = [
        f"general position: YES",
        f"self-stress dimension: {len(basis)}",
        f"oracle non-parallelizable stress: {'YES' if oracle else 'NO'}",
        f"quantization consistent: {_tri(consistent)}",
        f"conditions fulfilled ({len(system.conditions)} conditions,"
        f" witness={witness_kind}): {_tri(fulfilled)}",
        f"verdict sources agree: {'YES' if report['verdict_sources_agree'] else 'NO'}",
        f"tensegrity: {report['verdict']}",
    ]
    _emit(report, lines, args.format)
    return 0


def _tri(v) -> str:
    return "unknown" if v is None else ("YES" if v else "NO")


# ---------------------------------------------------------------------------
# conditions

def cmd_conditions(args) -> int:
    system = generate_system(graph_from_json(read_json(args.graph)))
    payload = system_to_json(system)
    if args.format == "json":
        _emit(payload, [], "json")
    else:
        lines = [f"xi dimension: {len(system.slots)}"]
        if system.slots:
            lines.append("slots: " + " ".join(f"{v}:{i}" for v, i in system.slots))
        lines.append(f"conditions: {len(system.conditions)}")
        for cond, sexpr in zip(system.conditions, condition_sexprs(system)):
            lines.append(f"[{' '.join(cond.cycle)}] {sexpr}")
        _emit({}, lines, "text")
    return 0


# ---------------------------------------------------------------------------
# verify

def _constrained_generator(g):
    if g == DESARGUES_GRAPH:
        return desargues_concurrent_placement
    if g == PASCAL_GRAPH:
        return pascal_conic_placement
    return None


def _draw_sample(g, constrained, index: int, sample_seed: int):
    """Deterministic general-position sample; odd indices use the
    constrained on-variety generator when one exists."""
    use_constrained = constrained is not None and index % 2 == 1
    for attempt in range(200):
        s = sample_seed * 211 + attempt
        fw = constrained(g, s) if use_constrained else random_placement(g, s, bound=60)
        if fw.in_general_position:
            return fw
    raise PreconditionError(f"no general-position sample found for index {index}")


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    g = graph_from_json(read_json(args.graph))
    with _phase(args, "compile"):
        system = generate_system(g)
    constrained = _constrained_generator(g)
    chart = AffineChart.standard()
    samples = []
    mismatches = []
    positives = negatives = unknown = 0
    with _phase(args, "samples"):
        for i in range(args.samples):
            sample_seed = args.seed * 1000003 + i
            fw = _draw_sample(g, constrained, i, sample_seed)
            oracle_stress = find_nonparallelizable_stress(
                fw, self_stress_basis(fw, chart), chart, sample_seed)
            oracle = oracle_stress is not None
            witness, _ = _slot_witness(system, fw, oracle_stress, chart)
            if witness is None:
                cond = None
                unknown += 1
            else:
                cond = fulfilled_with_witness(system, fw, witness, sample_seed)
            positives += 1 if oracle else 0
            negatives += 0 if oracle else 1
            entry = {"index": i, "seed": sample_seed, "oracle": oracle,
                     "conditions": cond}
            samples.append(entry)
            if cond is not None and cond is not oracle:
                mismatches.append(entry)
    report = {
        "command": "verify",
        "input": args.graph,
        "seed": args.seed,
        "samples": args.samples,
        "xi_dimension": len(system.slots),
        "oracle_positive": positives,
        "oracle_negative": negatives,
        "skipped_unknown": unknown,
        "mismatches": mismatches,
        "mismatch_count": len(mismatches),
        "results": samples,
    }
    lines = [
        f"samples: {args.samples}",
        f"xi dimension: {len(system.slots)}",
        f"oracle positive: {positives}",
        f"oracle negative: {negatives}",
        f"condition verdict unknown (existential): {unknown}",
        f"mismatches: {len(mismatches)}",
    ]
    for m in mismatches:
        lines.append(f"  mismatch at sample {m['index']} (seed {m['seed']}): "
                     f"oracle={m['oracle']} conditions={m['conditions']}")
    _emit(report, lines, args.format)
    return 0


# ---------------------------------------------------------------------------
# render

def cmd_render(args) -> int:
    obj = read_json(args.input)
    chart = _parse_chart(args.chart)
    if isinstance(obj, dict) and "framings" in obj:
        from .cycles import framed_cycle_from_json

        svg = render_framed_cycle(framed_cycle_from_json(obj), chart)
    else:
        svg = render_framework(framework_from_json(obj), chart)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    return 0


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser(env_seed: str) -> argparse.ArgumentParser:
    """The argument parser, with `env_seed` (the TENSEC_SEED value) as the
    default of --seed.  Parsing leaves it unchanged, so `main` reuses it
    while the value stays the same."""
    parser = argparse.ArgumentParser(
        prog="tensec",
        description="decide, compile, verify and draw planar tensegrity "
                    "conditions over exact rationals")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        # argparse converts a string default with `type` only when the
        # option is read, so a bad TENSEC_SEED is a usage error of the
        # subcommands that take --seed and ignored by the others
        "seed": (("--seed",), {"type": int, "default": env_seed}),
        "samples": (("--samples",), {"type": int, "default": 200}),
        "format": (("--format",), {"choices": ("text", "json"), "default": "text"}),
        "chart": (("--chart",), {"default": "0,0,1",
                                 "help": "infinity-line coefficients a,b,c; "
                                         "--chart=-1,1,17 if a is negative"}),
        "output": (("-o", "--output"), {"required": True}),
        "timings": (("--timings",), {"action": "store_true",
                                     "help": "print phase timings to stderr"}),
    }
    for name, positional, func, wanted, help_text in (
            ("check", "framework", cmd_check, "seed format chart timings",
             "full decision run on a framework"),
            ("conditions", "graph", cmd_conditions, "format",
             "compile a graph to conditions"),
            ("verify", "graph", cmd_verify, "seed samples format timings",
             "randomized oracle comparison"),
            ("render", "input", cmd_render, "chart output",
             "render a framework or framed cycle")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional)
        for option in wanted.split():
            flags, kwargs = options[option]
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser(os.environ.get("TENSEC_SEED", "0")).parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TensecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
