"""End-to-end and per-layer benchmark of tensec.

    python3 perfbench/run.py --workload check-hubs --seed 1 --seconds 30 --trace 0

Run from anywhere; the benchmark works in the checkout that holds it and
imports tensec from its `src/` directory.  One process, one closed-loop
client, no threads: each op calls `tensec.cli.main(argv)` in this process
with stdout captured, on an input generated from the seed just before the
op (see workloads.py).  No input is decided twice in one process, and
garbage is collected between ops, outside the timed region.

`--trace 0` runs rounds of one op per input class, and starts another
round only while it can end within `--seconds` (the first round always
runs), so every round is complete; it prints the end-to-end metrics, with times scaled to a fixed machine
speed by a reference computation timed around and during each op
(README.md says why).  `--trace 1` runs a fixed number of
rounds with every layer wrapped (tracing.py), replays the same ops
untraced in a fresh interpreter, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it name the run environment, every class and
every failed op.  The exit code is 0 unless an op failed in a way that is not
its class's known failure, a report was not byte-identical across processes
or runs of the same code, or the per-layer counts of a seed changed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

from tracing import LAYERS, Tracer
from workloads import OP_LIMIT_S, class_names, judge, make_op, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = Path(".perfbench")

#: Fresh interpreters started to measure setup_s; the median is reported.
SETUP_PROBES = 9
#: Median of reference_s() on the 2-core x86 box the benchmark was tuned
#: on.  Untraced op times are reported at this reference speed.
REF_NOMINAL_S = 0.005
#: How often an untraced op pauses to time one reference run.
SAMPLE_INTERVAL_S = 0.25
#: Untraced runs replay ops in a fresh interpreter up to this much op time.
REPLAY_BUDGET_S = 3.0

SETUP_CODE = """
import json, sys
import tensec.cli
from tensec.framework import framework_from_json, graph_from_json
for command, path in json.loads(sys.argv[1]):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    (framework_from_json if command == "check" else graph_from_json)(obj)
"""


class OpTimeout(BaseException):
    """Raised in the op by SIGALRM when it runs past the per-op limit."""


class OpClock:
    """Per-op limit and machine-speed sampling.

    SIGALRM fires every SAMPLE_INTERVAL_S of the op (or once, at the limit,
    without sampling).  Past the limit the handler stops the op; otherwise
    it times one reference run, and that time is left out of the op's."""

    def __init__(self, limit, sample):
        self.limit, self.sample = limit, sample
        self.refs, self.excluded, self.t0 = [], 0.0, 0.0

    def on_alarm(self, signum, frame):
        now = time.perf_counter()
        if not self.sample or now - self.t0 >= self.limit:
            raise OpTimeout
        self.refs.append(reference_s())
        self.excluded += time.perf_counter() - now

    def __enter__(self):
        interval = SAMPLE_INTERVAL_S if self.sample else self.limit
        signal.signal(signal.SIGALRM, self.on_alarm)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self.t0 - self.excluded


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def call_cli(argv, clock):
    """Run one tensec command in this process under `clock`.  Returns (rc,
    stdout, stderr, note); `note` says why no exit code was returned."""
    import tensec.cli

    out, err = io.StringIO(), io.StringIO()
    rc, note = None, None
    try:
        with clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tensec.cli.main(argv)
    except OpTimeout:
        note = f"ran past the {clock.limit:g} s limit"
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        note = "raised " + traceback.format_exc().strip().splitlines()[-1]
    return rc, out.getvalue(), err.getvalue(), note


def run_op(op, limit, sample=False):
    """Run and judge one op; the record is what the metrics are made of.
    With `sample`, reference runs are timed during the op (OpClock)."""
    gc.collect()
    clock = OpClock(limit, sample)
    rc, stdout, stderr, note = call_cli(op.argv, clock)
    failure = note
    if failure is None:
        try:
            failure = judge(op, rc, stdout)
        except ValueError as exc:
            failure = f"unreadable report: {exc}"
    if failure is not None and stderr.strip():
        failure += ": " + stderr.strip().splitlines()[-1]
    with open(op.path, "rb") as fh:
        input_digest = hashlib.sha256(fh.read()).hexdigest()
    known = op.cls.known_failure
    return {
        "op": op.index, "class": op.cls.name, "instance": op.instance,
        "argv": op.argv, "rc": rc, "seconds": clock.seconds, "op_refs": clock.refs,
        "digest": _digest(stdout), "key": f"{input_digest} {' '.join(op.argv)}",
        "failure": failure,
        "known": known.why if failure and known and known.matches(rc, stderr) else None,
        "samples": op.cls.samples,
    }


def op_rounds(workload, seed, rundir):
    """Rounds of ops in schedule order, one op per class each."""
    n = len(workload.classes)
    for instance in itertools.count():
        yield [make_op(workload, seed, instance * n + i, cls, instance,
                       str(rundir / f"{cls.name}-{instance}.json"))
               for i, cls in enumerate(workload.classes)]


# ---------------------------------------------------------------------------
# Cross-process checks

def replay(ops):
    """Run `ops` again in a fresh interpreter with another hash seed.
    Returns one (rc, digest, seconds) per op."""
    listing = Path(ops[0].path).parent / "replay.json"
    listing.write_text(json.dumps([op.argv for op in ops]), encoding="utf-8")
    env = _child_env()
    env["PYTHONHASHSEED"] = "12345"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--replay", str(listing)],
        capture_output=True, text=True, env=env, timeout=len(ops) * OP_LIMIT_S + 60)
    if proc.returncode != 0:
        raise RuntimeError(f"replay process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def replay_main(listing):
    results = []
    for argv in json.loads(Path(listing).read_text(encoding="utf-8")):
        gc.collect()
        clock = OpClock(OP_LIMIT_S, sample=False)
        rc, stdout, _, _ = call_cli(argv, clock)
        results.append([rc, _digest(stdout), clock.seconds])
    print(json.dumps(results))
    return 0


def check_replay(records, results):
    """Problems where the replay's exit code or stdout differ."""
    problems = []
    for rec, (rc, digest, _) in zip(records, results):
        if rc != rec["rc"] or digest != rec["digest"]:
            problems.append(f"op {rec['op']} ({rec['class']}): report differs "
                            "in a fresh interpreter")
    return problems


def code_digest():
    """Digest of what produces the stored values: the tensec sources, this
    benchmark's own files and the Python version.  Stored values are keyed
    by it, so a change that is meant to move a report or a count is only
    compared with runs of the same code."""
    digest = hashlib.sha256(sys.version.encode("utf-8"))
    for base in (SRC / "tensec", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


class Store:
    """JSON file in the checkout that remembers values across runs of the
    same code."""

    def __init__(self, name):
        self.path = STATE / name
        self.code = code_digest()
        try:
            self.data = json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.data = {}

    def check(self, key, value):
        """Remember value under key; False if an earlier run stored another."""
        old = self.data.setdefault(f"{self.code} {key}", value)
        return old == value

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def check_digests(records):
    """Stdout of every op against earlier runs of the same (input, seed)."""
    store = Store("digests.json")
    problems = [f"op {rec['op']} ({rec['class']}): report differs from an "
                "earlier run" for rec in records
                if not store.check(rec["key"], rec["digest"])]
    store.save()
    return problems


# ---------------------------------------------------------------------------
# Runs

def reference_s():
    """Wall time of a fixed computation shaped like tensec's own work: exact
    rationals, big-integer cross products reduced by gcd, and dict and set
    traffic.  It never changes with tensec, so it tracks how fast this
    machine runs Python at the moment."""
    t0 = time.perf_counter()
    seen = {}
    a = (1234567, -7654321, 99991)
    for i in range(1, 400):
        b = (i * 7919 + 13, -i * 104729 + 1, i * i + 5)
        c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        g = math.gcd(*c) or 1
        c = tuple(x // g for x in c)
        f = Fraction(c[0], c[2] or 1) * Fraction(i * 31 - 7, 12345678901 + i) + Fraction(c[1], i)
        seen[(c[0] % 1009, i)] = f
        a = (c[1] % 1000003 + 1, c[2] % 999983 + 2, f.numerator % 65537 + 3)
    len(set(seen))
    return time.perf_counter() - t0


def at_reference_speed(seconds, refs):
    """`seconds` scaled to the nominal machine speed, given reference_s()
    times taken around (and during) the interval."""
    return seconds * REF_NOMINAL_S / statistics.fmean(refs)


def setup_seconds(ops):
    """Median, over fresh interpreters, of the time to start, import
    tensec.cli and parse one input of every class; scaled and raw."""
    inputs = json.dumps([[op.cls.command, op.path] for op in ops])
    scaled, raw = [], []
    before = reference_s()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, inputs], check=True,
                       env=_child_env(), timeout=120)
        raw.append(time.perf_counter() - t0)
        after = reference_s()
        scaled.append(at_reference_speed(raw[-1], [before, after]))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def charged(rec, key="scaled"):
    """Seconds an op is charged: a failed op costs the limit on top of the
    time it ran, so that it reads slower than any op that passes."""
    return rec[key] + (OP_LIMIT_S if rec["failure"] else 0.0)


def class_medians(workload, records, key="scaled"):
    return {cls.name: statistics.median(charged(r, key) for r in records
                                        if r["class"] == cls.name)
            for cls in workload.classes}


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def timed_run(workload, seed, seconds, rundir):
    rounds = op_rounds(workload, seed, rundir)
    first_round = next(rounds)
    setup_s, setup_raw = setup_seconds(first_round)

    records, ran = [], []
    t_start = time.perf_counter()
    before = reference_s()
    for ops in itertools.chain([first_round], rounds):
        r0 = time.perf_counter()
        for op in ops:
            rec = run_op(op, OP_LIMIT_S, sample=True)
            after = reference_s()
            refs = [before, after] + rec["op_refs"]
            rec["ref_s"] = statistics.fmean(refs)
            rec["scaled"] = at_reference_speed(rec["seconds"], refs)
            before = after
            records.append(rec)
        ran += ops
        # only whole rounds, so the class mix (and ok_share) is fixed
        now = time.perf_counter()
        if now + (now - r0) > t_start + seconds:
            break
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    budget, chosen = 0.0, []
    for op, rec in zip(ran, records):
        if chosen and budget + rec["seconds"] > REPLAY_BUDGET_S:
            break
        chosen.append(op)
        budget += rec["seconds"]
    problems = check_replay(records, replay(chosen))

    medians = class_medians(workload, records)
    raw_medians = class_medians(workload, records, "seconds")
    passed = [r for r in records if not r["failure"]]
    samples = sum(r["samples"] for r in passed)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_s": (geomean(medians.values()), "s"),
        "verdict_worst_s": (max(medians.values()), "s"),
        "samples_per_s": (samples / sum(r["scaled"] for r in records), "1/s"),
        "ok_share": (len(passed) / len(records), "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    ref = statistics.median(r["ref_s"] for r in records)
    raw = {"setup_s": setup_raw, "verdict_s": geomean(raw_medians.values()),
           "verdict_worst_s": max(raw_medians.values()),
           "samples_per_s": samples / sum(r["seconds"] for r in records)}
    lines = [f"{len(records)} ops in {wall:.1f} s; reference {ref * 1000:.3f} ms "
             f"(nominal {REF_NOMINAL_S * 1000:g} ms)"]
    lines += [f"unscaled {name}: {value:.4f}" for name, value in raw.items()]
    lines += [f"class {name}: median {medians[name]:.4f} s charged, "
              f"{raw_medians[name]:.4f} s unscaled" for name in medians]
    return records, metrics, problems, lines


def traced_run(workload, seed, rundir):
    fixed = list(itertools.chain.from_iterable(itertools.islice(
        op_rounds(workload, seed, rundir), workload.trace_rounds)))
    tracer = Tracer()
    records = []
    tracer.install()
    try:
        for op in fixed:
            tracer.op_id = op.index
            records.append(run_op(op, OP_LIMIT_S))
    finally:
        tracer.uninstall()
    untraced = replay(fixed)
    problems = check_replay(records, untraced)
    for rec, (_, _, seconds) in zip(records, untraced):
        rec["untraced_seconds"] = seconds

    s, c, k, mx = tracer.self_s, tracer.calls, tracer.counts, tracer.maxima
    surgeries = c["resolution.scheme_hf_surgery"]
    framings = c["resolution.associated_framing"]
    draws = sum(c[f"sampling.{f}"] for f in (
        "random_placement", "desargues_concurrent_placement", "pascal_conic_placement"))
    kept = sum(r["samples"] for r in records
               if r["argv"][0] == "verify" and not r["failure"])
    op_total = sum(r["seconds"] for r in records)
    counts = {
        "numeric.echelon_int.calls": c["numeric.echelon_int"],
        "numeric.echelon_int.max_rows": mx["echelon_rows"],
        "numeric.echelon_int.max_cols": mx["echelon_cols"],
        "numeric.echelon_int.max_entry_bits": mx["echelon_bits"],
        "numeric.echelon_int.mults": k["echelon_mults"],
        "framework.framework_in_general_position.calls":
            c["framework.framework_in_general_position"],
        "framework.enumerate_simple_cycles.cycles": k["cycles"],
        "projective.meet.calls": c["projective.meet"],
        "projective.join.calls": c["projective.join"],
        "framework.self_stress_basis.stress_dim_max": mx["stress_dim"],
        "framework.find_nonparallelizable_stress.candidates": tracer.calls_under[
            ("framework.is_non_parallelizable", "framework.find_nonparallelizable_stress")],
        "projective.nonvanishing_proper_subsets.calls":
            c["projective.nonvanishing_proper_subsets"],
        "projective.nonvanishing_proper_subsets.max_masks": k["subset_max_masks"],
        "projective.partial_sum_lines_distinct.calls":
            c["projective.partial_sum_lines_distinct"],
        "projective.partial_sum_lines_distinct.max_masks": k["partial_sum_max_masks"],
        "resolution.is_strongly_generic.calls": c["resolution.is_strongly_generic"],
        "resolution.scheme_hf_surgery.calls": surgeries,
        "resolution.associated_framing.calls": framings,
        "quantization.is_consistent_at.calls": c["quantization.is_consistent_at"],
        "cycles.monodromy.calls": c["cycles.monodromy"],
        "conditions.generate_system.conditions": k["conditions"],
        "conditions.generate_system.ast_nodes": k["ast_nodes"],
        "conditions.to_sexpr.calls": c["conditions.to_sexpr"],
        "conditions.evaluate.calls": c["conditions.evaluate"],
        "sampling.random_placement.calls": c["sampling.random_placement"],
    }
    ratios = {
        "resolution.associated_framing.distinct_ratio":
            len(tracer.framing_keys) / framings if framings else 0.0,
        "resolution.genericity_per_surgery":
            c["resolution.is_strongly_generic"] / surgeries if surgeries else 0.0,
        "sampling.acceptance_ratio": kept / draws if draws else 0.0,
    }
    self_times = {
        "numeric.echelon_int.self_s": s["numeric.echelon_int"],
        "numeric.nullspace_basis.self_s": s["numeric.nullspace_basis"],
        "framework.framework_in_general_position.self_s":
            s["framework.framework_in_general_position"],
        "framework.self_stress_basis.self_s": s["framework.self_stress_basis"],
        "framework.find_nonparallelizable_stress.self_s":
            s["framework.find_nonparallelizable_stress"],
        "resolution.is_strongly_generic.self_s": s["resolution.is_strongly_generic"],
        "resolution.scheme_hf_surgery.self_s": s["resolution.scheme_hf_surgery"],
        "quantization.is_consistent.self_s": s["quantization.is_consistent"],
        "cycles.monodromy.self_s": s["cycles.monodromy"],
        "cycles.pick_aux_line.self_s": s["cycles.pick_aux_line"],
        "conditions.generate_system.self_s": s["conditions.generate_system"],
        "conditions.to_sexpr.self_s": s["conditions.to_sexpr"],
        "conditions.fulfilled_with_witness.self_s": s["conditions.fulfilled_with_witness"],
        "cli.self_s": s["cli.main"],
        "trace.overhead_s": op_total - sum(r["untraced_seconds"] for r in records),
    }
    per_layer = tracer.layer_self_s()
    traced_total = sum(per_layer.values())
    untraced_medians = {
        cls.name: statistics.median(
            r["untraced_seconds"] + (charged(r, "seconds") - r["seconds"])
            for r in records if r["class"] == cls.name)
        for cls in workload.classes}

    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics["numeric.echelon_int.max_entry_bits"] = (mx["echelon_bits"], "bits")
    metrics.update({name: (value, "1") for name, value in ratios.items()})
    metrics.update({name: (value, "s") for name, value in self_times.items()})
    metrics.update({f"{name}.share": (tracer.total_s[name] / traced_total, "1")
                    for name in ("quantization.is_consistent",
                                 "framework.framework_in_general_position")})
    metrics.update({f"layer.{layer}.share": (per_layer[layer] / traced_total, "1")
                    for layer in LAYERS})
    metrics.update({f"class.{name}.verdict_s": (untraced_medians.get(name, 0.0), "s")
                    for name in class_names()})

    store = Store("counts.json")
    if not store.check(f"{workload.name}:{seed}", counts):
        problems.append("per-layer counts differ from an earlier traced run "
                        "with the same seed")
    store.save()
    spans_file = STATE / f"spans-{workload.name}-{seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["id", "name", "start", "end", "parent", "op"],
         "spans": tracer.spans}), encoding="utf-8")
    lines = [f"{len(records)} traced ops, {len(tracer.spans)} spans in {spans_file}"]
    lines += [f"layer {layer}: {per_layer[layer] / traced_total:.1%} of self time"
              for layer in LAYERS]
    return records, metrics, problems, lines


def environment(workload, seed, trace):
    import tensec.numeric

    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(tensec.numeric, "KERNEL_BACKEND", "none"),
        "workload": workload, "seed": seed, "trace": trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tensec" / "cli.py").is_file():
        print(f"error: no tensec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import tensec

    if Path(tensec.__file__).resolve().parent != (SRC / "tensec").resolve():
        print(f"error: imported tensec from {tensec.__file__}", file=sys.stderr)
        return 2
    if args.replay:
        return replay_main(args.replay)

    table = workloads()
    if args.workload not in table:
        parser.error(f"--workload must be one of {', '.join(table)}")
    workload = table[args.workload]
    rundir = STATE / "in" / f"{workload.name}-{args.seed}-t{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if args.trace:
            records, metrics, problems, lines = traced_run(workload, args.seed, rundir)
        else:
            records, metrics, problems, lines = timed_run(
                workload, args.seed, args.seconds, rundir)
        problems += check_digests(records)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    env = environment(workload.name, args.seed, args.trace)
    failed = [r for r in records if r["failure"]]
    unexpected = [r for r in failed if not r["known"]]
    problems += [f"op {r['op']} ({r['class']}) failed: {r['failure']}" for r in unexpected]
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(f"failed_share {len(failed) / len(records):.4f} "
          f"({len(failed)} of {len(records)} ops; {len(failed) - len(unexpected)} known)")
    known = Counter((r["class"], r["failure"], r["known"]) for r in failed if r["known"])
    for (name, failure, why), count in known.items():
        print(f"known failure: {count} ops of {name}: {failure} [{why}]")
    for problem in problems:
        print(f"FAIL {problem}")

    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "problems": problems,
                    "ops": records}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
