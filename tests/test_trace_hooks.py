"""The benchmark's per-layer tracing (`perfbench/tracing.py`) wraps tensec
functions by module and name; a renamed or moved function would make
`--trace 1` fail or count nothing.  The hooks are loaded from the file, read
only, and always uninstalled."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tensec_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "tensec" or name.startswith("tensec.")}


def test_trace_hooks_install_and_restore():
    tracing = load_tracing()
    hooked = [(short, attr) for short, attr, _hook in tracing.SPANS]
    hooked += list(tracing.COUNTERS)
    originals = {(short, attr): getattr(tracing._module(short), attr)
                 for short, attr in hooked}
    before = {name: dict(vars(mod)) for name, mod in tensec_modules().items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (short, attr), original in originals.items():
            assert getattr(tracing._module(short), attr) is not original, (short, attr)
    finally:
        tracer.uninstall()
    for name, snapshot in before.items():
        current = vars(sys.modules[name])
        for key, value in snapshot.items():
            assert current[key] is value, f"{name}.{key} not restored"


GOLDEN = Path(__file__).resolve().parent / "golden"

#: Calls the tracer sees in one `check` of the golden 6-spoke wheel: one
#: consistency cycle per dimension of the wheel's cycle space (12 edges - 7
#: vertices + 1 = 6), three corners each, and the default trees built once,
#: for the condition system, whose trees the quantization reuses.  A function
#: called through a table or a local alias in place of its module global
#: escapes the wrappers, and its count here drops.
CHECK_WHEEL6_CALLS = {
    "projective.nonvanishing_proper_subsets": 8,
    "projective.partial_sum_lines_distinct": 8,
    "framework.is_non_parallelizable": 1,
    "framework.forceload_from_stress": 1,
    "resolution.is_strongly_generic": 1,
    "resolution.associated_framing": 18,
    "quantization.default_trees": 1,
    "quantization.quantization_from_stress": 1,
    "quantization.is_consistent_at": 6,
    "cycles.monodromy": 6,
    "cycles.pick_aux_line": 6,
}


def test_tracer_sees_every_call_of_a_default_check(monkeypatch, capsys):
    import tensec.cli

    tracing = load_tracing()
    tracer = tracing.Tracer()
    monkeypatch.chdir(GOLDEN)
    try:
        tracer.install()
        assert tensec.cli.main(["check", "wheel6_framework.json", "--seed", "6",
                                "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.calls
    # not pinned: a change that needs fewer meets or joins stays welcome
    assert calls["projective.meet"] > 0
    assert calls["projective.join"] > 0
    assert {name: calls[name] for name in CHECK_WHEEL6_CALLS} == CHECK_WHEEL6_CALLS


def test_check_without_slots_derives_no_witness(tmp_path, monkeypatch, capsys):
    """A graph without line slots is decided under the empty witness, so a
    YES of the oracle builds no quantization from its stress."""
    import json

    import tensec.cli
    from tensec.fixtures import DESARGUES_POS
    from tensec.framework import framework_to_json

    path = tmp_path / "dpos.json"
    path.write_text(json.dumps(framework_to_json(DESARGUES_POS)))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tensec.cli.main(["check", str(path), "--seed", "2"]) == 0
    finally:
        tracer.uninstall()
    assert "tensegrity: YES" in capsys.readouterr().out
    calls = tracer.calls
    assert calls["quantization.quantization_from_stress"] == 0
    assert calls["framework.forceload_from_stress"] == 0
