"""The benchmark tracer's patch points: every name it wraps must exist in the package.

`perfbench/tracing.py` replaces functions by name where callers look them up, so a
rename in `src/` breaks the traced benchmark run.  This loads the tracer from its
path, traces a small crystal and a tensor product, and checks that `uninstall()`
puts every original back; then it traces one CLI job of every command and reads
the metrics, so a changed return type fails here, not only in a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import crystalcubes
import crystalcubes.cli  # noqa: F401  (the tracer patches names in cli)
from crystalcubes import RootSystem, demazure, stringpoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_patch_point():
    tracing = load_tracing()
    places = [place for table in (tracing.SPANS, tracing.HOT) for pairs in table.values() for place in pairs]
    places += [(path, attr) for path, attr, _ in tracing.CACHE_LOOKUPS] + [("cli", "_root_system")]
    owners = [(tracing._owner(crystalcubes, path), attr) for path, attr in places]

    def attributes():  # a class's own entry, so a wrapped staticmethod or classmethod compares as stored
        return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr) for owner, attr in owners]

    before = attributes()

    def run():  # looked up through the modules, where the tracer patches them
        a2 = RootSystem.preset("A2")
        crystal = demazure.gen_demazure_crystal_weights(a2, [[1, 2], [1]], [(1, 1), (1, 0)])
        return crystal.omega_map(), crystal.element_count, stringpoly.tensor_decompose(a2, [(1, 0), (0, 1)])

    untraced = run()
    tracer = tracing.Tracer()
    tracer.install(crystalcubes)
    try:
        assert len(tracer._saved) == len(places)
        assert run() == untraced
    finally:
        tracer.uninstall()

    assert all(a is b for a, b in zip(attributes(), before))
    traced = {span[0] for span in tracer.spans}
    assert {"demazure.saturate", "demazure.omega", "stringpoly"} <= traced
    assert tracer.hot["crystal.op"][0] > 0


def test_tracer_metrics_over_every_command(tmp_path):
    """The summary-line jobs of `test_cli`, one per shape of all 13 commands, run through
    `cli.run` with the tracer installed: each gives its untraced summary, `metrics` returns
    exactly the per-layer names of BENCHMARK.json, and the rendered bytes it counts are the
    bytes written."""
    from test_cli import ECHO_GOLDENS

    assert {command for _, command, _, _ in ECHO_GOLDENS} == set(crystalcubes.cli.COMMANDS)
    benchmark = json.loads((TRACING.parent.parent / "BENCHMARK.json").read_text())
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(crystalcubes)
    try:
        for k, (root_system, command, params, line) in enumerate(ECHO_GOLDENS):
            config = {"root_system": root_system, "command": command, "params": params, "seed": 5}
            out = tmp_path / str(k)
            summary, path = crystalcubes.cli.run(crystalcubes.cli.JobConfig.from_dict(config), str(out), True)
            assert f"{summary} -> {path}" == line.replace("OUT", str(out))
        metrics = tracer.metrics(1, 0.0, 0.0)
    finally:
        tracer.uninstall()
    assert list(metrics) == [m["name"] for m in benchmark["per_layer"]]
    assert metrics["cli.artifact_bytes"] == sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
