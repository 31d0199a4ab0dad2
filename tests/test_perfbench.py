"""The benchmark harness under perfbench/ imports program names and binds
tracing wrappers over them at run time. A refactor that renames or removes
one of them fails here instead of inside a benchmark run."""

import importlib
import importlib.util
import json
import os
import sys

import osserman_lab
import osserman_lab.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    """Import perfbench/<name>.py by path, under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracing_bindings_resolve():
    tracing = _load("tracing")
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.BINDINGS
               if not callable(getattr(importlib.import_module(f"osserman_lab.{mod}"),
                                       attr, None))]
    assert not missing


def test_workloads_import_and_match_the_benchmark():
    workloads = _load("workloads")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(workloads.WORKLOADS) == sorted(declared)


def test_every_traced_name_records_a_span(tmp_path):
    # A call routed around a traced name (say, a command that stops looking
    # up construct_entire in cli's namespace) would leave its layer empty.
    tracing = _load("tracing")
    workloads = _load("workloads")
    recorder = tracing.Recorder()
    recorder.bind(osserman_lab)
    try:
        for name, make in workloads.WORKLOADS.items():
            workdir = tmp_path / name
            workdir.mkdir()
            for op in make(1, str(workdir)):
                assert op.check(osserman_lab.cli.main(op.argv)) is None, op.name
    finally:
        recorder.unbind()
    recorded = {span.name for span in recorder.spans}
    assert not [f"{mod}.{attr}" for mod, attr, _ in tracing.BINDINGS
                if f"{mod}.{attr}" not in recorded]
