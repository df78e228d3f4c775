"""The benchmark's tracer (perfbench/tracer.py) can patch what it names.

A traced benchmark run patches attributes of the package's modules by name,
so a renamed or deleted attribute (say, a sample_solve import that no module
calls any more) makes every traced run raise. This test installs the
tracer's hooks and checks that each one took and was undone.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(target, attr):
    return target[attr] if isinstance(target, dict) else getattr(target, attr)


def test_hooks_install_and_restore():
    tracer = load_tracer()
    hooks = tracer.hooks(tracer.Tracer())
    saved = [current(target, attr) for target, attr, _ in hooks]
    with tracer.patched(hooks):
        for target, attr, value in hooks:
            assert current(target, attr) is value, attr
    for (target, attr, _), value in zip(hooks, saved):
        assert current(target, attr) is value, attr
