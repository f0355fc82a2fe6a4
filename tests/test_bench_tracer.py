"""The benchmark tracer (``bench/tracer.py``) wraps package functions and
methods by name, and fails on a name that is gone: these tests keep every
name it wraps in place, so ``bench/run.py --trace 1`` keeps running."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import bimoment  # noqa: F401  (the tracer patches the loaded bimoment modules)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(tracer):
    for _layer, module, names in tracer.FUNCTIONS:
        mod = importlib.import_module(module)
        missing = [name for name in names if not callable(getattr(mod, name, None))]
        assert not missing, f"{module} lacks {missing}"


def test_every_wrapped_method_is_defined_on_its_class(tracer):
    for _layer, module, cls_name, _prefix, names in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        missing = [name for name in names if name not in cls.__dict__]
        assert not missing, f"{module}.{cls_name} does not define {missing} itself"


def test_uninstall_restores_every_original(tracer):
    for _layer, module, *_rest in tracer.FUNCTIONS + tracer.METHODS:
        importlib.import_module(module)
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "bimoment" or name.startswith("bimoment.")]
    classes = [getattr(sys.modules[module], cls_name)
               for _layer, module, cls_name, _prefix, _names in tracer.METHODS]
    owners = modules + classes
    before = [dict(vars(owner)) for owner in owners]

    t = tracer.Tracer()
    t.install()
    try:
        patched = sum(
            1 for owner, saved in zip(owners, before)
            for name, value in vars(owner).items()
            if saved.get(name) is not value
        )
        assert patched > 0
    finally:
        t.uninstall()

    for owner, saved in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == saved.keys()
        changed = [name for name in saved if after[name] is not saved[name]]
        assert not changed, f"{owner!r}: {changed} not restored"
