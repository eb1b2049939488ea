"""Every function and method that the benchmark's span tracer wraps exists.

``perfbench/tracer.py`` names its targets as (module, attribute) strings and
``Tracer.install`` raises AttributeError (or KeyError for a method) when one
is gone, so deleting or renaming a traced name would break
``perfbench/run.py --trace 1``.  The tracer module is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        # the tracer patches a method where its class itself defines it
        cls_name, meth = attr.split(".")
        return callable(vars(getattr(owner, cls_name, object)).get(meth))
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) > 0
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracer.TARGETS
               if not _resolves(mod, attr)]
    assert missing == []
