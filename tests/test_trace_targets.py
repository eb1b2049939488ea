"""Every function and method that the benchmark's span tracer wraps exists.

``perfbench/tracer.py`` names its targets as (module, attribute) strings and
``Tracer.install`` raises AttributeError (or KeyError for a method) when one
is gone, so deleting or renaming a traced name would break
``perfbench/run.py --trace 1``.  The tracer module is only read here.
A small Newton solve and a small Anderson solve must also reach the layers
that the benchmark reconciles per iteration through the bindings that the
tracer wraps.
"""

import functools
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from dmpfem import solvers
from dmpfem import stabilization as stab
from dmpfem import system
from dmpfem.bench import make_problem
from dmpfem.mesh import P1, build_structured
from dmpfem.stabilization import StabParams
from dmpfem.timeloop import ANDERSON, NEWTON, TimeConfig, run_transient

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


def _patch_everywhere(monkeypatch, original, wrapper):
    """Replace ``original`` in every dmpfem module that binds it, as
    ``Tracer.install`` does."""
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "dmpfem" or key.startswith("dmpfem.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_newton_calls_the_traced_layers_once_per_iteration(monkeypatch):
    # run.py --trace 1 reconciles the traced Jacobians and linear solves
    # against the solver reports, and the tracer sees a call only through a
    # binding it wraps: the method, the module attribute, or a module global
    counts = Counter()
    counting = functools.partial(_counting, counts)
    jacobian = system.ResidualSystem.jacobian
    monkeypatch.setattr(system.ResidualSystem, "jacobian",
                        counting("jacobian", jacobian))
    for name, fn in (("detector_derivative", stab.detector_derivative),
                     ("solve_linear", system.solve_linear)):
        _patch_everywhere(monkeypatch, fn, counting(name, fn))

    problem = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(8, 8, domain=problem.domain)
    params = StabParams(q=25.0, eps=1e-4, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                        beta_bound=problem.velocity.beta_bound)
    cfg = TimeConfig(stab=params, dt=1e-3, t_end=2e-3, solver=NEWTON,
                     projection=False, tol=1e-8)
    result = run_transient(mesh, problem, cfg)
    iterations = sum(r.iterations for r in result.reports)
    assert iterations > 0
    assert counts == {"jacobian": iterations,
                      "detector_derivative": iterations,
                      "solve_linear": iterations}


def test_anderson_calls_picard_once_per_iteration(monkeypatch):
    # the tracer counts solvers.iterations as line searches plus Picard
    # sweeps: an Anderson iteration is one sweep and no line search
    counts = Counter()
    counting = functools.partial(_counting, counts)
    picard = system.ResidualSystem.picard_solve
    monkeypatch.setattr(system.ResidualSystem, "picard_solve",
                        counting("picard_solve", picard))
    _patch_everywhere(monkeypatch, solvers.line_search,
                      counting("line_search", solvers.line_search))

    problem = make_problem("BURGERS2D")
    mesh = build_structured(8, 8, domain=problem.domain, kind=P1)
    params = StabParams(q=1.0, eps=1e-3, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                        beta_bound=problem.velocity.beta_bound)
    cfg = TimeConfig(stab=params, dt=1e-2, t_end=2e-2, solver=ANDERSON,
                     projection=True, tol=1e-5, k_max=300)
    result = run_transient(mesh, problem, cfg)
    iterations = sum(r.iterations for r in result.reports)
    assert iterations > 0 and all(r.converged for r in result.reports)
    assert counts == {"picard_solve": iterations}
