"""Outside-in span tracer for the dmpfem layers.

``Tracer.install`` replaces public functions and methods of the dmpfem
modules with timing wrappers, without editing the package.  A function is
replaced in *every* dmpfem module namespace that binds it, not only where it
is defined: ``solve_linear``, for example, is called as ``dmpfem.system``'s
global by ``ResidualSystem.picard_solve`` and as ``dmpfem.solvers``' global by
``newton_solve``, so patching one binding alone silently loses half the calls.
``uninstall`` restores every original.

Each call becomes a span (name, start, end, parent); the benchmark opens the
root spans itself, one per phase.  Spans stay in memory; ``layer_metrics``
reduces them to the per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time

# (module, attribute, span name, hook) for module-level functions, and
# (module, "Class.method", span name, hook) for methods.  Several targets may
# share a span name; a span nested in another of the same name is not counted
# twice in the layer's time.
TARGETS = (
    ("dmpfem.mesh", "build_structured", "mesh.build", None),
    ("dmpfem.mesh", "Mesh2D.__init__", "mesh.build", None),
    ("dmpfem.assembly", "pattern", "assembly.pattern", None),
    ("dmpfem.assembly", "assemble_convection", "assembly.convection", None),
    ("dmpfem.assembly", "assemble_mass", "assembly.mass", None),
    ("dmpfem.stabilization", "detector_values", "stabilization.detector", None),
    ("dmpfem.stabilization", "detector_derivative",
     "stabilization.detector_derivative", None),
    ("dmpfem.stabilization", "viscosity", "stabilization.viscosity", None),
    ("dmpfem.stabilization", "viscosity_symmetric_mass",
     "stabilization.viscosity", None),
    ("dmpfem.stabilization", "assemble_nonlinear_mass",
     "stabilization.nonlinear_mass", None),
    ("dmpfem.system", "ResidualSystem.__init__", "system.construct", None),
    ("dmpfem.system", "ResidualSystem.assemble_operator", "system.operator", None),
    ("dmpfem.system", "ResidualSystem.residual", "system.residual", None),
    ("dmpfem.system", "ResidualSystem.picard_solve", "system.picard", None),
    ("dmpfem.system", "ResidualSystem.jacobian", "system.jacobian", None),
    ("dmpfem.system", "solve_linear", "system.linear_solve",
     lambda args, kwargs, result: args[0].nnz),
    ("dmpfem.solvers", "newton_solve", "solvers.newton",
     lambda args, kwargs, result: result[1].converged),
    ("dmpfem.solvers", "anderson_solve", "solvers.anderson",
     lambda args, kwargs, result: result[1].converged),
    ("dmpfem.solvers", "line_search", "solvers.line_search", None),
    ("dmpfem.timeloop", "run_steady", "timeloop.run", None),
    ("dmpfem.timeloop", "run_transient", "timeloop.run", None),
    ("dmpfem.timeloop", "step_backward_euler", "timeloop.step", None),
    ("dmpfem.bench", "error_norms", "bench.error_norms", None),
    ("dmpfem.bench", "dmp_audit", "bench.audit", None),
    ("dmpfem.io", "write_field", "io.write",
     lambda args, kwargs, result: args[2]),
    ("dmpfem.io", "write_log", "io.write",
     lambda args, kwargs, result: args[1]),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self.bindings = {}        # "module.attribute" -> namespaces patched
        self._stack = []
        self._patches = []        # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.spans[idx].info = hook(args, kwargs, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dmpfem" or key.startswith("dmpfem."))]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, original, self._wrap(original, name, hook))
                self.bindings[f"{module_name}.{attr}"] = [f"{module_name}.{cls_name}"]
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            where = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
                        where.append(module.__name__)
            self.bindings[f"{module_name}.{attr}"] = sorted(where)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# reduction to per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(spans):
    """Per-layer figures from one traced sample.

    The root spans are the benchmark's phases (setup, solve, audit, output);
    set-up figures come from spans under ``setup``, solve figures from spans
    under ``solve``.  ``*_self_s`` is a span's duration minus the time its
    child spans cover.
    """
    child_time = [0.0] * len(spans)
    phase = [None] * len(spans)
    outer = [True] * len(spans)   # no ancestor carries the same name
    for i, s in enumerate(spans):
        if s.parent is None:
            phase[i] = s.name
            continue
        child_time[s.parent] += s.duration
        phase[i] = phase[s.parent]
        p = s.parent
        while p is not None:
            if spans[p].name == s.name:
                outer[i] = False
                break
            p = spans[p].parent

    index = {}
    for i, s in enumerate(spans):
        index.setdefault((s.name, phase[i]), []).append(i)

    def pick(name, in_phase):
        return index.get((name, in_phase), [])

    def total(name, in_phase="solve"):
        return sum((spans[i].duration for i in pick(name, in_phase) if outer[i]), 0.0)

    def self_time(name, in_phase="solve"):
        return sum((spans[i].duration - child_time[i] for i in pick(name, in_phase)), 0.0)

    def calls(name, in_phase="solve"):
        return len(pick(name, in_phase))

    solves = pick("system.linear_solve", "solve")
    line_search = set(pick("solvers.line_search", "solve"))
    ls_evals = sum(1 for i in pick("system.residual", "solve")
                   if spans[i].parent in line_search)
    iterations = calls("solvers.line_search") + calls("system.picard")
    steps = [spans[i].duration for i in pick("timeloop.step", "solve")]
    solver_spans = pick("solvers.newton", "solve") + pick("solvers.anderson", "solve")
    written = [spans[i].info for i in pick("io.write", "output")]
    glue = [i for i, s in enumerate(spans) if phase[i] == "solve"
            and (s.parent is None or s.name in ("timeloop.run", "timeloop.step"))]

    return {
        "mesh.build_s": total("mesh.build", "setup"),
        "assembly.pattern_s": total("assembly.pattern", "setup"),
        "assembly.convection_calls": calls("assembly.convection"),
        "assembly.convection_s": total("assembly.convection"),
        "assembly.mass_calls": calls("assembly.mass"),
        "assembly.mass_s": total("assembly.mass"),
        "stabilization.stencil_s": total("stabilization.detector", "setup"),
        "stabilization.detector_calls": calls("stabilization.detector"),
        "stabilization.detector_s": total("stabilization.detector"),
        "stabilization.viscosity_s": total("stabilization.viscosity"),
        "stabilization.detector_derivative_s":
            total("stabilization.detector_derivative"),
        "stabilization.nonlinear_mass_s": total("stabilization.nonlinear_mass"),
        "system.construct_calls": calls("system.construct"),
        "system.construct_s": total("system.construct"),
        "system.operator_calls": calls("system.operator"),
        "system.operator_self_s": self_time("system.operator"),
        "system.residual_calls": calls("system.residual"),
        "system.jacobian_calls": calls("system.jacobian"),
        "system.jacobian_self_s": self_time("system.jacobian"),
        "system.linear_solves": len(solves),
        "system.linear_solve_s": total("system.linear_solve"),
        "system.linear_nnz": (statistics.fmean(spans[i].info for i in solves)
                              if solves else 0.0),
        "solvers.iterations": iterations,
        "solvers.failures": sum(1 for i in solver_spans if not spans[i].info),
        "solvers.line_search_self_s": self_time("solvers.line_search"),
        "solvers.line_search_evals": ls_evals,
        "solvers.evals_per_iter": ls_evals / iterations if iterations else 0.0,
        "solvers.anderson_self_s": self_time("solvers.anderson"),
        "timeloop.steps": len(steps),
        "timeloop.step_s": statistics.median(steps) if steps else 0.0,
        "bench.error_norms_s": total("bench.error_norms", "audit"),
        "bench.audit_s": total("bench.audit", "audit"),
        "io.write_s": total("io.write", "output"),
        "io.bytes_written": sum(os.path.getsize(p) for p in written),
        "trace.unattributed_s": sum(spans[i].duration - child_time[i] for i in glue),
    }
