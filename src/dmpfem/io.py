"""Run configuration and result export: flat key=value configs, CSV tables,
legacy-VTK scalar fields, and per-iteration solver logs.

All floating-point output uses the shortest round-trip decimal representation
so identical configs produce byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import stabilization as stab
from .bench import PROBLEM_NAMES, make_problem
from .mesh import P1, Q1
from .timeloop import TimeConfig, require_initial_data

TABLE_HEADER = "q,eps,iters_A,iters_Ap,iters_N,iters_Np,L1,L1_out,L2,L2_out"
LOG_HEADER = "iter,nlerr,dmp_max_viol,dmp_min_viol,omega_or_xi"

SIGMA_SCALINGS = ("beta2_l2", "beta_h4", "beta_eps", "beta_eps2", "beta",
                  "absolute")


class ConfigError(ValueError):
    """Invalid or unparsable run configuration."""


@dataclass
class RunConfig:
    """Flat run configuration; every key doubles as a CLI flag.

    A key that ``StabParams`` or ``TimeConfig`` also declares takes its
    default from that record.
    """

    problem: str = "STRAIGHT_DISCONTINUITY"
    nx: int = 48
    ny: int = 48
    element: str = Q1
    detector: str = stab.StabParams.detector
    mass: str = stab.StabParams.mass
    q: float = stab.StabParams.q
    eps: float = stab.StabParams.eps
    sigma_factor: float = 1e-9
    sigma_scaling: str = "beta"
    gamma: float = stab.StabParams.gamma
    solver: str = TimeConfig.solver
    tol: float = TimeConfig.tol
    k_max: int = TimeConfig.k_max
    m: int = TimeConfig.m
    s_min: float = TimeConfig.s_min
    omega0: float = TimeConfig.omega0
    omega_min: float = TimeConfig.omega_min
    projection: bool = TimeConfig.projection
    steady: bool | None = None
    dt: float | None = None
    t_end: float | None = None
    outdir: str = "out"

    def validate(self):
        """Check the two keys that no library record owns, ``problem`` and
        ``sigma_scaling``.  Each other key is checked by its owner when the
        run is built or first used: ``nx``/``ny``/``element`` by
        ``build_structured``, the stabilization keys (``sigma_factor``
        through the sigma it scales) by ``StabParams``, ``solver``/``dt``/
        ``t_end`` by ``TimeConfig``, ``tol``/``k_max`` by the solvers'
        iteration loop and ``m`` and the omega range by ``anderson_solve``.
        """
        if self.problem not in PROBLEM_NAMES:
            raise ConfigError(f"unknown problem {self.problem!r}; "
                              f"valid names: {', '.join(PROBLEM_NAMES)}")
        if self.sigma_scaling not in SIGMA_SCALINGS:
            raise ConfigError(f"sigma_scaling must be one of "
                              f"{', '.join(SIGMA_SCALINGS)}")
        return self

    def resolve(self):
        """Fill problem-dependent defaults (steady flag, time step); a
        transient configuration needs the problem's initial data."""
        problem = make_problem(self.problem)
        if self.steady is None:
            self.steady = problem.steady
        if not self.steady:
            require_initial_data(problem)
            if self.dt is None:
                self.dt = problem.default_dt or 1e-3
            if self.t_end is None:
                self.t_end = 10 * self.dt
        return self

    def sigma(self, beta, h, domain):
        """Resolve the smooth-max parameter from the configured scaling."""
        if self.sigma_scaling == "beta2_l2":
            x0, x1, y0, y1 = domain
            ell = float(np.hypot(x1 - x0, y1 - y0))
            return self.sigma_factor * beta * beta * ell * ell
        if self.sigma_scaling == "beta_h4":
            return self.sigma_factor * beta * h ** 4
        if self.sigma_scaling == "beta_eps":
            return self.sigma_factor * beta * self.eps
        if self.sigma_scaling == "beta_eps2":
            return self.sigma_factor * beta * self.eps * self.eps
        if self.sigma_scaling == "beta":
            return self.sigma_factor * beta
        return self.sigma_factor


_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def _coerce(name, kind, raw, where):
    try:
        if kind == "bool":
            val = _BOOL.get(str(raw).strip().lower())
            if val is None:
                raise ValueError(f"expected a boolean, got {raw!r}")
            return val
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {name!r}: {exc}") from None


def _field_kinds():
    kinds = {}
    for f in fields(RunConfig):
        t = str(f.type)
        if "bool" in t:
            kinds[f.name] = "bool"
        elif "int" in t:
            kinds[f.name] = "int"
        elif "float" in t:
            kinds[f.name] = "float"
        else:
            kinds[f.name] = "str"
    return kinds


def parse_config(path=None, overrides=None):
    """Build a RunConfig from an optional key=value file plus overrides.
    Section headers like [solver] are allowed as grouping sugar; keys are
    global.  Unknown keys and unparsable values are rejected with their
    location, and ``validate`` checks ``problem`` and ``sigma_scaling``;
    the records and functions that use the other keys check them."""
    cfg = RunConfig()
    kinds = _field_kinds()
    if path is not None:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        for ln, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text or (text.startswith("[") and text.endswith("]")):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, raw = (s.strip() for s in text.split("=", 1))
            if key not in kinds:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            setattr(cfg, key, _coerce(key, kinds[key], raw, f"{path}:{ln}"))
    for key, raw in (overrides or {}).items():
        if key not in kinds:
            raise ConfigError(f"override: unknown key {key!r}")
        if raw is None:
            continue
        val = raw if not isinstance(raw, str) else \
            _coerce(key, kinds[key], raw, "override")
        setattr(cfg, key, val)
    return cfg.validate().resolve()


def echo_config(cfg, stream):
    """Print the effective configuration, one key per line."""
    for f in fields(RunConfig):
        stream.write(f"{f.name} = {getattr(cfg, f.name)}\n")


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------

def _fmt(x):
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_table(rows, path):
    """Benchmark table CSV; each row is a mapping with the header's keys."""
    keys = TABLE_HEADER.split(",")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TABLE_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(k)) for k in keys) + "\n")


def write_log(report, path):
    """Per-iteration solver log CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LOG_HEADER + "\n")
        for k in range(report.iterations):
            mx, mn = report.dmp_violation_history[k]
            fh.write(",".join([str(k + 1), _fmt(report.nlerr_history[k]),
                               _fmt(mx), _fmt(mn),
                               _fmt(report.omega_or_xi_history[k])]) + "\n")


# lines formatted per write: bounds the memory of the string objects
_LINES_PER_WRITE = 1024


def _fmt_column(values):
    """``_fmt`` of every entry of a float array (NaN, where v != v, as
    the empty string), from one ``tolist``."""
    return ["" if v != v else repr(v)
            for v in np.asarray(values, dtype=float).tolist()]


def _write_blocks(fh, n, lines):
    """Write ``lines(block)`` for consecutive slices of ``n`` rows."""
    for start in range(0, n, _LINES_PER_WRITE):
        fh.write("".join(lines(slice(start, start + _LINES_PER_WRITE))))


def write_field(mesh, u, path, t=None):
    """Scalar nodal field as legacy ASCII VTK.

    Structured Q1 meshes are written as STRUCTURED_GRID, everything else as
    UNSTRUCTURED_GRID with its cells, so a P1 field carries its triangles;
    the field is POINT_DATA scalar "u".
    """
    u = np.asarray(u, dtype=float)
    grid = mesh.structured_shape is not None and mesh.kind == Q1
    title = "dmpfem field" if t is None else f"dmpfem field t={_fmt(float(t))}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\n")
        if grid:
            nx, ny = mesh.structured_shape
            fh.write("DATASET STRUCTURED_GRID\n")
            fh.write(f"DIMENSIONS {nx + 1} {ny + 1} 1\n")
        else:
            fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        _write_blocks(fh, mesh.n_nodes, lambda rows: [
            f"{x} {y} 0.0\n"
            for x, y in zip(*map(_fmt_column, mesh.coords[rows].T))])
        if not grid:
            nloc = mesh.elements.shape[1]
            cell_type = 9 if nloc == 4 else 5
            fh.write(f"CELLS {mesh.n_elements} {mesh.n_elements * (nloc + 1)}\n")
            _write_blocks(fh, mesh.n_elements, lambda rows: [
                " ".join(map(str, [nloc] + conn)) + "\n"
                for conn in mesh.elements[rows].tolist()])
            fh.write(f"CELL_TYPES {mesh.n_elements}\n")
            fh.write(f"{cell_type}\n" * mesh.n_elements)
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        fh.write("SCALARS u double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        _write_blocks(fh, mesh.n_nodes,
                      lambda rows: [v + "\n" for v in _fmt_column(u[rows])])


def read_field(path):
    """Read back a field written by write_field: (coords, values, element
    kind), the kind Q1 for a STRUCTURED_GRID and else that of the cells."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    coords, values = [], []
    k = 0
    n_pts = 0
    kind = Q1
    while k < len(lines):
        line = lines[k]
        if line.startswith("CELL_TYPES"):
            kind = P1 if lines[k + 1].strip() == "5" else Q1
        elif line.startswith("POINTS"):
            n_pts = int(line.split()[1])
            for row in lines[k + 1:k + 1 + n_pts]:
                x, y, _ = row.split()
                coords.append((float(x), float(y)))
            k += n_pts
        elif line.startswith("LOOKUP_TABLE"):
            for row in lines[k + 1:k + 1 + n_pts]:
                values.append(float(row))
            k += n_pts
        k += 1
    return np.array(coords), np.array(values), kind


def output_dir(cfg):
    """Output directory: DMPFEM_OUT overrides the configured path."""
    return os.environ.get("DMPFEM_OUT", cfg.outdir)
