"""Benchmark command line: run single cases, reproduce the parameter-sweep
tables, run mesh-convergence studies, and audit saved fields.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence or
failed audit, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import io as dio
from . import stabilization as stab
from .bench import (convergence_study, dmp_audit, error_report,
                    local_dmp_audit, make_problem)
from .io import ConfigError, RunConfig, parse_config
from .mesh import build_structured
from .timeloop import (ANDERSON, NEWTON, TimeConfig, admissible_bounds,
                       run_steady, run_transient)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _time_config(cfg, problem, h, **stepping):
    """TimeConfig, with its StabParams, of a run on mesh size h; ``stepping``
    sets steady/dt/t_end.  The records check the values they are given."""
    beta = problem.velocity.beta_bound
    params = stab.StabParams(q=cfg.q, eps=cfg.eps,
                             sigma=cfg.sigma(beta, h, problem.domain),
                             gamma=cfg.gamma, detector=cfg.detector,
                             mass=cfg.mass, beta_bound=beta)
    return TimeConfig(stab=params, solver=cfg.solver,
                      projection=cfg.projection, tol=cfg.tol,
                      k_max=cfg.k_max, m=cfg.m, s_min=cfg.s_min,
                      omega0=cfg.omega0, omega_min=cfg.omega_min,
                      ls_tol=cfg.ls_tol, **stepping)


def _build_case(cfg):
    """(problem, mesh) of a configuration."""
    problem = make_problem(cfg.problem)
    return problem, build_structured(cfg.nx, cfg.ny, domain=problem.domain,
                                     kind=cfg.element)


def _output_dir(cfg):
    """The output directory, created once the command's configs are built."""
    outdir = dio.output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _sci(x):
    return "" if x is None else f"{x:.2e}"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_run(cfg, args):
    dio.echo_config(cfg, sys.stdout)
    problem, mesh = _build_case(cfg)
    tc = _time_config(cfg, problem, mesh.h_mean, dt=cfg.dt, t_end=cfg.t_end,
                      steady=cfg.steady)
    outdir = _output_dir(cfg)

    if cfg.steady:
        u, report = run_steady(mesh, problem, tc)
        reports = [report]
        t_final = None
    else:
        result = run_transient(mesh, problem, tc)
        u, reports = result.u, result.reports
        t_final = result.times[-1]
        drops = np.diff(result.max_series)
        rises = np.diff(result.min_series)
        print(f"LED audit: max increase {max(drops.max(), 0.0):.3e}, "
              f"min decrease {max(-rises.min(), 0.0):.3e}")

    dio.write_field(mesh, u, os.path.join(outdir, "field.vtk"), t=t_final)
    dio.write_log(reports[-1], os.path.join(outdir, "log.csv"))
    bounds = admissible_bounds(mesh, problem, steady=cfg.steady)
    mx, mn = dmp_audit(u, bounds)
    print(f"global DMP violation: max {mx:.3e}, min {mn:.3e}")

    if problem.exact is not None:
        err = {k: _sci(v) for k, v in error_report(mesh, u, problem).items()}
        print(f"errors: L1 {err['L1']}  L1_out {err['L1_out']}  "
              f"L2 {err['L2']}  L2_out {err['L2_out']}")

    if not all(r.converged for r in reports):
        print("solver did not converge", file=sys.stderr)
        return EXIT_SOLVER
    # a transient run's total is followed by each step's count
    its = [r.iterations for r in reports]
    steps = "" if cfg.steady else f" ({','.join(map(str, its))})"
    print(f"iterations: {sum(its)}{steps}")
    return EXIT_OK


# the sweep's solver columns; eps = 0 rows take the non-smooth detector and
# the Anderson columns only
_TABLE_COLUMNS = (("iters_A", ANDERSON, False), ("iters_Ap", ANDERSON, True),
                  ("iters_N", NEWTON, False), ("iters_Np", NEWTON, True))


def _table_columns(cfg, problem, h, q, eps):
    """(column, TimeConfig) of each solver column of one sweep row."""
    nonsmooth = eps == 0.0
    base = replace(cfg, q=q, eps=eps,
                   detector=stab.NONSMOOTH if nonsmooth else cfg.detector)
    return [(col, _time_config(replace(base, solver=solver, projection=project),
                               problem, h, steady=True))
            for col, solver, project in _TABLE_COLUMNS[:2 if nonsmooth else 4]]


def _table_row(problem, mesh, q, eps, columns):
    """One sweep row: iterations per solver column, and the errors of the
    last converged solution."""
    row = {"q": q, "eps": eps}
    u_best = None
    for col, tc in columns:
        u, report = run_steady(mesh, problem, tc)
        row[col] = report.iterations if report.converged else None
        if report.converged:
            u_best = u
    if u_best is not None and problem.exact is not None:
        row.update(error_report(mesh, u_best, problem))
    return row


def cmd_table(cfg, args):
    if not cfg.steady:
        raise ConfigError(f"table sweeps steady solves; {cfg.problem} is "
                          f"configured transient")
    qs = [float(s) for s in args.qs.split(",")]
    epss = [float(s) for s in args.epss.split(",")]
    if args.include_eps0:
        epss = epss + [0.0]
    problem, mesh = _build_case(cfg)
    sweep = [(q, eps, _table_columns(cfg, problem, mesh.h_mean, q, eps))
             for q in qs for eps in epss]
    outdir = _output_dir(cfg)
    rows = []
    print("q     eps       A     Ap    N     Np    L1        L2")
    for q, eps, columns in sweep:
        row = _table_row(problem, mesh, q, eps, columns)
        rows.append(row)
        print(f"{q:<5g} {_sci(eps):<9} "
              f"{row.get('iters_A') or '--':<5} {row.get('iters_Ap') or '--':<5} "
              f"{row.get('iters_N') or '--':<5} {row.get('iters_Np') or '--':<5} "
              f"{_sci(row.get('L1')):<9} {_sci(row.get('L2'))}")
    path = os.path.join(outdir, "table.csv")
    dio.write_table(rows, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_converge(cfg, args):
    sizes = [int(s) for s in args.sizes.split(",")]
    problem = make_problem(cfg.problem)
    if problem.exact is None:
        raise ConfigError(f"{cfg.problem} has no exact solution to converge against")

    rows = convergence_study(
        problem, sizes, lambda h: _time_config(cfg, problem, h, steady=True),
        kind=cfg.element)
    print("h           L2          EOC")
    lines = ["h,L2,EOC"]
    for k, (h, l2, order) in enumerate(rows):
        # no order on the coarsest mesh; float() keeps repr free of np.float64
        print(f"{h:<11.4e} {l2:<11.4e} {'' if k == 0 else f'{order:.3f}'}")
        lines.append(f"{h!r},{l2!r},{'' if k == 0 else repr(float(order))}")
    # the study builds each mesh's TimeConfig, so the directory follows it
    path = os.path.join(_output_dir(cfg), "converge.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_audit(cfg, args):
    coords, values, kind = dio.read_field(args.field)
    if kind != cfg.element:
        raise ConfigError(f"field holds {kind} elements but --element is "
                          f"{cfg.element}")
    problem, mesh = _build_case(cfg)
    if mesh.n_nodes != len(values):
        raise ConfigError(
            f"field has {len(values)} nodes but the configured mesh has "
            f"{mesh.n_nodes}; pass matching --nx/--ny/--element")
    bounds = admissible_bounds(mesh, problem, steady=bool(cfg.steady))
    mx, mn = dmp_audit(values, bounds)
    bad = local_dmp_audit(mesh, values)
    print(f"global DMP violation: max {mx:.3e}, min {mn:.3e}")
    print(f"local DMP violations at {len(bad)} interior nodes")
    ok = mx == 0.0 and mn == 0.0 and not bad
    return EXIT_OK if ok else EXIT_SOLVER


# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="dmpfem",
        description="Monotonicity-preserving stabilized FE transport benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """Subcommand with --config and a flag per RunConfig key."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value configuration file")
        for f in fields(RunConfig):
            default = "per problem" if f.default is None else f.default
            p.add_argument(f"--{f.name}", help=f"default: {default}")
        return p

    command("run", cmd_run, "solve one configured case")
    p_table = command("table", cmd_table, "sweep q x eps over both solvers")
    p_table.add_argument("--qs", default="1,4,8,25")
    p_table.add_argument("--epss", default="1e-1,1e-2,1e-3,1e-4")
    p_table.add_argument("--include-eps0", action="store_true",
                         help="append the non-smooth eps=0 rows (Anderson only)")
    p_conv = command("converge", cmd_converge, "mesh-refinement study")
    p_conv.add_argument("--sizes", default="12,24,48,96")
    p_audit = command("audit", cmd_audit, "re-check DMP bounds on a saved field")
    p_audit.add_argument("field", help="VTK field file written by `run`")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # parse_config skips the flags left at None
        cfg = parse_config(args.config, {f.name: getattr(args, f.name)
                                         for f in fields(RunConfig)})
        return args.func(cfg, args)
    except ValueError as exc:     # ConfigError and every owner's check
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
