"""Experiment harness: subcommands over strict config files.

    stochsem run           one deterministic or ensemble run + error report
    stochsem table1        step-size convergence table (deterministic test1)
    stochsem spatial       error vs basis order curve
    stochsem evolve        gridded snapshots of the mean u field (test2)
    stochsem spectrum-dump noise eigenvalue table

Every command writes its artifacts plus resolved_config.ini and manifest.json
into the output directory.  All CSV numbers use repr() formatting ('.'
decimal separator, scientific notation allowed), so identical configurations
produce byte-identical data files; wall-clock measurements go to separate
files marked volatile in the manifest.

run, spatial and evolve study the configured problem through one helper,
mean_state: the Monte Carlo mean of the Q-Wiener-driven system when
[noise] sigma > 0, else the noise-free path.  table1 runs noise-free only.
Every command that steps runs the scheme make_scheme builds with the
configured options ([scheme] nonlinearity_time, [noise] sign_convention).

Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
model.NumericalError, or a floating-point error numpy raises).
The output directory resolves as --out flag > STOCHSEM_OUT env > config.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import grid_tables, grid_values
from .basis import make_basis
from .config import ConfigError, RunConfig, load_config
from .mesh import build_mesh
from .model import (ModelSpec, NumericalError, const_field, smooth_init,
                    test1_spec, test2_spec)
from .montecarlo import (convergence_order, error_hw, error_report,
                         run_ensemble)
from .stochastic import QWienerSampler, spectrum
from .timestepper import build_scheme, run, time_grid

OUT_ENV_VAR = "STOCHSEM_OUT"
DOMAIN = (0.0, 1.0, 0.0, 1.0)   # both test problems live on the unit square


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def make_problem(cfg: RunConfig) -> ModelSpec:
    kind = cfg.get("problem", "kind")
    pref = cfg.get("problem", "prefactor")
    wp = cfg.get("problem", "wp")
    if kind == "test1":
        # the manufactured forcings depend on the strength 0.6 * prefactor,
        # so a wp override rebuilds them
        spec = test1_spec(prefactor=pref if wp is None else wp / 0.6)
    elif kind == "test2_smooth":
        spec = test2_spec("smooth", prefactor=pref)
    elif kind == "test2_delta":
        center = (cfg.get("problem", "delta_center_x"),
                  cfg.get("problem", "delta_center_y"))
        spec = test2_spec("delta", delta_center=center,
                          delta_width=cfg.get("problem", "delta_width"),
                          prefactor=pref)
    else:   # custom: constant coefficients on the unit square
        init = const_field(0.0) if cfg.get("problem", "init") == "zero" else smooth_init
        spec = ModelSpec(
            xi=cfg.get("problem", "xi"),
            zeta=cfg.get("problem", "zeta"),
            r=cfg.get("problem", "r"),
            wp=1.0 if wp is None else wp,
            e=(1.0, 1.0, 1.0),
            kappa=(cfg.get("problem", "kappa1"), cfg.get("problem", "kappa2")),
            nonlinearity=cfg.get("problem", "nonlinearity"),
            init=(init, init, init),
            name="custom",
        )
    if wp is not None and kind.startswith("test2"):
        spec = spec.with_wp(wp)
    return spec


def make_discretization(cfg: RunConfig, order: int | None = None):
    order = order if order is not None else cfg.get("mesh", "order")
    mesh = build_mesh(DOMAIN, cfg.get("mesh", "nex"), cfg.get("mesh", "ney"), order)
    return mesh, make_basis(order)


def make_sampler(cfg: RunConfig) -> QWienerSampler:
    return QWienerSampler(
        truncation=cfg.get("noise", "truncation"),
        decay_exponent=cfg.get("noise", "decay_exponent"),
        amplitude=cfg.get("noise", "sigma"),
        seed=cfg.get("noise", "seed"),
        shared=cfg.get("noise", "shared_paths"),
    )


def make_scheme(cfg: RunConfig, spec: ModelSpec, mesh, basis, tau: float):
    """The scheme of (spec, mesh, basis, tau) with the configured options."""
    return build_scheme(mesh, basis, spec, tau,
                        nonlinearity_time=cfg.get("scheme", "nonlinearity_time"),
                        noise_convention=cfg.get("noise", "sign_convention"))


def mean_state(cfg: RunConfig, spec: ModelSpec, mesh, basis, tau: float,
               snapshot_times=()):
    """The configured study on (mesh, basis) with steps tau up to [time]
    t_final: the final state, the snapshots {t: (3, n) array} and the
    standard error (3, n).  With [noise] sigma > 0 these are the Monte Carlo
    mean and its standard error (a new sampler each call: every order of a
    spatial curve sees the same noise); otherwise the noise-free path and
    None.  run_ensemble and run give their snapshots in that layout, passed
    on as they are.
    """
    T = cfg.get("time", "t_final")
    time_grid(T, tau, snapshot_times)       # an off-grid time builds no scheme
    ops = make_scheme(cfg, spec, mesh, basis, tau)
    if cfg.get("noise", "sigma") > 0:
        res = run_ensemble(spec, mesh, basis, tau, T, make_sampler(cfg),
                           M=cfg.get("montecarlo", "samples"),
                           workers=cfg.get("montecarlo", "workers"),
                           chunk_size=cfg.get("montecarlo", "chunk_size"),
                           snapshot_times=snapshot_times, ops=ops)
        return res.mean, res.snapshot_means, res.stderr
    traj = run(spec, mesh, basis, tau, T, snapshot_times=snapshot_times, ops=ops)
    return traj.final, traj.snapshots, None


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


class OutputWriter:
    """Collects emitted files and their checksums for the manifest."""

    def __init__(self, directory: Path):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.outputs: dict[str, dict] = {}

    def write_csv(self, name: str, header, rows, volatile: bool = False) -> Path:
        path = self.dir / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
        self.register(name, volatile=volatile)
        return path

    def write_text(self, name: str, text: str, volatile: bool = False) -> Path:
        path = self.dir / name
        path.write_text(text)
        self.register(name, volatile=volatile)
        return path

    def register(self, name: str, volatile: bool = False) -> None:
        digest = hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
        self.outputs[name] = {"sha256": digest, "volatile": volatile}

    def write_manifest(self, command: str, cfg: RunConfig, wall_clock: float) -> Path:
        # the runtime output directory is invocation metadata, recorded beside
        # the config so identical configs give identical resolved artifacts
        manifest = {
            "command": command,
            "code_version": __version__,
            "wall_clock_seconds": wall_clock,
            "output_directory": str(self.dir),
            "config": cfg.as_sections(),
            "outputs": self.outputs,
        }
        path = self.dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def grid_rows(mesh, basis, fields, grid_n: int, names):
    """Rows (x, y, field values...) over a uniform grid including boundary,
    every field evaluated on one set of the grid's tables."""
    x0, x1, y0, y1 = mesh.domain
    xs = np.linspace(x0, x1, grid_n)
    ys = np.linspace(y0, y1, grid_n)
    tables = grid_tables(mesh, basis, xs, ys)
    grids = [grid_values(tables, f) for f in fields]
    rows = []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            rows.append([float(x), float(y)] + [float(g[i, j]) for g in grids])
    return ["x", "y", *names], rows


def write_snapshots(out: OutputWriter, prefix: str, mesh, basis, snapshots, times,
                    grid_n: int, names):
    """Write the first len(names) fields of each snapshots[t], t in times,
    on the grid to {prefix}_{i:03d}.csv with a leading t column; returns
    the file names."""
    files = []
    for i, t in enumerate(times):
        header, rows = grid_rows(mesh, basis, snapshots[t][:len(names)], grid_n, names)
        files.append(f"{prefix}_{i:03d}.csv")
        out.write_csv(files[-1], ["t", *header], [[float(t), *r] for r in rows])
    return files


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(cfg: RunConfig, out: OutputWriter) -> None:
    spec = make_problem(cfg)
    mesh, basis = make_discretization(cfg)
    snap_times = cfg.get("time", "snapshot_times")
    final, snapshots, stderr = mean_state(cfg, spec, mesh, basis, cfg.get("time", "tau"),
                                          snap_times)
    if stderr is not None:
        rows = [[i, final.u[i], final.v[i], final.w[i],
                 stderr[0, i], stderr[1, i], stderr[2, i]]
                for i in range(final.n)]
        out.write_csv("ensemble_summary.csv",
                      ["dof", "mean_u", "mean_v", "mean_w",
                       "stderr_u", "stderr_v", "stderr_w"], rows)

    grid_n = cfg.get("output", "grid_n")
    header, rows = grid_rows(mesh, basis, final.fields, grid_n, ["u", "v", "w"])
    out.write_csv("final_state.csv", header, rows)
    write_snapshots(out, "snapshot", mesh, basis, snapshots, snap_times, grid_n,
                    ["u", "v", "w"])

    if spec.exact is not None:
        rep = error_report(final, spec.exact, mesh, basis,
                           grid_n=cfg.get("output", "grid_n"))
        rows = [["u", rep.l2[0], rep.linf[0]],
                ["v", rep.l2[1], rep.linf[1]],
                ["w", rep.l2[2], rep.linf[2]],
                ["sum", rep.l2_sum, rep.linf_sum]]
        out.write_csv("error_report.csv", ["field", "l2", "linf"], rows)


def cmd_table1(cfg: RunConfig, out: OutputWriter) -> None:
    if cfg.get("problem", "kind") != "test1":
        raise ConfigError("table1 requires [problem] kind = test1 (it measures "
                          "errors against the manufactured solution)")
    spec = make_problem(cfg)
    taus = cfg.get("table1", "tau_list")
    orders_n = cfg.get("table1", "n_list")
    T = cfg.get("time", "t_final")
    for tau in taus:        # every tau's grid, before any scheme
        time_grid(T, tau)
    for N in orders_n:
        mesh, basis = make_discretization(cfg, order=N)
        rows, walls = [], []
        for tau in taus:
            t0 = time.perf_counter()
            traj = run(spec, mesh, basis, tau, T, ops=make_scheme(cfg, spec, mesh, basis, tau))
            walls.append([tau, time.perf_counter() - t0])
            rep = error_report(traj.final, spec.exact, mesh, basis)
            # the observed order against the previous tau's error
            order = (repr(float(convergence_order([rows[-1][4], rep.linf_sum])[0]))
                     if rows else "")
            rows.append([tau, *rep.linf, rep.linf_sum, order])
        out.write_csv(f"table1_N{N}.csv",
                      ["tau", "linf_u", "linf_v", "linf_w", "linf_sum", "order"],
                      rows)
        out.write_csv(f"table1_N{N}_wallclock.csv", ["tau", "seconds"], walls, volatile=True)


def cmd_spatial(cfg: RunConfig, out: OutputWriter) -> None:
    spec = make_problem(cfg)
    tau = cfg.get("spatial", "tau")
    n_list = cfg.get("spatial", "n_list")
    sigma = cfg.get("noise", "sigma")

    ref_mesh = ref_basis = None
    if spec.exact is not None and sigma == 0:
        reference, ref_name = spec.exact, "exact"
    else:
        ref_order = cfg.get("reference", "order")
        if not cfg.get("reference", "common_random_numbers") and sigma > 0:
            raise ConfigError("spatial curves with noise require "
                              "[reference] common_random_numbers = true")
        ref_mesh, ref_basis = make_discretization(cfg, order=ref_order)
        reference = mean_state(cfg, spec, ref_mesh, ref_basis, tau)[0]
        ref_name = f"order{ref_order}"

    rows = []
    for N in n_list:
        mesh, basis = make_discretization(cfg, order=N)
        state = mean_state(cfg, spec, mesh, basis, tau)[0]
        rep = error_report(state, reference, mesh, basis,
                           ref_mesh=ref_mesh, ref_basis=ref_basis)
        hw = error_hw(state, reference, mesh, basis, spec, tau,
                      ref_mesh=ref_mesh, ref_basis=ref_basis)
        rows.append([N, tau, rep.l2_sum, rep.linf_sum, hw, ref_name])
    out.write_csv("spatial.csv",
                  ["n", "tau", "l2_sum", "linf_sum", "hw_sum", "reference"],
                  rows)


def cmd_evolve(cfg: RunConfig, out: OutputWriter) -> None:
    kind = cfg.get("problem", "kind")
    if not kind.startswith("test2"):
        raise ConfigError("evolve requires a test2 problem kind")
    spec = make_problem(cfg)
    mesh, basis = make_discretization(cfg)
    times = cfg.get("evolve", "times")
    grid_n = cfg.get("evolve", "grid_n")
    _, snapshots, _ = mean_state(cfg, spec, mesh, basis, cfg.get("time", "tau"), times)

    files = write_snapshots(out, "evolve", mesh, basis, snapshots, times, grid_n, ["u"])
    out.write_csv("evolve_times.csv", ["index", "t", "file"],
                  [[i, t, name] for i, (t, name) in enumerate(zip(times, files))])


def cmd_spectrum_dump(cfg: RunConfig, out: OutputWriter) -> None:
    out.write_csv("spectrum.csv", ["j", "k", "q"], spectrum(make_sampler(cfg)))


COMMANDS = {
    "run": cmd_run,
    "table1": cmd_table1,
    "spatial": cmd_spatial,
    "evolve": cmd_evolve,
    "spectrum-dump": cmd_spectrum_dump,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochsem",
        description="Spectral element experiments for the stochastic "
                    "advection-reaction-diffusion system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=None,
                       help="override [montecarlo] workers")
        p.add_argument("--seed", type=int, default=None,
                       help="override [noise] seed")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.workers is not None:
            cfg.set("montecarlo", "workers", args.workers)
        if args.seed is not None:
            cfg.set("noise", "seed", args.seed)
        out = OutputWriter(Path(args.out or os.environ.get(OUT_ENV_VAR)
                                or cfg.get("output", "directory")))
        t0 = time.perf_counter()
        COMMANDS[args.command](cfg, out)
    # numerical failures first: model.SingularNonlinearity is also a ValueError
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out.write_text("resolved_config.ini", cfg.to_ini())
    out.write_manifest(args.command, cfg, wall_clock=time.perf_counter() - t0)
    print(f"{args.command}: wrote {len(out.outputs)} artifacts to {out.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
