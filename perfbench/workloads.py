"""The three benchmark studies and their output checks.

Each workload runs one study through stochsem's public API and returns an
`Outcome`: the study's wall time, the time spent in its set-up calls and
inside `run`/`run_ensemble`, the steps taken, and the data the checks need.
The checks compare that data with references computed here, apart from the
program (the published Table 1, the closed-form noise field, the exact
solution of Test 1), or with a property the method must have (order 2 in
tau, an unbiased ensemble mean).  They are not timed.

Program functions are looked up on their modules at call time (`ts.run`,
not a bound name), so that a tracer installed afterwards sees the calls.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from stochsem import assembly, model, montecarlo as mc, stochastic, timestepper as ts
from stochsem.basis import make_basis
from stochsem.mesh import build_mesh

UNIT = (0.0, 1.0, 0.0, 1.0)
clock = time.perf_counter

# Test 1, N = 10 column of the paper's Table 1 (L-inf error summed over fields)
TABLE1_PUBLISHED = {1 / 32: 1.2863e-3, 1 / 64: 3.3204e-4, 1 / 128: 8.3715e-5}
TABLE1_WINDOW = 3.0          # measured / published within [1/3, 3]
ORDER_WINDOW = (1.8, 2.2)    # observed temporal orders (measured 2.04 .. 2.00)
Z_MAX = 6.0                  # per-dof |mean - det| / stderr
Z_RMS_MAX = 3.0              # root mean square of those z-scores
SHRINK_WINDOW = (1.6, 2.5)   # stderr(M) / stderr(4M), ideally 2
DET_LINF_MAX = 5e-4          # fine-paths noise-free L-inf error (measured 1.5e-4)
PROJECTION_TOL = 1e-10       # projected increment vs sine sum (measured 3.9e-12)


@dataclass
class Outcome:
    """Timings of one study, its trajectories by check group, and the data
    its checks need."""

    wall_s: float
    setup_s: float
    run_s: float
    steps: int
    groups: dict[str, int]
    data: dict


def _sampler(seed: int):
    return stochastic.QWienerSampler(truncation=8, decay_exponent=2.0, amplitude=0.1,
                                     seed=seed)


# ---------------------------------------------------------------------------
# table1: Crank-Nicolson temporal order on the manufactured Test 1
# ---------------------------------------------------------------------------

TABLE1_TAUS = tuple(1 / 2**k for k in range(5, 10))


def _table1_problem():
    return model.test1_spec(), build_mesh(UNIT, 2, 2, 10), make_basis(10)


def table1_study(seed: int) -> Outcome:
    """Noise-free Test 1 to T = 1 at each tau, with one error report per tau.

    The study has no randomness, so the seed is not used.
    """
    t0 = clock()
    spec, mesh, basis = _table1_problem()
    setup = run_s = 0.0
    steps = 0
    linf, hw = [], []
    for tau in TABLE1_TAUS:
        a = clock()
        ops = ts.build_scheme(mesh, basis, spec, tau)
        b = clock()
        traj = ts.run(spec, mesh, basis, tau, 1.0, ops=ops, record_reports=False)
        c = clock()
        setup += b - a
        run_s += c - b
        steps += round(1.0 / tau)
        linf.append(mc.error_report(traj.final, spec.exact, mesh, basis).linf_sum)
        hw.append(mc.error_hw(traj.final, spec.exact, mesh, basis, spec, tau))
    return Outcome(clock() - t0, setup, run_s, steps,
                   {f"tau={tau}": 1 for tau in TABLE1_TAUS}, {"linf": linf, "hw": hw})


def table1_setup() -> float:
    """Time of the study's set-up calls alone: one scheme per tau."""
    spec, mesh, basis = _table1_problem()
    t0 = clock()
    for tau in TABLE1_TAUS:
        ts.build_scheme(mesh, basis, spec, tau)
    return clock() - t0


def check_table1(taus, linf) -> list[tuple[str, str]]:
    """Published windows at the tabulated taus, order near 2 between
    neighbours.  Returns (trajectory group, message) per failure."""
    fails = []
    for tau, err in zip(taus, linf):
        ref = TABLE1_PUBLISHED.get(tau)
        if ref is not None and not ref / TABLE1_WINDOW <= err <= ref * TABLE1_WINDOW:
            fails.append((f"tau={tau}", f"L-inf error {err:.4e} outside the "
                          f"published window around {ref:.4e}"))
    for i in range(len(taus) - 1):
        order = float(np.log(linf[i] / linf[i + 1]) / np.log(taus[i] / taus[i + 1]))
        if not ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1]:
            msg = f"observed order {order:.3f} between tau={taus[i]} and {taus[i + 1]}"
            fails += [(f"tau={taus[i]}", msg), (f"tau={taus[i + 1]}", msg)]
    return fails


def table1_check(data):
    errs = " ".join(f"{e:.4e}" for e in data["linf"])
    return check_table1(TABLE1_TAUS, data["linf"]), f"L-inf errors {errs}"


# ---------------------------------------------------------------------------
# ensemble: Monte Carlo consistency of the linear (wp = 0) scheme
# ---------------------------------------------------------------------------

ENSEMBLE_M = 100
ENSEMBLE_TAU = 0.01


def _ensemble_problem():
    return (model.test2_spec("smooth").with_wp(0.0), build_mesh(UNIT, 2, 2, 8),
            make_basis(8))


def ensemble_study(seed: int) -> Outcome:
    """Noise-free run plus ensembles of M and 4M samples of Test 2 (smooth
    initial data, nonlinearity off) to T = 0.1, with the errors of both
    means against the noise-free run."""
    t0 = clock()
    spec, mesh, basis = _ensemble_problem()
    sampler = _sampler(seed)
    tau, T, M = ENSEMBLE_TAU, 0.1, ENSEMBLE_M
    a = clock()
    ops = ts.build_scheme(mesh, basis, spec, tau)
    b = clock()
    det = ts.run(spec, mesh, basis, tau, T, ops=ops, record_reports=False).final
    ens = [mc.run_ensemble(spec, mesh, basis, tau, T, sampler, M=m, ops=ops, workers=1)
           for m in (M, 4 * M)]
    c = clock()
    l2 = [mc.error_report(r, det, mesh, basis, ref_mesh=mesh, ref_basis=basis).l2_sum
          for r in ens]
    hw = [mc.error_hw(r, det, mesh, basis, spec, tau, ref_mesh=mesh, ref_basis=basis)
          for r in ens]
    wall = clock() - t0
    return Outcome(wall, b - a, c - b, round(T / tau) * (1 + 5 * M),
                   {"det": 1, "M": M, "4M": 4 * M},
                   {"det": det.stacked(), "l2": l2, "hw": hw,
                    "means": [r.mean.stacked() for r in ens],
                    "stderrs": [r.stderr for r in ens]})


def ensemble_setup() -> float:
    spec, mesh, basis = _ensemble_problem()
    t0 = clock()
    ts.build_scheme(mesh, basis, spec, ENSEMBLE_TAU)
    return clock() - t0


def zscores(mean, det, stderr) -> tuple[float, float]:
    """Largest and root-mean-square |mean - det| / stderr over all dofs."""
    z = np.abs(mean - det) / stderr
    return float(z.max()), float(np.sqrt(np.mean(z**2)))


def stderr_shrink(stderr_m, stderr_4m) -> float:
    """Ratio of the root-mean-square standard errors of the M and 4M means."""
    return float(np.sqrt(np.mean(stderr_m**2) / np.mean(stderr_4m**2)))


def check_ensemble(z_max_m, z_rms_m, z_max_4m, z_rms_4m, shrink) -> list[tuple[str, str]]:
    """The linear scheme's mean is the noise-free solution: both means lie
    within a few standard errors of it, and the standard error of the mean
    halves from M to 4M samples."""
    fails = []
    for group, zmax, zrms in (("M", z_max_m, z_rms_m), ("4M", z_max_4m, z_rms_4m)):
        if not (zmax <= Z_MAX and zrms <= Z_RMS_MAX):
            fails.append((group, f"{group} mean is {zmax:.2f} standard errors from the "
                          f"noise-free run (rms {zrms:.2f})"))
    if not SHRINK_WINDOW[0] <= shrink <= SHRINK_WINDOW[1]:
        msg = f"standard error shrinks by {shrink:.3f} from M to 4M, not about 2"
        fails += [("M", msg), ("4M", msg)]
    return fails


def ensemble_check(data):
    (mean_m, mean_4m), (se_m, se_4m) = data["means"], data["stderrs"]
    zm, z4 = zscores(mean_m, data["det"], se_m), zscores(mean_4m, data["det"], se_4m)
    shrink = stderr_shrink(se_m, se_4m)
    l2 = data["l2"]
    return check_ensemble(*zm, *z4, shrink), (
        f"L2 |mean - det| M {l2[0]:.4e} 4M {l2[1]:.4e} (ratio {l2[0] / l2[1]:.3f}); "
        f"max z {zm[0]:.2f} {z4[0]:.2f}; stderr shrink {shrink:.3f}")


# ---------------------------------------------------------------------------
# fine-paths: a few noisy Test 1 paths on a fine mesh
# ---------------------------------------------------------------------------

def fine_paths_study(seed: int) -> Outcome:
    """One noise-free and two noisy Test 1 paths of 10 steps sharing one
    prebuilt NoiseWorkspace, with the noise-free path's error report."""
    t0 = clock()
    spec = model.test1_spec()
    mesh, basis = build_mesh(UNIT, 8, 8, 10), make_basis(10)
    sampler = _sampler(seed)
    tau, T = 0.01, 0.1
    a = clock()
    ops = ts.build_scheme(mesh, basis, spec, tau)
    ws = stochastic.NoiseWorkspace(sampler, mesh, basis, projector=ops.projector)
    b = clock()
    det = ts.run(spec, mesh, basis, tau, T, ops=ops, record_reports=False).final
    paths = [ts.run(spec, mesh, basis, tau, T, sampler=sampler, sample_id=sid, ops=ops,
                    noise_workspace=ws, record_reports=False).final
             for sid in (0, 1)]
    c = clock()
    det_linf = mc.error_report(det, spec.exact, mesh, basis).linf_sum
    wall = clock() - t0
    return Outcome(wall, b - a, c - b, 3 * round(T / tau),
                   {"det": 1, "path0": 1, "path1": 1},
                   {"det_linf": det_linf, "finals": [det] + paths,
                    "sampler": sampler, "ws": ws, "mesh": mesh, "basis": basis,
                    "tau": tau})


def noise_projection_error(coeffs, mode_coeffs, mesh, basis, grid_n: int = 41) -> float:
    """Max difference on a grid between the field of projected coefficients
    and the closed-form sum  sum_jk c_jk (2/L) sin(j pi x) sin(k pi y)
    on the unit square."""
    xs = np.linspace(0.0, 1.0, grid_n)
    j = np.arange(1, mode_coeffs.shape[0] + 1)
    sines = np.sqrt(2.0) * np.sin(np.pi * np.outer(j, xs))
    exact = sines.T @ mode_coeffs @ sines
    return float(np.max(np.abs(assembly.evaluate_grid(mesh, basis, coeffs, xs, xs) - exact)))


def check_fine_paths(det_linf, projection_err, finite) -> list[tuple[str, str]]:
    fails = []
    if not det_linf <= DET_LINF_MAX:
        fails.append(("det", f"noise-free L-inf error {det_linf:.3e} > {DET_LINF_MAX:.0e}"))
    if not projection_err <= PROJECTION_TOL:
        msg = f"projected increment is {projection_err:.3e} off the sine sum"
        fails += [("path0", msg), ("path1", msg)]
    for group, ok in zip(("det", "path0", "path1"), finite):
        if not ok:
            fails.append((group, "non-finite final state"))
    return fails


def fine_paths_check(data):
    sampler, mesh, basis, tau = data["sampler"], data["mesh"], data["basis"], data["tau"]
    inc = stochastic.sample_increment(sampler, 0, 1, tau, mesh, basis, workspace=data["ws"])
    proj = noise_projection_error(inc.coeffs,
                                  stochastic.mode_coefficients(sampler, 0, 1, tau),
                                  mesh, basis)
    finite = [bool(np.all(np.isfinite(s.stacked()))) for s in data["finals"]]
    return check_fine_paths(data["det_linf"], proj, finite), (
        f"noise-free L-inf error {data['det_linf']:.4e}; projected increment "
        f"vs sine sum {proj:.3e}")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    study(seed) -> Outcome; setup() -> seconds of the study's set-up calls
    alone, repeated `setup_repeats` extra times per round; check(data) ->
    (failures as (check group, message), one-line summary).
    """

    study: object
    setup: object
    setup_repeats: int
    check: object


WORKLOADS = {
    "table1": Workload(table1_study, table1_setup, 5, table1_check),
    "ensemble": Workload(ensemble_study, ensemble_setup, 20, ensemble_check),
    "fine-paths": Workload(fine_paths_study, None, 0, fine_paths_check),
}
