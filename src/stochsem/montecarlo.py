"""Ensemble estimation of the expected solution and error measurement.

Samples are processed in fixed-size chunks, and each chunk advances as one
batch through the time loop (`timestepper.advance`): its states are one
(B, 3, n1d_x, n1d_y) array, so every step makes one right-hand side, solve
and noise load for the whole chunk.  The initial data are projected
once per ensemble.  Per-chunk moments merge in chunk order, so the ensemble
mean is identical no matter how many workers execute the chunks (noise
realizations are already keyed by sample id).  With workers > 1, chunks
run on a forkserver process pool, where one exists, else serially; each
chunk's job goes out pickled, so the spec must pickle, and a script must
guard its entry point (`if __name__ == "__main__":`).
"""
from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .assembly import Quadrature2D, StateVector, evaluate_grid
from .basis import Basis1D
from .mesh import Mesh2D
from .model import ModelSpec
from .stochastic import NoiseWorkspace, QWienerSampler
# `run` stays importable here: the benchmark's tests compare montecarlo.run
from .timestepper import SchemeOperators, advance, initial_data, run, scheme_for  # noqa: F401

DEFAULT_CHUNK = 32
LINF_GRID = 101


@dataclass
class EnsembleResult:
    """Streaming mean/variance of final states over M samples."""

    m: int
    mean: StateVector
    m2: np.ndarray                    # (3, n) sum of squared deviations
    seed: int
    snapshot_means: dict = dc_field(default_factory=dict)   # t -> (3, n)

    @property
    def variance(self) -> np.ndarray:
        if self.m < 2:
            return np.zeros_like(self.m2)
        return self.m2 / (self.m - 1)

    @property
    def stderr(self) -> np.ndarray:
        """Per-DOF standard error sqrt(variance / M)."""
        return np.sqrt(self.variance / self.m)


def _merge_moments(a, b):
    """Chan's parallel update for (count, mean(3,n), m2(3,n)) pairs."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * (nb / n)
    m2 = m2_a + m2_b + delta**2 * (na * nb / n)
    return (n, mean, m2)


def _run_chunk(ops, init, T, sampler, workspace, snapshot_times, ids):
    """Moments (count, mean, m2) and snapshot sums {t: (3, n)} of one chunk."""
    try:
        final, snapshots, _ = advance(ops, init, T, ids, sampler=sampler,
                                      noise_workspace=workspace,
                                      snapshot_times=snapshot_times)
    except Exception as exc:
        # keep the type: the CLI maps it to an exit code; a failure of
        # the whole batch is the first sample's
        sid = getattr(exc, "sample_id", None)
        raise type(exc)(f"sample {ids[0] if sid is None else sid} failed: {exc}") from exc
    X = final.coeffs.reshape(len(ids), 3, -1)
    # deviations from the first sample, so that equal samples give
    # exactly their value as mean and m2 = 0
    d = X - X[0]
    d_mean = d.mean(axis=0)
    moments = (len(ids), X[0] + d_mean, np.sum((d - d_mean)**2, axis=0))
    return moments, {t: s.coeffs.reshape(len(ids), 3, -1).sum(axis=0)
                     for t, s in snapshots.items()}


def run_ensemble(spec: ModelSpec, mesh: Mesh2D, basis: Basis1D, tau: float,
                 T: float, sampler: QWienerSampler, M: int,
                 workers: int = 1, chunk_size: int = DEFAULT_CHUNK,
                 snapshot_times=None,
                 ops: SchemeOperators | None = None,
                 nonlinearity_time: str = "extrapolated",
                 noise_convention: str = "paper") -> EnsembleResult:
    """Estimate E[solution] over M trajectories with sample ids 0..M-1.

    The result is independent of `workers` (bitwise, because chunking and
    merge order are fixed by chunk_size alone).  Any sample failure aborts
    the whole ensemble; it is re-raised as its own exception type with the
    offending sample id in the message.  A prebuilt ops must be the scheme
    of (spec, mesh, basis, tau), as in timestepper.run (scheme_for).

    With workers > 1 and more than one chunk, the chunks run on a
    forkserver process pool (serially only where the platform has none),
    also while other threads run.  Each chunk goes out pickled with the
    scheme, so spec must pickle (module-level functions or their
    functools.partials, as in model), and a script must guard its entry
    point (`if __name__ == "__main__":`): a worker imports the main module,
    as with any start method but fork.
    """
    if M < 1:
        raise ValueError(f"sample count must be >= 1, got {M}")
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    ops = scheme_for(spec, mesh, basis, tau, ops, nonlinearity_time, noise_convention)
    workspace = None
    if sampler is not None and sampler.amplitude > 0.0:
        workspace = NoiseWorkspace(sampler, mesh, basis, projector=ops.projector)
    init = initial_data(ops)
    snapshot_times = tuple(snapshot_times or ())

    job = partial(_run_chunk, ops, init, T, sampler, workspace, snapshot_times)
    chunks = [range(i, min(i + chunk_size, M)) for i in range(0, M, chunk_size)]
    if (workers > 1 and len(chunks) > 1
            and "forkserver" in multiprocessing.get_all_start_methods()):
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["stochsem"])
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks)),
                                 mp_context=context) as pool:
            results = list(pool.map(job, chunks))
    else:
        results = list(map(job, chunks))

    total = (0, np.zeros((3, mesh.n_global)), np.zeros((3, mesh.n_global)))
    snap_sums = {t: np.zeros((3, mesh.n_global)) for t in snapshot_times}
    for moments, snaps in results:
        total = _merge_moments(total, moments)
        for t in snapshot_times:
            snap_sums[t] += snaps[t]

    count, mean, m2 = total
    mean_state = StateVector(mean[0].copy(), mean[1].copy(), mean[2].copy(), t=T)
    seed = sampler.seed if sampler is not None else 0
    snapshot_means = {t: s / count for t, s in snap_sums.items()}
    return EnsembleResult(m=count, mean=mean_state, m2=m2, seed=seed,
                          snapshot_means=snapshot_means)


@dataclass(frozen=True)
class ErrorReport:
    """L2 (by quadrature) and Linf (on a uniform grid) errors per field.

    The *_sum entries are the sums of the three per-field norms, matching
    the summed-over-fields error the experiments report.
    """

    l2: tuple[float, float, float]
    linf: tuple[float, float, float]
    l2_sum: float
    linf_sum: float
    grid_n: int = LINF_GRID


def _check_reference(reference, mesh: Mesh2D, ref_mesh: Mesh2D | None,
                     ref_basis: Basis1D | None) -> bool:
    """Whether reference is a StateVector (else an exact triple); a
    StateVector needs its discretization on the state's domain."""
    if not isinstance(reference, StateVector):
        return False
    if ref_mesh is None or ref_basis is None:
        raise ValueError("reference StateVector needs ref_mesh and ref_basis")
    if ref_mesh.domain != mesh.domain:
        raise ValueError(
            f"state mesh domain {mesh.domain} and reference domain "
            f"{ref_mesh.domain} differ: no common evaluation grid")
    return True


def error_report(state, reference, mesh: Mesh2D, basis: Basis1D,
                 ref_mesh: Mesh2D | None = None, ref_basis: Basis1D | None = None,
                 grid_n: int = LINF_GRID) -> ErrorReport:
    """Errors of a state (or ensemble mean) against a reference.

    reference is either a triple of callables (x, y, t) evaluated at state.t,
    or a StateVector living on (ref_mesh, ref_basis).  Linf is taken on a
    uniform grid_n x grid_n grid including the boundary; L2 by quadrature of
    the squared difference on the state's mesh.
    """
    if isinstance(state, EnsembleResult):
        state = state.mean
    from_state = _check_reference(reference, mesh, ref_mesh, ref_basis)

    x0, x1, y0, y1 = mesh.domain
    xs = np.linspace(x0, x1, grid_n)
    ys = np.linspace(y0, y1, grid_n)
    quad = Quadrature2D(mesh, basis)
    X, Y = quad.grid
    linf, l2 = [], []
    for idx, f in enumerate(state.fields):
        if from_state:
            g = reference.fields[idx]
            ref_grid = evaluate_grid(ref_mesh, ref_basis, g, xs, ys)
            ref_quad = evaluate_grid(ref_mesh, ref_basis, g, quad.x, quad.y)
        else:
            ref_grid = reference[idx](xs[:, None], ys[None, :], state.t)
            ref_quad = reference[idx](X, Y, state.t)
        diff_grid = evaluate_grid(mesh, basis, f, xs, ys) - ref_grid
        linf.append(float(np.max(np.abs(diff_grid))))
        l2.append(float(np.sqrt(np.sum((quad.values(f) - ref_quad)**2 * quad.W))))
    return ErrorReport(l2=tuple(l2), linf=tuple(linf),
                       l2_sum=float(sum(l2)), linf_sum=float(sum(linf)),
                       grid_n=grid_n)


def error_hw(state, reference, mesh: Mesh2D, basis: Basis1D, spec: ModelSpec,
             tau: float, ref_mesh: Mesh2D | None = None,
             ref_basis: Basis1D | None = None) -> float:
    """Weighted energy norm of the error, summed over the three fields.

    sqrt( sum_f  h1 * ||e_f||_L2^2 + (tau/2) * zeta * ||grad e_f||_L2^2 )
    with h1 = max(1, 1 + (tau/2) r).  The reference is an exact triple
    with spec.exact_grad available, or a StateVector on (ref_mesh, ref_basis).
    """
    if isinstance(state, EnsembleResult):
        state = state.mean
    from_state = _check_reference(reference, mesh, ref_mesh, ref_basis)
    if not from_state and getattr(spec, "exact_grad", None) is None:
        raise ValueError("energy error against an exact triple needs exact_grad")
    quad = Quadrature2D(mesh, basis)
    X, Y = quad.grid
    h1 = max(1.0, 1.0 + 0.5 * tau * spec.r)

    total = 0.0
    for idx, f in enumerate(state.fields):
        if from_state:
            g = reference.fields[idx]
            rv, rgx, rgy = (evaluate_grid(ref_mesh, ref_basis, g, quad.x, quad.y, dx=dx, dy=dy)
                            for dx, dy in ((0, 0), (1, 0), (0, 1)))
        else:
            gfx, gfy = spec.exact_grad[idx]
            rv, rgx, rgy = (fn(X, Y, state.t) for fn in (reference[idx], gfx, gfy))
        l2sq = float(np.sum((quad.values(f) - rv)**2 * quad.W))
        h1sq = float(np.sum(((quad.values(f, dx=1) - rgx)**2
                             + (quad.values(f, dy=1) - rgy)**2) * quad.W))
        total += h1 * l2sq + 0.5 * tau * spec.zeta * h1sq
    return float(np.sqrt(total))


def convergence_order(errors) -> np.ndarray:
    """Observed orders log2(e_i / e_{i+1}) of a positive error sequence from
    a tau-halving sequence."""
    errors = np.asarray(errors, dtype=float)
    if errors.size < 2:
        raise ValueError("need at least two error values")
    if np.any(errors <= 0) or not np.all(np.isfinite(errors)):
        raise ValueError("error values must be positive and finite")
    return np.log2(errors[:-1] / errors[1:])
