"""Ensemble estimation of the expected solution and error measurement.

Samples are processed in fixed-size chunks, and each chunk advances as one
batch through the time loop (`timestepper.advance`): its states are one
(B, 3, n1d_x, n1d_y) array, so every step makes one right-hand side, solve
and noise load for the whole chunk.  The initial data are projected
once per ensemble.  Per-chunk moments merge in chunk order, so the ensemble
mean is identical no matter how many workers execute the chunks (noise
realizations are already keyed by sample id).  Every time level, the final
one and each snapshot, goes through the one moments merge (_moments,
_merge_moments), so a snapshot at t = T is the final mean bitwise and one at
t = 0 the projected initial data; a snapshot's m2 costs one O(B n)
reduction per chunk and is dropped.  With workers > 1, chunks
run on a forkserver process pool, where one exists, else serially; each
chunk's job goes out pickled, so the spec must pickle, and a script must
guard its entry point (`if __name__ == "__main__":`).
"""
from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import partial, reduce

import numpy as np

from .assembly import Quadrature2D, StateVector, grid_tables, grid_values
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
    """Chan's parallel update for (count, mean(3,n), m2(3,n)) pairs, counts >= 1."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * (nb / n)
    m2 = m2_a + m2_b + delta**2 * (na * nb / n)
    return (n, mean, m2)


def _moments(batch):
    """Moments (count, mean, m2) of a batch (B, 3, n) of states."""
    # deviations from the first sample, so that equal samples give
    # exactly their value as mean and m2 = 0
    d = batch - batch[0]
    d_mean = d.mean(axis=0)
    return (len(batch), batch[0] + d_mean, np.sum((d - d_mean)**2, axis=0))


def _run_chunk(ops, init, T, sampler, workspace, snapshot_times, ids):
    """Moments of one chunk's final states and {t: moments} of its snapshots."""
    try:
        final, snapshots, _ = advance(ops, init, T, ids, sampler=sampler,
                                      noise_workspace=workspace,
                                      snapshot_times=snapshot_times)
    except Exception as exc:
        # keep the type: the CLI maps it to an exit code; a failure of
        # the whole batch is the first sample's
        sid = getattr(exc, "sample_id", None)
        raise type(exc)(f"sample {ids[0] if sid is None else sid} failed: {exc}") from exc
    return (_moments(final.coeffs.reshape(len(ids), 3, -1)),
            {t: _moments(s.coeffs.reshape(len(ids), 3, -1)) for t, s in snapshots.items()})


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

    count, mean, m2 = reduce(_merge_moments, (moments for moments, _ in results))
    mean_state = StateVector(mean[0].copy(), mean[1].copy(), mean[2].copy(), t=T)
    seed = sampler.seed if sampler is not None else 0
    snapshot_means = {t: reduce(_merge_moments, (snaps[t] for _, snaps in results))[1]
                      for t in dict.fromkeys(snapshot_times)}   # a repeated time once
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


def _errors(state, reference, mesh: Mesh2D, basis: Basis1D, tables, xs, ys,
            orders=((0, 0),), ref_mesh: Mesh2D | None = None,
            ref_basis: Basis1D | None = None, exact_grad=None):
    """The error state - reference of each field on the grid xs x ys, whose
    tables (grid_tables) of (mesh, basis) are `tables`: per field, one array
    (len(xs), len(ys)) per derivative order (dx, dy) in orders.

    state may be an EnsembleResult (its mean is taken).  reference is a
    triple of callables (x, y, t) taken at state.t, with exact_grad's pairs
    (d/dx, d/dy) for the first derivatives, or a StateVector on (ref_mesh,
    ref_basis), which needs the state's domain and reuses `tables` when it
    lives on (mesh, basis).
    """
    if isinstance(state, EnsembleResult):
        state = state.mean
    if isinstance(reference, StateVector):
        if ref_mesh is None or ref_basis is None:
            raise ValueError("reference StateVector needs ref_mesh and ref_basis")
        if ref_mesh.domain != mesh.domain:
            raise ValueError(
                f"state mesh domain {mesh.domain} and reference domain "
                f"{ref_mesh.domain} differ: no common evaluation grid")
        own = ref_mesh is mesh and ref_basis is basis
        ref_tables = tables if own else grid_tables(ref_mesh, ref_basis, xs, ys)
        refs = [[grid_values(ref_tables, g, dx, dy) for dx, dy in orders]
                for g in reference.fields]
    else:
        if exact_grad is None and any(o != (0, 0) for o in orders):
            raise ValueError("energy error against an exact triple needs exact_grad")
        X, Y = xs[:, None], ys[None, :]
        # order (0, 0) is the field itself, (1, 0) and (0, 1) its exact_grad pair
        refs = [[(g if (dx, dy) == (0, 0) else exact_grad[idx][dy])(X, Y, state.t)
                 for dx, dy in orders] for idx, g in enumerate(reference)]
    return [[grid_values(tables, f, dx, dy) - r for (dx, dy), r in zip(orders, ref)]
            for f, ref in zip(state.fields, refs)]


def error_report(state, reference, mesh: Mesh2D, basis: Basis1D,
                 ref_mesh: Mesh2D | None = None, ref_basis: Basis1D | None = None,
                 grid_n: int = LINF_GRID) -> ErrorReport:
    """Errors of a state (or ensemble mean) against a reference.

    reference is either a triple of callables (x, y, t) evaluated at state.t,
    or a StateVector living on (ref_mesh, ref_basis).  Linf is taken on a
    uniform grid_n x grid_n grid including the boundary; L2 by quadrature of
    the squared difference on the state's mesh.
    """
    x0, x1, y0, y1 = mesh.domain
    xs, ys = np.linspace(x0, x1, grid_n), np.linspace(y0, y1, grid_n)
    quad = Quadrature2D(mesh, basis)
    ref = {"ref_mesh": ref_mesh, "ref_basis": ref_basis}
    on_grid = _errors(state, reference, mesh, basis, grid_tables(mesh, basis, xs, ys),
                      xs, ys, **ref)
    on_quad = _errors(state, reference, mesh, basis, quad.tables, quad.x, quad.y, **ref)
    linf = tuple(float(np.max(np.abs(e))) for (e,) in on_grid)
    l2 = tuple(float(np.sqrt(np.sum(e**2 * quad.W))) for (e,) in on_quad)
    return ErrorReport(l2=l2, linf=linf, l2_sum=float(sum(l2)),
                       linf_sum=float(sum(linf)), grid_n=grid_n)


def error_hw(state, reference, mesh: Mesh2D, basis: Basis1D, spec: ModelSpec,
             tau: float, ref_mesh: Mesh2D | None = None,
             ref_basis: Basis1D | None = None) -> float:
    """Weighted energy norm of the error, summed over the three fields.

    sqrt( sum_f  h1 * ||e_f||_L2^2 + (tau/2) * zeta * ||grad e_f||_L2^2 )
    with h1 = max(1, 1 + (tau/2) r).  The reference is an exact triple
    with spec.exact_grad available, or a StateVector on (ref_mesh, ref_basis).
    """
    quad = Quadrature2D(mesh, basis)
    h1 = max(1.0, 1.0 + 0.5 * tau * spec.r)
    total = 0.0
    for e, ex, ey in _errors(state, reference, mesh, basis, quad.tables, quad.x, quad.y,
                             ((0, 0), (1, 0), (0, 1)), ref_mesh, ref_basis,
                             getattr(spec, "exact_grad", None)):
        l2sq = float(np.sum(e**2 * quad.W))
        h1sq = float(np.sum((ex**2 + ey**2) * quad.W))
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
