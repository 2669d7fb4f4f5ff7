"""Stage 2: Gaussian-process Bayesian minimization of the linear metric.

The discrete design dimensions (alpha, both load ratios, pitch) are
enumerated exhaustively; the continuous ones (junction area, current
density, dielectric thickness) are searched per enumeration combination by
expected-improvement BO with an anisotropic squared-exponential GP.

Inputs are min-max normalized to the unit cube and targets are standardized
log-metric values.  Hyperparameters maximize the log marginal likelihood by
a bounded multi-start pattern search in log space; the fit's random starts
come from a fixed seed and every other draw from the run's seed, so a run is
exactly repeatable.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_triangular
from scipy.special import ndtr

LENGTH_SCALE_BOUNDS = (0.01, 10.0)
N_CANDIDATES = 4096
N_LOCAL = 16
LOCAL_SIGMA = 0.05
EI_FIRST_SOLVE = 32
FIT_STARTS = 8
FIT_MAX_EVALS = 200
MIN_EVALS_PER_COMBO = 10
REFIT_EVERY = 5
FULL_REFIT_EVERY = 40
WARM_FIT_EVALS = 60
#: Jitter rungs of the training covariance, relative to the signal variance.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

#: exp(x) is a normal double for x >= -700 (the smallest normal, 2**-1022,
#: is exp(-708.40)), so numpy's SIMD exp keeps its fast path there.
_EXP_FAST_MIN = -700.0
#: exp(x) rounds to +0.0 for every x below -746: it is then under half the
#: smallest subnormal, 2**-1075 = exp(-745.13).
_EXP_ZERO_BELOW = -746.0
#: Entries per row block of the kernel: 512 KB of float64, so a block and
#: its temporary stay in a core's L2 cache.
_KERNEL_BLOCK = 1 << 16
#: LAPACK dpotrs, the solve that scipy's cho_solve calls after its checks.
_POTRS, = get_lapack_funcs(("potrs",), (np.empty((1, 1)),))


@dataclass(frozen=True)
class SearchSpace:
    """Continuous bounds plus enumerated value lists.

    continuous: tuples (name, low, high).
    enumerated: tuples (name, values).
    """

    continuous: tuple
    enumerated: tuple = ()

    def __post_init__(self):
        names = [n for n, *_ in self.continuous] + [n for n, _ in self.enumerated]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dimension names in the search space")
        if not self.continuous:
            raise ValueError("search space needs at least one continuous dimension")
        for name, lo, hi in self.continuous:
            if not lo < hi:
                raise ValueError(f"{name}: empty continuous range [{lo}, {hi}]")
        for name, values in self.enumerated:
            if len(values) == 0:
                raise ValueError(f"{name}: empty enumerated value list")
            if len(set(values)) != len(values):
                raise ValueError(f"{name}: duplicate enumerated values")

    @property
    def dim(self) -> int:
        return len(self.continuous)

    def normalize(self, params: dict) -> np.ndarray:
        return np.array(
            [(params[n] - lo) / (hi - lo) for n, lo, hi in self.continuous]
        )

    def denormalize(self, x) -> dict:
        return {
            n: lo + float(xi) * (hi - lo)
            for (n, lo, hi), xi in zip(self.continuous, x)
        }

    def combos(self) -> list[dict]:
        if not self.enumerated:
            return [{}]
        names = [n for n, _ in self.enumerated]
        lists = [v for _, v in self.enumerated]
        return [dict(zip(names, vals)) for vals in itertools.product(*lists)]


def _sq_dists(xa: np.ndarray, xbt: np.ndarray, lengths: np.ndarray,
              out: np.ndarray, tmp: np.ndarray) -> None:
    """Scaled squared distances into ``out``, one dimension at a time.

    ``xbt`` is xb transposed and contiguous; ``tmp`` has out's shape.
    Bitwise equal to the broadcast sum over an (n, m, d) tensor for d < 8:
    numpy's reduction adds fewer than 8 terms left to right too, starting
    from the first.
    """
    for k in range(xa.shape[1]):
        t = out if k == 0 else tmp
        np.subtract.outer(xa[:, k], xbt[k], out=t)
        t /= lengths[k]
        t *= t
        if k:
            out += t


def _exp_inplace(a: np.ndarray) -> None:
    """``np.exp(a, out=a)``, bit for bit, without numpy's underflow path.

    numpy's SIMD exp leaves its fast path for any vector that holds an
    underflowing lane, and at short length scales most kernel entries
    underflow.  Lanes below _EXP_FAST_MIN are clamped to it, exponentiated
    on the fast path and masked to +0.0.  The lanes of the band
    [_EXP_ZERO_BELOW, _EXP_FAST_MIN), where exp can be subnormal, go
    through ``np.exp`` on their own, which gives the same bits: it is
    elementwise.  NaN compares false and takes the fast path unchanged.
    """
    low = a < _EXP_FAST_MIN
    if not low.any():
        np.exp(a, out=a)
        return
    band = np.flatnonzero(low & (a >= _EXP_ZERO_BELOW))
    subnormal = np.exp(a.take(band))
    np.maximum(a, _EXP_FAST_MIN, out=a)
    np.exp(a, out=a)
    a *= np.logical_not(low, out=low)
    np.put(a, band, subnormal)


def kernel(xa, xb, signal_variance: float, length_scales) -> np.ndarray:
    """Anisotropic squared-exponential covariance.

    Computed in blocks of rows of about _KERNEL_BLOCK entries, so that the
    temporaries stay in cache; every entry depends on its own row only.
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] == 0:
        raise ValueError("kernel inputs need at least one dimension")
    lengths = np.asarray(length_scales, dtype=float)
    xbt = np.ascontiguousarray(xb.T)
    out = np.empty((xa.shape[0], xb.shape[0]))
    rows = max(1, _KERNEL_BLOCK // max(xb.shape[0], 1))
    tmp = np.empty((min(rows, xa.shape[0]), xb.shape[0]))
    for i in range(0, xa.shape[0], rows):
        block = out[i:i + rows]
        _sq_dists(xa[i:i + rows], xbt, lengths, block, tmp[:block.shape[0]])
        block *= -0.5
        _exp_inplace(block)
        block *= signal_variance
    return out


@dataclass
class GpModel:
    """Fitted GP: training data, hyperparameters, and Cholesky factor."""

    x: np.ndarray
    y: np.ndarray
    y_offset: float
    signal_variance: float
    length_scales: np.ndarray
    noise_variance: float
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    jitter: float = 0.0

    @classmethod
    def build(cls, x, y, signal_variance, length_scales, noise_variance,
              cov=None):
        """Factorize the training covariance with escalating jitter.

        ``cov``, when given, is ``kernel(x, x, signal_variance,
        length_scales)`` computed by the caller; its diagonal is
        overwritten.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y lengths differ")
        offset = float(np.mean(y))
        k = kernel(x, x, signal_variance, length_scales) if cov is None else cov
        factor = _factorize(k, y - offset, signal_variance, noise_variance)
        if factor is None:
            n = x.shape[0]
            cond = float(np.linalg.cond(k + noise_variance * np.eye(n)))
            raise np.linalg.LinAlgError(
                f"covariance not positive definite even at jitter 1e-6 "
                f"(n={n}, cond~{cond:.3e})"
            )
        chol, alpha, jitter = factor
        return cls(
            x=x,
            y=y,
            y_offset=offset,
            signal_variance=float(signal_variance),
            length_scales=np.asarray(length_scales, dtype=float),
            noise_variance=float(noise_variance),
            chol=chol,
            alpha=alpha,
            jitter=jitter,
        )

    def log_marginal_likelihood(self) -> float:
        return _log_marginal_likelihood(self.y - self.y_offset, self.chol,
                                        self.alpha)


def _factorize(k: np.ndarray, resid: np.ndarray, signal_variance: float,
               noise_variance: float):
    """(chol, alpha, jitter) of k + (noise + jitter) I, or None.

    The one factorization path: ``GpModel.build`` and the fit's scorer both
    call it.  The rungs of JITTER_LADDER are tried in order, and None means
    that numpy's Cholesky failed on every one.  Each rung writes k's
    diagonal as its original values plus noise and jitter, so jitter never
    piles up and k is never copied; a None return restores the diagonal.
    alpha solves against resid through LAPACK potrs, as ``cho_solve`` does
    after its checks.
    """
    n = k.shape[0]
    diag = k.diagonal().copy()
    for jitter_rel in JITTER_LADDER:
        jitter = jitter_rel * signal_variance
        k.flat[::n + 1] = diag + (noise_variance + jitter)
        try:
            chol = np.linalg.cholesky(k)
        except np.linalg.LinAlgError:
            continue
        alpha, _ = _POTRS(chol, resid, lower=True)
        # A NaN or inf in x, y or the covariance reaches alpha: numpy's
        # Cholesky returns NaN rather than raising.
        if not np.all(np.isfinite(alpha)):
            raise ValueError("GP training data or covariance not finite")
        return chol, alpha, jitter
    k.flat[::n + 1] = diag
    return None


def _log_marginal_likelihood(resid: np.ndarray, chol: np.ndarray,
                             alpha: np.ndarray) -> float:
    """GPML Alg. 2.1's log marginal likelihood from the factorization."""
    return float(
        -0.5 * resid @ alpha
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * resid.size * math.log(2.0 * math.pi)
    )


class _TrainingCovariance:
    """``kernel(x, x, s, l)`` for one training set, bit for bit, reusing terms.

    The pattern search moves one hyperparameter at a time.  The
    per-dimension differences are computed once; a length move recomputes
    only that dimension's scaled square and re-sums the dimensions in
    ``_sq_dists``'s order, and a signal or noise move only rescales the
    cached exp(-D/2).  Holds 2d + 1 arrays of shape (n, n).
    """

    def __init__(self, x: np.ndarray):
        self._diffs = [np.subtract.outer(x[:, k], x[:, k])
                       for k in range(x.shape[1])]
        self._lengths = [None] * x.shape[1]
        self._terms = [None] * x.shape[1]
        self._exp = None
        self._n = x.shape[0]

    def __call__(self, signal_variance: float, lengths) -> np.ndarray:
        changed = self._exp is None
        for k, length in enumerate(lengths):
            if length != self._lengths[k]:
                t = self._diffs[k] / length
                t *= t
                self._terms[k], self._lengths[k] = t, length
                changed = True
        if changed:
            total = np.zeros((self._n, self._n))
            for t in self._terms:
                total += t
            total *= -0.5
            np.exp(total, out=total)
            self._exp = total
        return self._exp * signal_variance


def _pattern_search(fun, theta0, lower, upper, max_evals):
    """Greedy coordinate pattern search with shrinking steps.

    Each distinct theta is scored once: a move back onto a theta that this
    search already scored reuses its value.  ``evals`` still counts every
    candidate, so the path and the result are those of scoring each one.
    """
    scores = {}

    def score(theta):
        key = theta.tobytes()
        if key not in scores:
            scores[key] = fun(theta)
        return scores[key]

    theta = np.clip(np.asarray(theta0, dtype=float), lower, upper)
    best = score(theta)
    evals = 1
    step = 0.5
    while evals < max_evals and step > 1e-3:
        improved = False
        for i in range(theta.size):
            for sign in (1.0, -1.0):
                if evals >= max_evals:
                    break
                cand = theta.copy()
                cand[i] = min(max(cand[i] + sign * step, lower[i]), upper[i])
                if cand[i] == theta[i]:
                    continue
                val = score(cand)
                evals += 1
                if val < best - 1e-12:
                    theta, best = cand, val
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return theta, best


def fit_gp(
    inputs,
    targets,
    n_starts: int = FIT_STARTS,
    max_evals: int = FIT_MAX_EVALS,
    init_theta=None,
) -> GpModel:
    """Fit hyperparameters by multi-start bounded pattern search on the LML.

    Each candidate theta is scored by ``_neg_lml`` through ``_factorize``,
    the factorization ``GpModel.build`` uses, without building a model; a
    theta whose covariance fails every jitter level scores +inf.  The
    covariances come from one ``_TrainingCovariance`` per fit.  ``init_theta``
    (log-space [log lengths..., log signal, log noise]) warm starts the
    first search, useful when refitting during optimization.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("GP fit requires at least 2 observations")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("GP fit requires finite inputs and targets")
    d = x.shape[1]
    var = max(float(np.var(y)), 1e-12)

    lower = np.concatenate((
        np.full(d, math.log(LENGTH_SCALE_BOUNDS[0])),
        [math.log(1e-4 * var)],
        [math.log(1e-10)],
    ))
    # Noise ceiling 1e-2*var: the objectives here are deterministic, and a
    # loose ceiling lets the surrogate explain the optimum funnel as noise,
    # which stalls the acquisition's exploitation.
    upper = np.concatenate((
        np.full(d, math.log(LENGTH_SCALE_BOUNDS[1])),
        [math.log(1e2 * var)],
        [math.log(max(1e-2 * var, 1e-9))],
    ))

    rng = np.random.default_rng(0)
    starts = []
    if init_theta is not None:
        starts.append(np.asarray(init_theta, dtype=float))
    starts.append(np.concatenate((
        np.full(d, math.log(0.5)),
        [math.log(var)],
        [math.log(max(1e-6 * var, 1e-10))],
    )))
    while len(starts) < n_starts:
        starts.append(rng.uniform(lower, upper))

    covariance = _TrainingCovariance(x)
    neg_lml = functools.partial(_neg_lml, covariance, y - float(np.mean(y)))

    best_theta, best_val = None, math.inf
    for theta0 in starts[:n_starts]:
        theta, val = _pattern_search(neg_lml, theta0, lower, upper, max_evals)
        if val < best_val:
            best_theta, best_val = theta, val
    if best_theta is None or not np.isfinite(best_val):
        raise np.linalg.LinAlgError("no hyperparameter start produced a finite LML")
    return _build_at(x, y, best_theta, covariance)


def _neg_lml(covariance, resid: np.ndarray, theta: np.ndarray) -> float:
    """The fit's score: minus the LML at a log-space theta, +inf if no rung.

    ``covariance(signal, lengths)`` returns a fresh training covariance,
    which is factored in place.  Bitwise ``-GpModel.build(...)
    .log_marginal_likelihood()`` at the same theta, without the model.
    """
    d = theta.size - 2
    signal = math.exp(theta[d])
    factor = _factorize(covariance(signal, np.exp(theta[:d])), resid, signal,
                        math.exp(theta[d + 1]))
    if factor is None:
        return math.inf
    chol, alpha, _ = factor
    return -_log_marginal_likelihood(resid, chol, alpha)


def _build_at(x, y, theta, covariance=None) -> GpModel:
    """GpModel at a log-space theta [log lengths..., log signal, log noise].

    ``covariance``, a ``_TrainingCovariance`` of x, supplies the kernel.
    """
    d = x.shape[1]
    signal, lengths = math.exp(theta[d]), np.exp(theta[:d])
    return GpModel.build(
        x,
        y,
        signal_variance=signal,
        length_scales=lengths,
        noise_variance=math.exp(theta[d + 1]),
        cov=None if covariance is None else covariance(signal, lengths),
    )


def fitted_theta(model: GpModel) -> np.ndarray:
    """Log-space hyperparameter vector of a fitted model."""
    return np.concatenate((
        np.log(model.length_scales),
        [math.log(model.signal_variance)],
        [math.log(model.noise_variance)],
    ))


def posterior(model: GpModel, x):
    """Latent posterior mean and variance at query points.

    Returns scalars for a single point, arrays for a batch.  Variance is
    clamped at zero when round-off drives it slightly negative.
    """
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 1
    k_star = kernel(model.x, x_arr, model.signal_variance, model.length_scales)
    mean = model.y_offset + k_star.T @ model.alpha
    var = _latent_variance(model, k_star)
    if scalar:
        return float(mean[0]), float(var[0])
    return mean, var


def _latent_variance(model: GpModel, k_star: np.ndarray,
                     overwrite: bool = False) -> np.ndarray:
    """Posterior variance from the columns k(model.x, query), clipped at 0.

    Each column's variance is bitwise independent of the other columns as
    long as two or more are solved together: a lone column goes down a
    different BLAS path and can differ in the last bits.  ``overwrite``
    lets the solve work in place on a Fortran-ordered ``k_star``.
    """
    v = solve_triangular(model.chol, k_star, lower=True, overwrite_b=overwrite,
                         check_finite=False)
    v *= v
    var = model.signal_variance - np.sum(v, axis=0)
    if np.any(var < -1e-8 * model.signal_variance):
        warnings.warn("posterior variance clipped from a negative value")
    return np.maximum(var, 0.0)


def expected_improvement(model: GpModel, x, best=None):
    """EI for minimization against the best observed target."""
    if best is None:
        best = float(np.min(model.y))
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 1
    mean, var = posterior(model, x_arr)
    ei = _ei(best - mean, np.sqrt(var))
    return float(ei[0]) if scalar else ei


def _ei(improve: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Elementwise EI from the improvement best - mean and the latent sigma."""
    ei = np.where(improve > 0, improve, 0.0)
    pos = sigma > 0
    if np.any(pos):
        z = improve[pos] / sigma[pos]
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        ei[pos] = improve[pos] * ndtr(z) + sigma[pos] * pdf
    return ei


def propose_next(model: GpModel, rng: np.random.Generator) -> np.ndarray:
    """Argmax of EI over uniform candidates plus local perturbations.

    Candidate set: N_CANDIDATES uniform draws in the unit cube and N_LOCAL
    Gaussian perturbations (sigma LOCAL_SIGMA, clipped) around the incumbent
    best.  Deterministic given the generator state.  The winner is returned
    as a copy: a row view would keep the whole candidate block alive for as
    long as the caller holds the point.
    """
    d = model.x.shape[1]
    uniform = rng.uniform(0.0, 1.0, size=(N_CANDIDATES, d))
    incumbent = model.x[int(np.argmin(model.y))]
    local = np.clip(
        incumbent + rng.normal(0.0, LOCAL_SIGMA, size=(N_LOCAL, d)), 0.0, 1.0
    )
    cands = np.vstack((uniform, local))
    return cands[_ei_argmax(model, cands)].copy()


def _ei_argmax(model: GpModel, cands: np.ndarray) -> int:
    """Index of the EI maximum over cands, solving only where it can be.

    Bitwise ``int(np.argmax(expected_improvement(model, cands)))``, first
    index on ties.  EI is nondecreasing in sigma and the latent variance
    never exceeds the signal variance, so EI at sigma_max =
    sqrt(signal_variance) bounds every candidate (the branch-and-bound EI
    bound of Jones, Schonlau & Welch 1998).  The EI_FIRST_SOLVE highest
    bounds are solved exactly; one more solve covers every other candidate
    whose bound, widened by a 1e-9 relative rounding margin, reaches their
    best EI.  A candidate tied at the maximum is therefore always solved.
    """
    k_star = kernel(model.x, cands, model.signal_variance, model.length_scales)
    # The mean needs the full product: k_star.T @ alpha on a column subset
    # can differ in the last bits.
    improve = float(np.min(model.y)) - (model.y_offset + k_star.T @ model.alpha)
    sigma_max = math.sqrt(model.signal_variance)
    bound = _ei(improve, np.full(improve.shape, sigma_max))
    ei = np.full(improve.shape, -np.inf)

    def solve(idx):
        # k_star.T[idx].T gathers straight into Fortran order, which the
        # solve then overwrites without a copy of its own.
        sigma = np.sqrt(_latent_variance(model, k_star.T[idx].T, overwrite=True))
        ei[idx] = _ei(improve[idx], sigma)

    n_first = min(EI_FIRST_SOLVE, improve.size)
    first = np.argpartition(bound, -n_first)[-n_first:]
    solve(first)
    slack = 1e-9 * (np.abs(improve) + sigma_max)
    keep = bound + slack >= np.max(ei[first])
    keep[first] = False
    rest = np.flatnonzero(keep)
    if rest.size == 1:
        # Never one column alone (see _latent_variance).
        rest = np.append(rest, first[0])
    if rest.size:
        solve(rest)
    return int(np.argmax(ei))


def latin_hypercube(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Jittered Latin hypercube sample of n points in [0,1]^d."""
    out = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        out[:, j] = (perm + rng.uniform(0.0, 1.0, size=n)) / n
    return out


@dataclass
class HistoryEntry:
    """One objective evaluation; warm-start rows carry iteration -1."""

    combo_id: int
    iteration: int
    params: dict
    metric: float
    is_incumbent: bool
    flagged: bool = False


@dataclass
class OptResult:
    """Optimization outcome: the global best, the warm-start incumbents
    and every new evaluation."""

    best_params: dict
    best_metric: float
    best_combo_id: int
    history: list
    new_evaluations: int


def _standardize(values: np.ndarray) -> np.ndarray:
    mu = float(np.mean(values))
    sd = float(np.std(values))
    if sd == 0.0:
        sd = 1.0
    return (values - mu) / sd


def optimize_metric(
    space: SearchSpace,
    objective,
    budget: int,
    seed: int = 0,
    warm_start=None,
) -> OptResult:
    """Enumerate discrete combinations, run BO over the continuous dims.

    ``budget`` counts total objective evaluations including the kept
    warm-start records; when they already meet the budget no new
    evaluations happen and the best warm point is returned.  When new
    evaluations are required the budget must allow at least
    MIN_EVALS_PER_COMBO per enumeration combination.  Remaining budget is
    spread round-robin over combinations.  Objective failures are recorded
    at ten times the combination's worst usable value (1e31 before there is
    one) and do not stop the run.  Warm-start rows whose enumerated values
    match no combination are dropped and use up no budget.

    The history holds each combination's warm-start incumbents, then every
    new evaluation; the caller already holds every warm row.  A warm row
    that is no incumbent is NaN or no lower than an earlier usable row of
    its combination, so it can never be the first finite minimum.
    """
    combos = space.combos()
    n_combos = len(combos)

    names = [n for n, _ in space.enumerated]
    combo_ids = {tuple(c[n] for n in names): ci for ci, c in enumerate(combos)}
    warm_by_combo = [[] for _ in combos]
    for params, value in warm_start or ():
        ci = combo_ids.get(tuple(params.get(n) for n in names))
        if ci is not None:
            warm_by_combo[ci].append((params, value))

    new_total = budget - sum(len(rows) for rows in warm_by_combo)
    history: list[HistoryEntry] = []
    combo_data = []  # (xs list, ys list) raw metric space
    for ci, rows in enumerate(warm_by_combo):
        xs, ys, ys_min = [], [], math.inf
        for params, value in rows:
            usable = bool(np.isfinite(value) and value > 0)
            if not ys or value < ys_min:
                history.append(HistoryEntry(
                    combo_id=ci,
                    iteration=-1,
                    params=dict(params),
                    metric=float(value),
                    is_incumbent=True,
                    flagged=not usable,
                ))
            if usable:
                # The GP inputs are needed only by a search.
                if new_total > 0:
                    xs.append(space.normalize(params))
                ys.append(float(value))
                ys_min = min(ys_min, ys[-1])
        combo_data.append((xs, ys))

    new_evals = 0
    if new_total > 0:
        if budget < MIN_EVALS_PER_COMBO * n_combos:
            raise ValueError(
                f"budget {budget} is below {MIN_EVALS_PER_COMBO} evaluations "
                f"per enumeration combination ({n_combos} combinations)"
            )
        alloc = [
            new_total // n_combos + (1 if i < new_total % n_combos else 0)
            for i in range(n_combos)
        ]
        seeds = np.random.SeedSequence(seed).spawn(n_combos)
        for ci, combo in enumerate(combos):
            if alloc[ci] == 0:
                continue
            rng = np.random.default_rng(seeds[ci])
            new_evals += _optimize_combo(
                space, objective, combo, ci, combo_data[ci], alloc[ci], rng, history
            )

    # The first minimum over finite rows.
    best = None
    for h in history:
        if math.isfinite(h.metric) and (best is None or h.metric < best.metric):
            best = h
    if best is None:
        raise RuntimeError("optimization produced no finite metric evaluation")
    return OptResult(
        best_params=dict(best.params),
        best_metric=best.metric,
        best_combo_id=best.combo_id,
        history=history,
        new_evaluations=new_evals,
    )


def _optimize_combo(space, objective, combo, ci, data, alloc, rng, history):
    xs, ys = data
    xs = [np.asarray(x) for x in xs]
    used = 0
    # Worst usable value so far (0.0 while there is none).  Failure
    # sentinels scale this, never an earlier sentinel, so they cannot
    # compound towards overflow.
    worst = max(ys, default=0.0)
    best = min(ys, default=math.inf)
    prev_theta = None

    def evaluate(x_norm):
        nonlocal used, worst, best
        params = space.denormalize(x_norm)
        params.update(combo)
        flagged = False
        try:
            value = float(objective(params))
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"objective returned unusable value {value}")
            worst = max(worst, value)
        except Exception:
            value = 10.0 * worst if worst > 0 else 1e31
            flagged = True
        history.append(HistoryEntry(
            combo_id=ci,
            iteration=used,
            params=params,
            metric=value,
            is_incumbent=not ys or value < best,
            flagged=flagged,
        ))
        # A copy, never a view of the caller's array.
        xs.append(np.array(x_norm, dtype=float))
        ys.append(value)
        best = min(best, value)
        used += 1

    if len(ys) == 0:
        for x0 in latin_hypercube(rng, min(8, alloc), space.dim):
            if used >= alloc:
                break
            evaluate(x0)
    while used < alloc and len(ys) < 2:
        evaluate(rng.uniform(0.0, 1.0, size=space.dim))

    # Refit schedule: the hyperparameter search is the expensive part, so a
    # full multi-start fit happens only up front and every FULL_REFIT_EVERY
    # points, a cheap warm-started search every REFIT_EVERY points, and in
    # between the factorization is rebuilt with frozen hyperparameters.
    while used < alloc:
        y_std = _standardize(np.log(np.asarray(ys)))
        x_arr = np.vstack(xs)
        n = len(ys)
        try:
            if prev_theta is None or n % FULL_REFIT_EVERY == 0:
                model = fit_gp(x_arr, y_std, n_starts=FIT_STARTS,
                               init_theta=prev_theta)
                prev_theta = fitted_theta(model)
            elif n % REFIT_EVERY == 0:
                model = fit_gp(x_arr, y_std, n_starts=1,
                               max_evals=WARM_FIT_EVALS,
                               init_theta=prev_theta)
                prev_theta = fitted_theta(model)
            else:
                model = _build_at(x_arr, y_std, prev_theta)
        except np.linalg.LinAlgError:
            model = fit_gp(x_arr, y_std, n_starts=FIT_STARTS)
            prev_theta = fitted_theta(model)
        evaluate(propose_next(model, rng))
    return used
