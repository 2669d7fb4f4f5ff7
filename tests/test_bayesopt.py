"""GP surrogate, acquisition, and the enumerate-then-optimize driver."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from oracles import (
    ei_argmax_dense,
    expected_improvement_quad,
    gp_posterior_dense,
    log_marginal_likelihood_dense,
    pattern_search_unmemoized,
    sq_exp_kernel_loops,
)
from twpaopt import bayesopt
from twpaopt.bayesopt import (
    EI_FIRST_SOLVE,
    LENGTH_SCALE_BOUNDS,
    GpModel,
    HistoryEntry,
    JITTER_LADDER,
    MIN_EVALS_PER_COMBO,
    N_CANDIDATES,
    N_LOCAL,
    SearchSpace,
    _EXP_FAST_MIN,
    _EXP_ZERO_BELOW,
    _TrainingCovariance,
    _ei_argmax,
    _exp_inplace,
    _factorize,
    _neg_lml,
    _latent_variance,
    _pattern_search,
    expected_improvement,
    fit_gp,
    fitted_theta,
    kernel,
    latin_hypercube,
    optimize_metric,
    posterior,
    propose_next,
)


def training_set(n=18, d=2, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.5 * np.cos(5.0 * x[:, 1])
    return x, y


def test_kernel_against_loop_oracle():
    rng = np.random.default_rng(0)
    xa = rng.uniform(size=(7, 3))
    xb = rng.uniform(size=(5, 3))
    lengths = np.array([0.2, 0.7, 1.3])
    got = kernel(xa, xb, 2.5, lengths)
    ref = sq_exp_kernel_loops(xa, xb, 2.5, lengths)
    np.testing.assert_allclose(got, ref, rtol=1e-13)
    np.testing.assert_allclose(np.diag(kernel(xa, xa, 2.5, lengths)), 2.5,
                               rtol=1e-14)
    with pytest.raises(ValueError, match="at least one dimension"):
        kernel(np.zeros((2, 0)), np.zeros((3, 0)), 2.5, [])


def kernel_broadcast(xa, xb, signal_variance, lengths):
    """The (n, m, d) broadcast formula the per-dimension kernel replaces."""
    diff = (xa[:, None, :] - xb[None, :, :]) / lengths
    return signal_variance * np.exp(-0.5 * np.sum(diff * diff, axis=-1))


def build_with_eye(x, y, signal_variance, lengths, noise_variance):
    """(chol, alpha, jitter) of the jitter ladder written with np.eye."""
    k = kernel_broadcast(x, x, signal_variance, lengths)
    n = x.shape[0]
    for jitter_rel in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        jitter = jitter_rel * signal_variance
        try:
            chol = np.linalg.cholesky(
                k + (noise_variance + jitter) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        return chol, cho_solve((chol, True), y - np.mean(y)), jitter
    raise AssertionError("the np.eye ladder found no factorization")


@pytest.mark.parametrize("d", [1, 3, 7])
@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (150, 4112)])
@pytest.mark.parametrize("length", LENGTH_SCALE_BOUNDS)
def test_kernel_bitwise_equals_broadcast_formula(d, shape, length):
    rng = np.random.default_rng(d * 1000 + shape[1])
    xa = rng.uniform(size=(shape[0], d))
    xb = rng.uniform(size=(shape[1], d))
    # One dimension at the bound, the rest drawn across the bounded range.
    lengths = np.exp(rng.uniform(*np.log(LENGTH_SCALE_BOUNDS), size=d))
    lengths[0] = length
    got = kernel(xa, xb, 1.7, lengths)
    assert np.array_equal(bits(got), bits(kernel_broadcast(xa, xb, 1.7,
                                                           lengths)))


@pytest.mark.parametrize("d", [1, 3, 7])
@pytest.mark.parametrize("n", [20, 150])
def test_kernel_bitwise_with_every_length_at_the_lower_bound(d, n):
    # The surrogate's regime from about n = 48 on: every length scale at the
    # bound, so most entries are +0.0 and some subnormal.  n = 20 ends on a
    # partial block of rows.
    rng = np.random.default_rng(d * 1000 + n)
    xa = rng.uniform(size=(n, d))
    xb = rng.uniform(size=(4112, d))
    lengths = np.full(d, LENGTH_SCALE_BOUNDS[0])
    got = kernel(xa, xb, 1.7, lengths)
    assert np.array_equal(bits(got), bits(kernel_broadcast(xa, xb, 1.7,
                                                           lengths)))
    assert np.any(got == 0.0)
    assert np.any((got > 0.0) & (got < np.finfo(float).tiny))


def bits(a):
    """IEEE bit patterns: +0.0 and -0.0, or two NaNs, compare unequal."""
    return np.asarray(a, dtype=float).view(np.int64)


def exp_cases():
    rng = np.random.default_rng(11)
    special = np.array([
        -np.inf, np.inf, np.nan, -np.nan, 0.0, -0.0, 1.0, 709.0,
        _EXP_FAST_MIN, np.nextafter(_EXP_FAST_MIN, -np.inf),
        _EXP_ZERO_BELOW, np.nextafter(_EXP_ZERO_BELOW, np.inf),
        np.nextafter(_EXP_ZERO_BELOW, -np.inf),
        -745.1332191019412, -745.1332191019411, -708.3964185322641,
    ])
    grid = np.linspace(-800.0, -690.0, 1_100_001)
    return {
        "special": special,
        "grid": grid,
        "grid_permuted_with_special": rng.permutation(
            np.concatenate((grid, special))),
        "no_low_lanes": rng.uniform(_EXP_FAST_MIN, 5.0, size=(33, 65)),
        "only_low_lanes": rng.uniform(-1e4, -700.5, size=(65, 33)),
        "only_band_lanes": rng.uniform(_EXP_ZERO_BELOW, -700.5, size=1000),
        "empty": np.empty((0, 4)),
    }


@pytest.mark.parametrize("case", list(exp_cases()))
def test_exp_inplace_bitwise_equals_np_exp(case):
    a = exp_cases()[case]
    ref = np.exp(a)
    got = a.copy()
    _exp_inplace(got)
    assert got.shape == ref.shape
    assert np.array_equal(bits(got), bits(ref))


def test_np_exp_is_plus_zero_below_the_zero_threshold():
    # The assumption the masked lanes rest on: numpy's exp is exactly +0.0
    # below _EXP_ZERO_BELOW, and a normal double at _EXP_FAST_MIN.
    grid = np.linspace(-1e4, _EXP_ZERO_BELOW, 3_000_001)
    grid = np.concatenate((grid, [np.nextafter(_EXP_ZERO_BELOW, -np.inf)]))
    assert np.all(bits(np.exp(grid)) == 0)
    assert np.exp(_EXP_FAST_MIN) >= np.finfo(float).tiny


@pytest.mark.parametrize("case", ["plain", "duplicates", "deficit"])
def test_build_bitwise_equals_eye_ladder(case):
    x, y = training_set(n=30, d=3)
    lengths, noise, jitter = np.array([0.3, 0.5, 0.8]), 1e-4, 0.0
    if case != "plain":
        # Duplicate rows make k singular: noise 1e-300 is lost to rounding,
        # so the ladder climbs one rung.
        x, noise, jitter = np.vstack((x, x[:5])), 1e-300, 1e-10
        y = np.concatenate((y, y[:5]))
    if case == "deficit":
        # A diagonal deficit only the third rung covers: jitter that piled
        # up across the ladder would need the fourth.
        noise, jitter = -5e-10, 1e-9
    model = GpModel.build(x, y, 1.0, lengths, noise)
    chol, alpha, ref_jitter = build_with_eye(x, y, 1.0, lengths, noise)
    assert model.jitter == ref_jitter == jitter
    assert np.array_equal(model.chol, chol)
    assert np.array_equal(model.alpha, alpha)


def neg_lml_and_build(x, y, theta, covariance=None):
    """The fit's score at theta, and GpModel.build at the same theta."""
    d = x.shape[1]
    signal, lengths = math.exp(theta[d]), np.exp(theta[:d])
    noise = math.exp(theta[d + 1])
    if covariance is None:
        covariance = _TrainingCovariance(x)
    score = _neg_lml(covariance, y - float(np.mean(y)), theta)
    return score, lambda: GpModel.build(x, y, signal, lengths, noise,
                                        cov=covariance(signal, lengths))


@pytest.mark.parametrize("case", ["rung0", "ladder"])
def test_fit_score_bitwise_equals_build(case):
    x, y = training_set(n=30, d=3)
    theta = np.log([0.3, 0.5, 0.8, 1.3, 1e-4])
    if case == "ladder":
        # The duplicate rows of test_build_bitwise_equals_eye_ladder.
        x, y = np.vstack((x, x[:5])), np.concatenate((y, y[:5]))
        theta[-1] = math.log(1e-300)
    score, build = neg_lml_and_build(x, y, theta)
    model = build()
    rung = 0 if case == "rung0" else 1
    assert model.jitter == JITTER_LADDER[rung] * model.signal_variance
    assert bits(score) == bits(-model.log_marginal_likelihood())


def test_fit_score_is_inf_where_every_rung_fails():
    # Eigenvalues 3 and -1: no jitter rung reaches the negative one.
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    x, y = np.array([[0.2], [0.7]]), np.array([0.0, 1.0])
    score, build = neg_lml_and_build(x, y, np.log([0.5, 1.0, 1e-6]),
                                     lambda s, l: bad * s)
    assert score == math.inf
    with pytest.raises(np.linalg.LinAlgError):
        build()
    # A failed factorization leaves the covariance as it found it.
    cov = bad.copy()
    assert _factorize(cov, y - 0.5, 1.0, 1e-6) is None
    assert np.array_equal(bits(cov), bits(bad))


def test_fit_score_rejects_a_non_finite_alpha():
    x, y = np.array([[0.2], [0.7]]), np.array([0.0, 1.0])
    nan_cov = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            neg_lml_and_build(x, y, np.log([0.5, 1.0, 1e-6]),
                              lambda s, l: nan_cov * s)
        with pytest.raises(ValueError, match="not finite"):
            GpModel.build(x, y, 1.0, [0.5], 1e-6, cov=nan_cov.copy())


def test_noise_free_model_interpolates():
    x, y = training_set()
    model = GpModel.build(x, y, signal_variance=1.0,
                          length_scales=np.full(2, 0.3),
                          noise_variance=1e-10)
    mean, var = posterior(model, x)
    np.testing.assert_allclose(mean, y, atol=1e-6)
    assert np.max(var) < 1e-4


def test_posterior_against_dense_solve():
    x, y = training_set()
    signal, lengths, noise = 1.7, np.array([0.4, 0.6]), 1e-4
    model = GpModel.build(x, y, signal, lengths, noise)
    query = np.random.default_rng(9).uniform(size=(25, 2))
    mean, var = posterior(model, query)
    ref_mean, ref_var = gp_posterior_dense(x, y, query, signal, lengths, noise)
    np.testing.assert_allclose(mean, ref_mean, atol=1e-9)
    np.testing.assert_allclose(var, ref_var, atol=1e-9)
    # Scalar query returns floats.
    m0, v0 = posterior(model, query[0])
    assert isinstance(m0, float) and isinstance(v0, float)
    assert m0 == pytest.approx(mean[0], rel=1e-12)


def test_log_marginal_likelihood_against_slogdet():
    x, y = training_set(n=12)
    signal, lengths, noise = 0.8, np.array([0.5, 0.9]), 1e-3
    model = GpModel.build(x, y, signal, lengths, noise)
    ref = log_marginal_likelihood_dense(x, y, signal, lengths, noise)
    assert model.log_marginal_likelihood() == pytest.approx(ref, rel=1e-10)


def test_build_validates_shapes():
    with pytest.raises(ValueError):
        GpModel.build(np.zeros((3, 2)), np.zeros(4), 1.0, [0.5, 0.5], 1e-6)


@pytest.mark.parametrize("where", ["x", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_rejects_non_finite_data(where, bad):
    x, y = training_set()
    x, y = x.copy(), y.copy()
    if where == "x":
        x[3, 1] = bad
    else:
        y[3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        GpModel.build(x, y, 1.0, np.full(2, 0.4), 1e-6)


def test_expected_improvement_against_quadrature():
    x, y = training_set()
    model = GpModel.build(x, y, 1.0, np.full(2, 0.4), 1e-6)
    best = float(np.min(model.y))
    rng = np.random.default_rng(2)
    for point in rng.uniform(size=(6, 2)):
        mean, var = posterior(model, point)
        ref = expected_improvement_quad(mean, var, best)
        assert expected_improvement(model, point) == pytest.approx(
            ref, rel=1e-6, abs=1e-12)


def test_expected_improvement_closed_form_cases():
    # At a noise-free training point the variance collapses and EI is the
    # plain improvement, zero for the incumbent itself.
    x, y = training_set()
    model = GpModel.build(x, y, 1.0, np.full(2, 0.4), 1e-12)
    incumbent = x[int(np.argmin(y))]
    assert expected_improvement(model, incumbent) == pytest.approx(0.0,
                                                                   abs=1e-6)
    # mean == best with unit variance: EI = sigma * pdf(0).
    ref = expected_improvement_quad(0.0, 1.0, 0.0)
    assert ref == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-7)


def test_fit_gp_requires_clean_inputs():
    with pytest.raises(ValueError):
        fit_gp(np.zeros((1, 2)), np.zeros(1))
    bad = np.array([[0.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        fit_gp(bad, np.zeros(2))


def test_fit_gp_caps_noise_on_deterministic_targets():
    x, y = training_set(n=30)
    model = fit_gp(x, y)
    var = float(np.var(y))
    assert model.noise_variance <= 1e-2 * var * (1.0 + 1e-9)
    # The fitted model should reproduce smooth deterministic data closely.
    mean, _ = posterior(model, x)
    np.testing.assert_allclose(mean, y, atol=1e-3)


def test_fit_gp_warm_start_and_theta_round_trip():
    x, y = training_set()
    model = fit_gp(x, y)
    theta = fitted_theta(model)
    rebuilt = GpModel.build(
        x, y,
        signal_variance=math.exp(theta[2]),
        length_scales=np.exp(theta[:2]),
        noise_variance=math.exp(theta[3]),
    )
    assert rebuilt.log_marginal_likelihood() == pytest.approx(
        model.log_marginal_likelihood(), rel=1e-12)
    warm = fit_gp(x, y, n_starts=1, max_evals=40, init_theta=theta)
    assert warm.log_marginal_likelihood() >= model.log_marginal_likelihood() - 1e-9


def test_fit_gp_pinned_theta_and_lml():
    # Pinned before the fit reused its distance terms: the same bits.
    x, y = training_set()
    model = fit_gp(x, y)
    assert [float(t).hex() for t in fitted_theta(model)] == [
        "-0x1.0657236a930b1p-2", "-0x1.2ab5db93e8711p-1",
        "0x1.5fb161ead3070p-1", "-0x1.7069e2aa2aa5bp+4"]
    assert model.log_marginal_likelihood().hex() == "0x1.64d4c26908c1dp+4"


def test_training_covariance_bitwise_over_single_coordinate_moves():
    # A pattern-search-like walk: one coordinate per step, drawn from a few
    # values so that earlier lengths and signals come back.
    rng = np.random.default_rng(17)
    x = rng.uniform(size=(40, 3))
    cov = _TrainingCovariance(x)
    values = np.exp(np.linspace(np.log(0.01), np.log(10.0), 4))
    lengths, signal = values[rng.integers(4, size=3)], 1.0
    for _ in range(60):
        i = int(rng.integers(4))
        if i == 3:
            signal = float(values[rng.integers(4)])
        else:
            lengths = lengths.copy()
            lengths[i] = values[rng.integers(4)]
        assert np.array_equal(cov(signal, lengths),
                              kernel(x, x, signal, lengths))


def test_pattern_search_scores_each_theta_once(monkeypatch):
    # fit_gp's own searches, replayed: the search that keeps its scores and
    # the loop that scores every candidate return the same bits, and the
    # first scores each distinct theta once.
    searches = []

    def record(*args):
        searches.append(args)
        return _pattern_search(*args)

    monkeypatch.setattr(bayesopt, "_pattern_search", record)
    x, y = training_set(n=30, d=3)
    fit_gp(x, y)
    monkeypatch.undo()

    def logged(fun, log):
        def score(theta):
            log.append(theta.tobytes())
            return fun(theta)
        return score

    repeats = 0
    for fun, theta0, lower, upper, max_evals in searches:
        once, every = [], []
        theta, best = _pattern_search(logged(fun, once), theta0, lower,
                                      upper, max_evals)
        want_theta, want_best = pattern_search_unmemoized(
            logged(fun, every), theta0, lower, upper, max_evals)
        assert theta.tobytes() == want_theta.tobytes()
        assert best == want_best
        assert len(once) == len(set(once)) and set(once) == set(every)
        repeats += len(every) - len(once)
    # The searches do step back onto thetas they have already scored.
    assert repeats > 0


def test_noisy_duplicates_push_noise_up():
    # Identical inputs with conflicting targets can only be explained by
    # observation noise; the fit must not collapse it to the floor.
    x = np.repeat(np.linspace(0.1, 0.9, 8), 2)[:, None]
    rng = np.random.default_rng(4)
    y = np.sin(2.0 * x[:, 0]) + rng.normal(0.0, 0.2, size=16)
    model = fit_gp(x, y)
    assert model.noise_variance > 1e-4


def test_propose_next_is_deterministic_and_bounded():
    x, y = training_set()
    model = GpModel.build(x, y, 1.0, np.full(2, 0.4), 1e-6)
    a = propose_next(model, np.random.default_rng(123))
    b = propose_next(model, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2,)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_propose_next_returns_an_owned_point():
    x, y = training_set(d=3)
    model = GpModel.build(x, y, 1.0, np.full(3, 0.4), 1e-6)
    point = propose_next(model, np.random.default_rng(4))
    assert point.shape == (3,) and point.base is None


TARGET = {"x0": 0.62, "x1": 0.31, "x2": 0.44}
TARGET_SPACE = SearchSpace(
    continuous=tuple((name, 0.0, 1.0) for name in TARGET))


def target_quadratic(params):
    """Criterion 06's objective: a quadratic bowl around TARGET."""
    return 0.5 + sum((params[n] - TARGET[n]) ** 2 for n in TARGET)


def test_proposals_do_not_pin_their_candidate_block(monkeypatch):
    # The spy keeps every proposal, as a caller that stores points does.
    # A row view of the candidate block would keep the whole block alive:
    # N_CANDIDATES + N_LOCAL rows of d floats per proposal.
    block_bytes = (N_CANDIDATES + N_LOCAL) * TARGET_SPACE.dim * 8
    traced, kept = [], []

    def spy(model, rng):
        traced.append(tracemalloc.get_traced_memory()[0])
        kept.append(propose_next(model, rng))
        return kept[-1]

    monkeypatch.setattr(bayesopt, "propose_next", spy)
    tracemalloc.start()
    try:
        optimize_metric(TARGET_SPACE, target_quadratic, budget=40, seed=0)
    finally:
        tracemalloc.stop()
    assert len(traced) > 20
    assert traced[-1] - traced[-21] < block_bytes


def test_evaluated_points_do_not_alias_the_proposal(monkeypatch):
    # Handed a row view of a candidate-sized block, the search stores a
    # copy of the row: no block outlives the evaluation of its point.
    blocks, alive = [], []

    def hand_out_a_view(model, rng):
        alive.append(sum(ref() is not None for ref in blocks))
        block = np.zeros((N_CANDIDATES + N_LOCAL, model.x.shape[1]))
        block[0] = propose_next(model, rng)
        blocks.append(weakref.ref(block))
        return block[0]

    monkeypatch.setattr(bayesopt, "propose_next", hand_out_a_view)
    optimize_metric(TARGET_SPACE, target_quadratic, budget=20, seed=0)
    assert len(alive) > 1 and not any(alive)


def candidate_set(model, rng):
    """propose_next's candidates: uniform draws plus the incumbent's cloud."""
    d = model.x.shape[1]
    incumbent = model.x[int(np.argmin(model.y))]
    local = np.clip(incumbent + rng.normal(0.0, 0.05, size=(16, d)), 0.0, 1.0)
    return np.vstack((rng.uniform(size=(4096, d)), local))


def solve_widths(monkeypatch):
    """Record the column count of every variance solve."""
    widths = []

    def spy(model, k_star, overwrite=False):
        widths.append(k_star.shape[1])
        return _latent_variance(model, k_star, overwrite)

    monkeypatch.setattr(bayesopt, "_latent_variance", spy)
    return widths


@pytest.mark.parametrize("n", [2, 8, 33, 129, 150])
def test_latent_variance_of_column_subsets_is_bitwise(n):
    # A lone column may differ in the last bits; two or more never do, in
    # any order, in C order or gathered into Fortran order and solved in
    # place.
    rng = np.random.default_rng(n)
    x, y = rng.uniform(size=(n, 3)), rng.normal(size=n)
    model = GpModel.build(x, y, 1.3, np.array([0.3, 0.5, 0.9]), 1e-6)
    k_star = kernel(x, rng.uniform(size=(4112, 3)), 1.3, model.length_scales)
    full = _latent_variance(model, k_star)
    for width in range(2, 65):
        idx = rng.choice(4112, size=width, replace=False)
        assert np.array_equal(_latent_variance(model, k_star[:, idx]),
                              full[idx])
        assert np.array_equal(
            _latent_variance(model, k_star.T[idx].T, overwrite=True),
            full[idx])


def test_ei_argmax_matches_dense_on_random_models(monkeypatch):
    widths = solve_widths(monkeypatch)
    rng = np.random.default_rng(3)
    pruned = 0
    for n in np.linspace(2, 160, 25).astype(int):
        d = int(rng.integers(1, 5))
        x, y = rng.uniform(size=(n, d)), rng.normal(size=n)
        lengths = np.exp(rng.uniform(*np.log(LENGTH_SCALE_BOUNDS), size=d))
        model = GpModel.build(x, y, float(np.exp(rng.uniform(-3.0, 2.0))),
                              lengths, float(np.exp(rng.uniform(-23.0, -5.0))))
        cands = candidate_set(model, rng)
        want = ei_argmax_dense(model, cands)
        widths.clear()
        assert _ei_argmax(model, cands) == want
        assert widths[0] == EI_FIRST_SOLVE and all(w >= 2 for w in widths)
        pruned += sum(widths) < len(cands)
    # The bound must actually skip solves, not only agree.
    assert pruned >= 10


def test_ei_argmax_matches_dense_on_fitted_models(monkeypatch):
    widths = solve_widths(monkeypatch)
    rng = np.random.default_rng(8)
    for n in (12, 40, 90):
        x = rng.uniform(size=(n, 3))
        y = np.log(0.5 + np.sum((x - [0.62, 0.31, 0.44]) ** 2, axis=1))
        model = fit_gp(x, (y - y.mean()) / y.std(), n_starts=2)
        cands = candidate_set(model, rng)
        want = ei_argmax_dense(model, cands)
        widths.clear()
        assert _ei_argmax(model, cands) == want
        assert sum(widths) < len(cands)


def test_ei_argmax_takes_the_first_of_duplicate_maxima():
    x, y = training_set()
    model = GpModel.build(x, y, 1.0, np.full(2, 0.4), 1e-6)
    rng = np.random.default_rng(5)
    distinct = rng.uniform(size=(50, 2))
    cands = distinct[rng.integers(50, size=400)]
    got = _ei_argmax(model, cands)
    assert got == ei_argmax_dense(model, cands)
    ei = expected_improvement(model, cands)
    tied = np.flatnonzero(ei == ei[got])
    assert tied.size > 1 and got == tied[0]


def test_ei_argmax_solves_a_lone_survivor_beside_a_solved_candidate(
        monkeypatch):
    # 33 far copies of one point share the top bound; the first solve takes
    # 32 of them, so exactly one passes the bound afterwards.  Points on the
    # worst training value bound far lower.
    widths = solve_widths(monkeypatch)
    x, y = np.array([[0.0], [0.1], [0.2]]), np.array([0.0, 1.0, 2.0])
    model = GpModel.build(x, y, 1.0, [0.02], 1e-10)
    cands = np.vstack((np.full((5, 1), 0.2), np.full((33, 1), 1.0),
                       np.full((100, 1), 0.2)))
    assert _ei_argmax(model, cands) == 5
    assert widths == [EI_FIRST_SOLVE, 2]
    assert ei_argmax_dense(model, cands) == 5


def test_ei_argmax_with_every_ei_zero_returns_the_first_candidate(
        monkeypatch):
    # Training points far outside the unit cube and a tiny signal: every
    # candidate's EI underflows to 0.0, nothing can be skipped, and the
    # first candidate wins as in the dense argmax.
    widths = solve_widths(monkeypatch)
    x = np.array([[3.0, 3.0], [4.0, 3.0], [3.0, 4.0], [4.0, 4.0]])
    model = GpModel.build(x, np.array([0.0, 10.0, 10.0, 10.0]), 1e-6,
                          [0.1, 0.1], 1e-12)
    cands = candidate_set(model, np.random.default_rng(0))
    assert _ei_argmax(model, cands) == 0
    assert sum(widths) == len(cands)
    assert not np.any(expected_improvement(model, cands))
    assert ei_argmax_dense(model, cands) == 0


@given(n=st.integers(2, 40), d=st.integers(1, 5),
       seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_latin_hypercube_stratification(n, d, seed):
    sample = latin_hypercube(np.random.default_rng(seed), n, d)
    assert sample.shape == (n, d)
    for j in range(d):
        strata = np.floor(sample[:, j] * n).astype(int)
        assert sorted(strata) == list(range(n))


def test_search_space_normalization_round_trip():
    space = SearchSpace(
        continuous=(("A_J", 0.1, 0.6), ("t", 1.0, 20.0)),
        enumerated=(("pitch", (2.0, 3.0)),),
    )
    params = {"A_J": 0.35, "t": 10.5}
    np.testing.assert_allclose(space.normalize(params), [0.5, 0.5], rtol=1e-12)
    back = space.denormalize([0.5, 0.5])
    assert back["A_J"] == pytest.approx(0.35, rel=1e-12)
    assert len(space.combos()) == 2
    with pytest.raises(ValueError):
        SearchSpace(continuous=(), enumerated=(("pitch", (2.0,)),))
    with pytest.raises(ValueError):
        SearchSpace(continuous=(("x", 1.0, 1.0),))


def quadratic_objective(center):
    def objective(params):
        return 0.1 + (params["x"] - center[0]) ** 2 + (params["y"] - center[1]) ** 2
    return objective


def test_optimize_metric_finds_quadratic_minimum():
    space = SearchSpace(continuous=(("x", 0.0, 1.0), ("y", 0.0, 1.0)))
    result = optimize_metric(space, quadratic_objective((0.3, 0.7)),
                             budget=40, seed=1)
    assert result.new_evaluations == 40
    assert abs(result.best_params["x"] - 0.3) < 0.05
    assert abs(result.best_params["y"] - 0.7) < 0.05
    assert result.best_metric < 0.105


# Criterion 06's quadratic with budget 60 and seed 0: every entry's x0, x1,
# x2 and metric as hex floats.
QUADRATIC_HISTORY = """
    0x1.697974c8ecc39p-1 0x1.cbb5362f17080p-11 0x1.a5046faff527fp-3 0x1.50d9762a338d2p-1
    0x1.8741332a7975fp-2 0x1.38c67b15eb344p-2 0x1.b2c5e01c1b262p-1 0x1.72b587a054492p-1
    0x1.a3491802feb67p-4 0x1.ddda9c50f4d40p-1 0x1.59191338edb26p-1 0x1.3612d690e3a2cp+0
    0x1.44c94eeb783e4p-3 0x1.8ccf8d3f2fd55p-1 0x1.34c3612aa0275p-2 0x1.e58a5e4596278p-1
    0x1.56f193cfd1be9p-2 0x1.69428aed4d598p-1 0x1.1af282a8a7182p-1 0x1.803b530c3e30dp-1
    0x1.36b301dca8294p-1 0x1.1e643dbc4ce76p-1 0x1.dd05170f38665p-1 0x1.9bb337bf1a098p-1
    0x1.c5c222b5930f8p-1 0x1.7878613b63254p-3 0x1.568fdb91caa6cp-5 0x1.7d9f8bee76098p-1
    0x1.ba4b9d9605af1p-1 0x1.9c69bfa77b688p-2 0x1.8469d476c2fcbp-2 0x1.24bcb16188b46p-1
    0x1.ae7b86bc5f9a6p-1 0x1.d317f854e075ep-1 0x1.1af9456e464aep-1 0x1.d930bcc405620p-1
    0x1.ccf38c2da5c47p-1 0x1.a57d3b2761a24p-2 0x1.1965ee7753378p-2 0x1.3b7bffe3db998p-1
    0x1.905084389e27dp-1 0x1.1aa26b9310305p-1 0x1.59cc0c8982fb8p-2 0x1.30c365d70b53dp-1
    0x1.ff2b438c0eb9ap-1 0x1.7c96fb47390f8p-2 0x1.6cc5e5843c29ep-2 0x1.4ed7dff13a1bdp-1
    0x1.773b0b3e0737ep-1 0x1.bb6e43938699ap-2 0x1.9d0d886c4cf08p-2 0x1.0ef5ef5373f0cp-1
    0x1.042f96915fdadp-1 0x1.707ef1e851df0p-3 0x1.b9569faff5e24p-2 0x1.0f1b2972f832dp-1
    0x1.3a3d74173e8d3p-1 0x1.c2c89b3dbb4e0p-4 0x1.b7391ab7d0348p-2 0x1.148d34237dcd6p-1
    0x1.1b7ae45758d9fp-1 0x1.c35f573b271b8p-2 0x1.9b5bf9c51c5b0p-2 0x1.0bc2f68bdda88p-1
    0x1.d77eeb508d100p-6 0x1.c012ab975dd98p-2 0x1.dd6d9fd033116p-2 0x1.bba6bee0f8299p-1
    0x1.3dbc7370e8251p-1 0x1.97c148a685adcp-1 0x1.9f5144ed1ad70p-2 0x1.79bc848aeaa90p-1
    0x1.ff6fc7d3859ddp-1 0x1.07caddd7023f0p-4 0x1.ba30cc058c698p-2 0x1.686c2032af39ep-1
    0x1.ab1a72197942cp-3 0x1.7fe4620fbe2a0p-4 0x1.93a4e1c90e6d6p-2 0x1.6fb3c99adfb9bp-1
    0x1.20a1665a6d91dp-1 0x1.271c45aa5e78ep-2 0x1.3ef0024e2c2c0p-2 0x1.0a52e14068eb4p-1
    0x1.382fb17c71c40p-1 0x1.13a1423d19c9cp-2 0x1.afee2e2300034p-2 0x1.0113b19f90087p-1
    0x1.817a9fa8253a9p-1 0x1.11bbd7b2a9444p-2 0x1.3dd24a07ca6dfp-1 0x1.1ab3642f906f8p-1
    0x1.ec332775f6227p-1 0x1.4ce1cec9ac094p-2 0x1.fd85fc5c9c9bap-1 0x1.d991746ad7810p-1
    0x1.83e1b0b203814p-2 0x1.9aba0c4d15ea4p-2 0x1.0508263a6b450p-5 0x1.77531edbfa844p-1
    0x1.3c33f927ad30bp-1 0x1.33c0d26f0e5cap-2 0x1.bc2273931ff70p-2 0x1.0011a7b1953b3p-1
    0x1.3188722ef4852p-1 0x1.3d1788622b92ap-2 0x1.c851db24ed992p-2 0x1.004b0ce712ebfp-1
    0x1.41e33c9096d3cp-1 0x1.1f0b849e2d82cp-2 0x1.ca7e89f73a968p-2 0x1.00853df07091cp-1
    0x1.2bda8d9ea68fcp-1 0x1.57590cac91890p-2 0x1.e56d533166279p-2 0x1.0186812a1705ap-1
    0x1.3852e76d8020bp-1 0x1.34f7e5cca42a8p-2 0x1.d2995f1e98f28p-2 0x1.0036371af6974p-1
    0x1.708ad4f2cc680p-8 0x1.8ae3c6445d6c0p-5 0x1.b1b80fa2815eap-1 0x1.1c9a76049d79cp+0
    0x1.5faff78349f60p-6 0x1.5e1be9cfe16a8p-4 0x1.7f8e13746fc00p-8 0x1.18de17d623819p+0
    0x1.47e58f0df4d36p-1 0x1.5221091cf1406p-2 0x1.be06073e798bfp-2 0x1.006ebf995b049p-1
    0x1.455497c16fbf9p-1 0x1.4039a56077f72p-2 0x1.d18ff12d77141p-2 0x1.003c3b92b37fap-1
    0x1.41060c3080c50p-1 0x1.3d90434f5344dp-2 0x1.b1a431218d562p-2 0x1.002a33fc7c856p-1
    0x1.f9501405963d7p-1 0x1.f5de4c2aa9b5cp-1 0x1.e5a120bfaa757p-1 0x1.57a732d3322f8p+0
    0x1.431f567c46d16p-1 0x1.41517ed76cb98p-2 0x1.b9653a2833c2ep-2 0x1.001c86178beacp-1
    0x1.830ae4d2bb9a0p-6 0x1.efd9c6aebb4a4p-2 0x1.ff0006f729ab8p-1 0x1.328b45f0919dap+0
    0x1.aa4358620434ap-2 0x1.fd80e2011b409p-1 0x1.fef749639d569p-1 0x1.527e703cc7f58p+0
    0x1.f04a2073e7ac6p-1 0x1.f54f8de1cb7e5p-1 0x1.0f47a47746780p-8 0x1.427d10777c209p+0
    0x1.2a07c98be5759p-1 0x1.e69f732a91b00p-8 0x1.f2f56cbb638cap-1 0x1.c1e6365150910p-1
    0x1.ec480dc5ccce0p-3 0x1.eee1e2953d5fap-1 0x1.8516eb9bf0f00p-9 0x1.442551f4fed96p+0
    0x1.f98ba716f4e12p-1 0x1.3cbfce2314950p-5 0x1.e1ce21eef27edp-1 0x1.eb5441e6782c4p-1
    0x1.4c5e753a756c0p-7 0x1.3e2c3833a6de4p-1 0x1.148b917d8d000p-8 0x1.28a8604869c12p+0
    0x1.8042166a0d157p-1 0x1.ba9767095eb02p-2 0x1.13ce0fd8b4880p-8 0x1.719aa2ee3ae6ap-1
    0x1.b53f9ea498e18p-2 0x1.0bd0a7132d560p-5 0x1.360608754ad40p-7 0x1.9959a567097cap-1
    0x1.0d1bad73151a0p-6 0x1.f391b8014e4d1p-1 0x1.ff003d0685bbep-1 0x1.9e709a1628f3bp+0
    0x1.da8e4955e5718p-2 0x1.9508f8ed40b2ap-2 0x1.4c8a94be07581p-1 0x1.26c496d0ca4b9p-1
    0x1.9d76198870980p-2 0x1.54813cf23a158p-3 0x1.bb943b67de652p-2 0x1.228a64b358cd3p-1
    0x1.4bcf16e66f172p-1 0x1.81cec136a4da4p-3 0x1.d42b99d272246p-2 0x1.0820a8000438dp-1
    0x1.f1d2286fdc060p-3 0x1.5b49930cd1294p-2 0x1.cbd20e30d6254p-2 0x1.4937a36b15be7p-1
    0x1.2143e53f5eb68p-2 0x1.4e68a8a70942ep-1 0x1.185513c6296f9p-1 0x1.7c87dbbad29c0p-1
    0x1.08fa93a6bf96ap-1 0x1.069d2b069d86ap-2 0x1.5afc1e4514393p-1 0x1.23c5dbd642f98p-1
    0x1.be43e59dd16afp-1 0x1.9f13bd17eecbcp-1 0x1.fff64b7ac32bdp-1 0x1.20a561795638cp+0
    0x1.4c04b28edde1fp-1 0x1.215fc0afa774cp-2 0x1.888e3838919aap-2 0x1.02714a8191126p-1
    0x1.3e7d1561660acp-2 0x1.af7ebd3e37df5p-1 0x1.71befd3b385edp-1 0x1.eaf747acacc52p-1
    0x1.374ccd7b5ed4dp-1 0x1.8897eac19cd2cp-1 0x1.94f7937f547dap-1 0x1.a9f6f7206afbcp-1
    0x1.b7f055acdafc4p-2 0x1.609db330b7fa6p-2 0x1.db552e5c9a000p-2 0x1.1375a37f09a13p-1
    0x1.0f974a51e9e64p-2 0x1.93ee4bf761bb0p-4 0x1.95c9e4b4b71d8p-2 0x1.584ca4a7b97dfp-1
    0x1.c572d13966658p-2 0x1.85a535c4e1f27p-1 0x1.fd97f1e98a581p-1 0x1.0b0d83455a074p+0
"""


def test_optimize_metric_quadratic_history_pinned():
    result = optimize_metric(TARGET_SPACE, target_quadratic, budget=60,
                             seed=0)
    names = [name for name, *_ in TARGET_SPACE.continuous]
    got = [[h.params[n].hex() for n in names] + [h.metric.hex()]
           for h in result.history]
    want = [line.split() for line in QUADRATIC_HISTORY.strip().splitlines()]
    assert got == want


def test_optimize_metric_is_deterministic():
    space = SearchSpace(continuous=(("x", 0.0, 1.0), ("y", 0.0, 1.0)))
    a = optimize_metric(space, quadratic_objective((0.4, 0.2)), budget=25,
                        seed=7)
    b = optimize_metric(space, quadratic_objective((0.4, 0.2)), budget=25,
                        seed=7)
    assert [h.metric for h in a.history] == [h.metric for h in b.history]
    assert a.best_params == b.best_params


def test_optimize_metric_budget_counts_warm_start():
    space = SearchSpace(continuous=(("x", 0.0, 1.0),))
    warm = [({"x": 0.2}, 5.0), ({"x": 0.8}, 3.0), ({"x": 0.5}, 7.0)]
    result = optimize_metric(space, lambda p: 1.0, budget=3, seed=0,
                             warm_start=warm)
    assert result.new_evaluations == 0
    assert result.best_metric == 3.0
    assert result.best_params == {"x": 0.8}
    assert all(h.iteration == -1 for h in result.history)


def test_optimize_metric_enforces_per_combo_minimum():
    space = SearchSpace(
        continuous=(("x", 0.0, 1.0),),
        enumerated=(("mode", (0.0, 1.0)),),
    )
    with pytest.raises(ValueError):
        optimize_metric(space, lambda p: 1.0,
                        budget=2 * MIN_EVALS_PER_COMBO - 1, seed=0)


def test_optimize_metric_covers_every_combo():
    space = SearchSpace(
        continuous=(("x", 0.0, 1.0),),
        enumerated=(("mode", (0.0, 1.0)),),
    )

    def objective(params):
        shift = 0.25 if params["mode"] == 0.0 else 0.75
        return 0.5 + (params["x"] - shift) ** 2

    result = optimize_metric(space, objective, budget=30, seed=3)
    assert {h.combo_id for h in result.history} == {0, 1}
    per_combo = {}
    for h in result.history:
        best = per_combo.get(h.params["mode"])
        if best is None or h.metric < best.metric:
            per_combo[h.params["mode"]] = h
    assert abs(per_combo[0.0].params["x"] - 0.25) < 0.15
    assert abs(per_combo[1.0].params["x"] - 0.75) < 0.15


def test_optimize_metric_records_failures_with_sentinel():
    space = SearchSpace(continuous=(("x", 0.0, 1.0),))

    def fragile(params):
        if params["x"] > 0.5:
            raise RuntimeError("region failure")
        return 1.0 + params["x"]

    result = optimize_metric(space, fragile, budget=15, seed=2)
    flagged = [h for h in result.history if h.flagged]
    clean = [h for h in result.history if not h.flagged]
    assert flagged and clean
    worst_clean = max(h.metric for h in clean)
    assert all(h.metric >= worst_clean for h in flagged)
    assert result.best_metric <= 1.5


def test_optimize_metric_rejects_nonpositive_objective_values():
    space = SearchSpace(continuous=(("x", 0.0, 1.0),))
    result = optimize_metric(space, lambda p: -2.0, budget=12, seed=0)
    # Every evaluation is unusable for the log-space GP; all are flagged.
    assert all(h.flagged for h in result.history)


def test_history_entry_incumbent_tracking():
    space = SearchSpace(continuous=(("x", 0.0, 1.0),))
    result = optimize_metric(space, lambda p: 1.0 + (p["x"] - 0.5) ** 2,
                             budget=20, seed=11)
    best_so_far = math.inf
    for entry in result.history:
        assert isinstance(entry, HistoryEntry)
        if entry.metric < best_so_far:
            assert entry.is_incumbent
            best_so_far = entry.metric


def test_search_space_rejects_duplicate_enumerated_values():
    # Each enumerated combination must be distinct, so that a warm-start row
    # maps to exactly one of them.
    with pytest.raises(ValueError):
        SearchSpace(continuous=(("x", 0.0, 1.0),),
                    enumerated=(("pitch", (2.0, 3.0, 2.0)),))


def test_warm_start_grouped_by_combination():
    space = SearchSpace(
        continuous=(("x", 0.0, 1.0),),
        enumerated=(("mode", (0.0, 1.0)),),
    )
    warm = [
        ({"x": 0.1, "mode": 1.0}, 4.0),
        ({"x": 0.2, "mode": 0.0}, 3.0),
        ({"x": 0.3, "mode": 2.0}, 0.5),  # matches no combination
        ({"x": 0.4, "mode": 1.0}, 2.0),
        ({"x": 0.5, "mode": 0.0}, 5.0),
        ({"x": 0.6, "mode": 0.0}, 1.0),
        ({"x": 0.7, "mode": 1.0}, 6.0),
    ]
    result = optimize_metric(space, lambda p: 1.0, budget=6, seed=0,
                             warm_start=warm)
    assert result.new_evaluations == 0
    # Combination 0's incumbents, then combination 1's, each in input
    # order; 0.5 (5.0 after 3.0) and 0.7 (6.0 after 2.0) are left out.
    assert [(h.combo_id, h.params["x"]) for h in result.history] == [
        (0, 0.2), (0, 0.6), (1, 0.1), (1, 0.4)]
    assert all(h.is_incumbent for h in result.history)
    assert all(h.iteration == -1 for h in result.history)
    # The unmatched row (the lowest metric) is dropped.
    assert result.best_metric == 1.0
    assert result.best_params == {"x": 0.6, "mode": 0.0}


def test_failure_sentinel_does_not_compound():
    # A failure is recorded at ten times the worst usable value, never at
    # ten times an earlier sentinel, so a run of failures stays finite.
    space = SearchSpace(continuous=(("x", 0.0, 1.0),))

    def broken(params):
        raise RuntimeError("simulation failed")

    warm = [({"x": 0.1}, 1e300), ({"x": 0.9}, 1.0)]
    result = optimize_metric(space, broken, budget=14, seed=0,
                             warm_start=warm)
    new = [h for h in result.history if h.iteration >= 0]
    assert result.new_evaluations == len(new) == 12
    assert all(h.flagged and h.metric == 10.0 * 1e300 for h in new)
    assert result.best_metric == 1.0

    # Without any usable value the sentinel is 1e31 throughout.
    cold = optimize_metric(space, broken, budget=12, seed=0)
    assert all(h.flagged and h.metric == 1e31 for h in cold.history)


def test_dropped_warm_rows_use_up_no_budget():
    # Ten kept rows plus one whose mode matches no combination: a budget of
    # 11 leaves exactly one new evaluation.
    space = SearchSpace(
        continuous=(("x", 0.0, 1.0),),
        enumerated=(("mode", (0.0,)),),
    )
    warm = [({"x": i / 10.0, "mode": 0.0}, 1.0 + i) for i in range(10)]
    warm.append(({"x": 0.95, "mode": 2.0}, 0.5))
    result = optimize_metric(space, lambda p: 1.0, budget=11, seed=0,
                             warm_start=warm)
    assert result.new_evaluations == 1
    # The rows rise, so the first is the only warm incumbent, and the new
    # evaluation ties it.
    assert [(h.iteration, h.is_incumbent) for h in result.history] == [
        (-1, True), (0, False)]
    assert result.history[0].params == {"x": 0.0, "mode": 0.0}
    assert all(h.params["mode"] == 0.0 for h in result.history)


def test_a_warm_start_that_meets_the_budget_normalizes_nothing(
        monkeypatch):
    calls = []
    normalize = SearchSpace.normalize

    def spy(space, params):
        calls.append(params)
        return normalize(space, params)

    monkeypatch.setattr(SearchSpace, "normalize", spy)
    space = SearchSpace(continuous=(("x", 0.0, 1.0),))
    warm = [({"x": i / 10.0}, 1.0 + i) for i in range(10)]
    warm.append(({"x": 0.95}, math.nan))
    result = optimize_metric(space, lambda p: 1.0, budget=11, seed=0,
                             warm_start=warm)
    assert result.new_evaluations == 0 and calls == []
    # With one evaluation to make, every usable row enters the GP data.
    result = optimize_metric(space, lambda p: 1.0, budget=12, seed=0,
                             warm_start=warm)
    assert result.new_evaluations == 1 and calls == [p for p, _ in warm[:10]]


def test_incumbents_and_bests_match_their_brute_force_definition():
    # Warm rows that are NaN, infinite or non-positive are flagged and left
    # out of the GP data but still compared; ties test first-minimum
    # tie-breaking.  Failing new evaluations enter the data as sentinels.
    space = SearchSpace(
        continuous=(("x", 0.0, 1.0),),
        enumerated=(("mode", (0.0, 1.0)),),
    )
    values = [math.nan, 3.0, math.inf, 2.0, -1.0, 2.0, 0.0, -math.inf,
              4.0, 2.0, -1.0, 5.0]
    warm = [({"x": i / 24.0, "mode": float(i % 2)}, v)
            for i, v in enumerate(values)]

    def objective(params):
        if params["x"] > 0.7:
            raise RuntimeError("region failure")
        return 1.5 + params["x"]

    budget = len(warm) + 2 * MIN_EVALS_PER_COMBO
    result = optimize_metric(space, objective, budget=budget, seed=4,
                             warm_start=warm)
    assert result.new_evaluations == 2 * MIN_EVALS_PER_COMBO
    assert any(h.flagged and h.iteration >= 0 for h in result.history)

    for ci in (0, 1):
        rows = [h for h in result.history if h.combo_id == ci]
        for i, h in enumerate(rows):
            ys = [r.metric for r in rows[:i] if r.iteration >= 0
                  or (math.isfinite(r.metric) and r.metric > 0)]
            assert h.is_incumbent == (not ys or h.metric < min(ys)), (ci, i)
    finite = [h for h in result.history if math.isfinite(h.metric)]
    best = min(finite, key=lambda h: h.metric)
    assert (result.best_params, result.best_metric, result.best_combo_id) == (
        best.params, best.metric, best.combo_id)
    assert result.best_metric == -1.0 and result.best_params["x"] == 4 / 24.0


def full_history_oracle(space, warm, calls):
    """optimize_metric's history with every matched warm row kept, built
    from the warm rows and the objective's (params, value) calls in order.

    Entries are (combo_id, iteration, params, metric hex, is_incumbent,
    flagged).  Each combination's warm rows come first, combination by
    combination, then the new evaluations; a row is its combination's
    incumbent when no usable value precedes it or it is below all of them.
    """
    names = [n for n, _ in space.enumerated]
    combo_of = {tuple(c[n] for n in names): ci
                for ci, c in enumerate(space.combos())}
    usable_before = [[] for _ in combo_of]
    history = []

    def record(ci, iteration, params, value, usable):
        ys = usable_before[ci]
        history.append((ci, iteration, params, float(value).hex(),
                        not ys or value < min(ys), not usable))
        if usable:
            ys.append(value)

    for ci in range(len(combo_of)):
        for params, value in warm:
            if combo_of.get(tuple(params[n] for n in names)) == ci:
                record(ci, -1, params, value,
                       math.isfinite(value) and value > 0)
    used = [0] * len(combo_of)
    for params, value in calls:
        ci = combo_of[tuple(params[n] for n in names)]
        record(ci, used[ci], params, value, True)
        used[ci] += 1
    return history


WARM_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 2.0]),
    st.floats(0.5, 4.0),
)


@given(
    warm=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 2.0]),
                            WARM_VALUES), max_size=30),
    extra=st.one_of(st.integers(-3, 0), st.integers(1, 3)),
)
@settings(max_examples=30, deadline=None)
def test_history_keeps_the_warm_incumbents_of_the_full_history(warm, extra):
    # Mode 2.0 matches no combination.  A budget at or below the kept
    # rows makes no new evaluation; above them it makes at least one, and
    # never fewer than the per-combination minimum in all.
    space = SearchSpace(
        continuous=(("x", 0.0, 1.0),),
        enumerated=(("mode", (0.0, 1.0)),),
    )
    warm = [({"x": x, "mode": mode}, value) for x, mode, value in warm]
    kept = sum(1 for params, _ in warm if params["mode"] != 2.0)
    budget = max(kept + extra, 0)
    if extra > 0:
        budget = max(budget, 2 * MIN_EVALS_PER_COMBO)
    calls = []

    def objective(params):
        value = 1.5 + (params["x"] - 0.25 - 0.5 * params["mode"]) ** 2
        calls.append((dict(params), value))
        return value

    if budget <= kept and not any(math.isfinite(value) for params, value
                                  in warm if params["mode"] != 2.0):
        with pytest.raises(RuntimeError, match="no finite metric"):
            optimize_metric(space, objective, budget=budget, seed=0,
                            warm_start=warm)
        return
    result = optimize_metric(space, objective, budget=budget, seed=0,
                             warm_start=warm)

    full = full_history_oracle(space, warm, calls)
    # min keeps the first of equal minima.
    best = min((h for h in full if math.isfinite(float.fromhex(h[3]))),
               key=lambda h: float.fromhex(h[3]))
    assert result.new_evaluations == len(calls) == max(budget - kept, 0)
    assert (result.best_params, result.best_metric.hex(),
            result.best_combo_id) == (best[2], best[3], best[0])
    assert [(h.combo_id, h.iteration, h.params, h.metric.hex(),
             h.is_incumbent, h.flagged) for h in result.history] == [
        h for h in full if h[1] >= 0 or h[4]]
