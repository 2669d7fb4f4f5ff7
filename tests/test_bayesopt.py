"""GP surrogate, acquisition, and the enumerate-then-optimize driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from oracles import (
    expected_improvement_quad,
    gp_posterior_dense,
    log_marginal_likelihood_dense,
    sq_exp_kernel_loops,
)
from twpaopt.bayesopt import (
    LENGTH_SCALE_BOUNDS,
    GpModel,
    HistoryEntry,
    MIN_EVALS_PER_COMBO,
    SearchSpace,
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
    assert np.array_equal(got, kernel_broadcast(xa, xb, 1.7, lengths))


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
    assert len(result.combo_bests) == 2
    per_combo = {b["combo"]["mode"]: b["params"]["x"]
                 for b in result.combo_bests}
    assert abs(per_combo[0.0] - 0.25) < 0.15
    assert abs(per_combo[1.0] - 0.75) < 0.15


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
    # Combination 0's rows, then combination 1's, each in input order.
    assert [(h.combo_id, h.params["x"]) for h in result.history] == [
        (0, 0.2), (0, 0.5), (0, 0.6), (1, 0.1), (1, 0.4), (1, 0.7)]
    assert [h.is_incumbent for h in result.history] == [
        True, False, True, True, True, False]
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
    assert [h.iteration for h in result.history] == [-1] * 10 + [0]
