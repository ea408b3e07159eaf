"""Componentwise boosting, deselection, and the least-squares baseline."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spboost.boosting import (
    BoostConfig,
    BoostFit,
    DeselectionResult,
    boost,
    deselect,
    fgls_baseline,
)
from spboost.errors import NoLearnerError, RankError, ValidationError
from spboost.panel import Effects
from spboost.transform import TransformedData


def make_td(y, z, names=None):
    z = np.asarray(z, dtype=float)
    if names is None:
        names = tuple("c%d" % j for j in range(z.shape[1]))
    return TransformedData(
        response=np.asarray(y, dtype=float),
        design=z,
        names=names,
        effects=Effects.RANDOM,
        fingerprint="test",
    )


def random_td(n, k, seed, signal_cols=None, noise=1.0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, k))
    beta = np.zeros(k)
    for j in signal_cols or range(k):
        beta[j] = rng.normal(0.0, 2.0)
    y = z @ beta + noise * rng.normal(size=n)
    return make_td(y, z)


def replay(fit: BoostFit) -> np.ndarray:
    coef = np.zeros(len(fit.names))
    np.add.at(coef, fit.selection_path, fit.increments)
    return coef


# ---------------------------------------------------------------------------
# Config validation


def test_config_validation():
    with pytest.raises(ValidationError):
        BoostConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        BoostConfig(learning_rate=1.5)
    with pytest.raises(ValidationError):
        BoostConfig(m_stop=0)
    BoostConfig(learning_rate=1.0, m_stop=1)


# ---------------------------------------------------------------------------
# Selection behavior


def test_first_iteration_picks_max_squared_correlation(rng):
    td = random_td(30, 6, seed=1)
    fit = boost(td, BoostConfig(m_stop=1))
    scores = (td.design.T @ td.response) ** 2 / np.einsum(
        "ij,ij->j", td.design, td.design
    )
    assert fit.selection_path[0] == int(np.argmax(scores))
    assert np.count_nonzero(fit.coefficients) == 1


def test_single_column_geometric_convergence():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(25, 3))
    slope = 1.7
    y = slope * z[:, 1]
    td = make_td(y, z)
    s, m = 0.1, 40
    fit = boost(td, BoostConfig(learning_rate=s, m_stop=m))
    assert np.all(fit.selection_path == 1)
    expected = slope * (1.0 - (1.0 - s) ** m)
    assert abs(fit.coefficients[1] - expected) <= 1e-10
    assert fit.coefficients[0] == 0.0 and fit.coefficients[2] == 0.0


def test_path_matches_brute_force_enumeration():
    # Re-derive every iteration by explicit per-column least squares.
    rng = np.random.default_rng(11)
    n, k, m, s = 8, 3, 5, 0.1
    z = rng.normal(size=(n, k))
    y = rng.normal(size=n)
    td = make_td(y, z)
    fit = boost(td, BoostConfig(learning_rate=s, m_stop=m))

    resid = y.copy()
    coef = np.zeros(k)
    for it in range(m):
        best_j, best_rss, best_delta = -1, np.inf, 0.0
        for j in range(k):
            delta = (z[:, j] @ resid) / (z[:, j] @ z[:, j])
            rss = float(np.sum((resid - delta * z[:, j]) ** 2))
            if rss < best_rss - 1e-15:
                best_j, best_rss, best_delta = j, rss, delta
        step = s * best_delta
        coef[best_j] += step
        resid = resid - step * z[:, best_j]
        assert fit.selection_path[it] == best_j
        assert abs(fit.increments[it] - step) <= 1e-12
    assert np.allclose(fit.coefficients, coef, atol=1e-12)


def test_greedy_choice_beats_every_alternative():
    # At each iteration the chosen column's post-step RSS is minimal among
    # all candidates (exhaustive check on a 10-column instance).
    rng = np.random.default_rng(21)
    n, k, s = 40, 10, 0.1
    z = rng.normal(size=(n, k))
    y = rng.normal(size=n)
    td = make_td(y, z)
    fit = boost(td, BoostConfig(learning_rate=s, m_stop=25))
    resid = y.copy()
    for it in range(fit.m_used):
        rss = np.empty(k)
        for j in range(k):
            delta = (z[:, j] @ resid) / (z[:, j] @ z[:, j])
            rss[j] = np.sum((resid - s * delta * z[:, j]) ** 2)
        j_star = fit.selection_path[it]
        assert rss[j_star] <= rss.min() + 1e-10
        resid = resid - fit.increments[it] * z[:, j_star]


def test_exact_tie_goes_to_lower_index():
    rng = np.random.default_rng(5)
    col = rng.normal(size=20)
    z = np.column_stack([rng.normal(size=20), col, col.copy()])
    y = col + 0.1 * rng.normal(size=20)
    td = make_td(y, z)
    fit = boost(td, BoostConfig(m_stop=10))
    assert not np.any(fit.selection_path == 2)
    assert np.all(np.isin(fit.selection_path, [0, 1]))


def test_zero_norm_column_excluded_with_warning():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(15, 3))
    z[:, 1] = 0.0
    y = rng.normal(size=15)
    td = make_td(y, z)
    with pytest.warns(UserWarning, match="identically zero"):
        fit = boost(td, BoostConfig(m_stop=20))
    assert not np.any(fit.selection_path == 1)
    assert fit.coefficients[1] == 0.0
    assert fit.excluded == ("c1",)


def test_all_zero_columns_raise_no_learner():
    td = make_td(np.ones(8), np.zeros((8, 2)))
    with pytest.raises(NoLearnerError):
        boost(td, BoostConfig(m_stop=5))


def test_active_columns_restrict_selection():
    td = random_td(30, 5, seed=8)
    fit = boost(td, BoostConfig(m_stop=30), active_columns=("c1", "c3"))
    assert set(np.unique(fit.selection_path)) <= {1, 3}
    assert all(fit.coefficients[j] == 0.0 for j in (0, 2, 4))
    with pytest.raises(ValidationError):
        boost(td, BoostConfig(m_stop=5), active_columns=("nope",))


def test_zero_iterations_produce_zero_model():
    td = random_td(20, 3, seed=9)
    fit = boost(td, BoostConfig(m_stop=10), n_iterations=0)
    assert fit.m_used == 0
    assert np.all(fit.coefficients == 0.0)
    assert fit.risk_path.shape == (1,)
    assert fit.risk_path[0] == pytest.approx(np.mean(td.response**2))


# ---------------------------------------------------------------------------
# Path invariants


def test_risk_path_is_monotone_over_many_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        k = int(rng.integers(1, 8))
        z = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        fit = boost(make_td(y, z), BoostConfig(learning_rate=0.1, m_stop=30))
        assert np.all(np.diff(fit.risk_path) <= 1e-12)


def test_replaying_path_reproduces_coefficients():
    td = random_td(40, 7, seed=13)
    fit = boost(td, BoostConfig(m_stop=200))
    assert np.allclose(replay(fit), fit.coefficients, atol=1e-12)
    untouched = np.setdiff1d(np.arange(7), np.unique(fit.selection_path))
    assert np.all(fit.coefficients[untouched] == 0.0)


def test_selection_is_scale_equivariant():
    td = random_td(30, 5, seed=17)
    fit = boost(td, BoostConfig(m_stop=50))
    scaled = td.design.copy()
    scaled[:, 2] *= 7.0
    fit_scaled = boost(make_td(td.response, scaled, td.names), BoostConfig(m_stop=50))
    assert np.array_equal(fit.selection_path, fit_scaled.selection_path)
    assert fit_scaled.coefficients[2] == pytest.approx(fit.coefficients[2] / 7.0)


def test_boosting_converges_to_least_squares():
    td = random_td(60, 4, seed=19)
    target = fgls_baseline(td)
    fit = boost(td, BoostConfig(learning_rate=0.1, m_stop=3000))
    coef = np.zeros(4)
    dist = []
    for j, step in zip(fit.selection_path, fit.increments):
        coef[j] += step
        dist.append(np.linalg.norm(coef - target))
    dist = np.asarray(dist)
    assert np.all(np.diff(dist[4:]) <= 1e-12)
    assert dist[-1] < 1e-3


# ---------------------------------------------------------------------------
# Deselection


def test_attribution_partitions_total_reduction():
    td = random_td(50, 8, seed=23, signal_cols=(0, 3), noise=0.5)
    cfg = BoostConfig(m_stop=150)
    fit = boost(td, cfg)
    result = deselect(td, cfg, fit, threshold=0.01)
    total = fit.risk_path[0] - fit.risk_path[-1]
    assert abs(result.attributable.sum() - total) <= 1e-10
    assert result.total_reduction == pytest.approx(total)


def exact_attribution(td, fit):
    """Each column's risk reduction along the fit's own path, in exact arithmetic.

    The path and the float increments are replayed on ``Fraction`` copies of
    the data, so the only error left is that of the kernel's float risks.
    """
    columns = [[Fraction(v) for v in col] for col in td.design.T.tolist()]
    resid = [Fraction(v) for v in td.response.tolist()]
    n = len(resid)
    risk = sum(v * v for v in resid) / n
    out = [Fraction(0)] * td.n_columns
    for j, step in zip(fit.selection_path.tolist(), fit.increments.tolist()):
        step = Fraction(step)
        resid = [r - step * c for r, c in zip(resid, columns[j])]
        after = sum(v * v for v in resid) / n
        out[j] += risk - after
        risk = after
    return out


@pytest.mark.parametrize("offset", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attribution_matches_exact_replay(seed, offset):
    # The offset column dominates the total reduction, so the minor column's
    # share (down to about 5e-11) comes from differences of nearly equal risks.
    rng = np.random.default_rng(seed)
    n = 40
    z = np.column_stack([1.0 + 0.1 * rng.normal(size=n), rng.normal(size=(n, 2))])
    td = make_td(offset * z[:, 0] + 0.5 * z[:, 1] + 0.1 * z[:, 2], z)
    cfg = BoostConfig(m_stop=300)
    fit = boost(td, cfg)
    result = deselect(td, cfg, fit, threshold=0.01)
    exact = exact_attribution(td, fit)
    total = sum(exact)
    assert abs(Fraction(result.total_reduction) - total) <= 1e-12 * total
    for got, want in zip(result.attributable.tolist(), exact):
        assert abs(Fraction(got) - want) <= 1e-10 * abs(want)
    assert result.retained == tuple(
        name for name, want in zip(td.names, exact) if want >= Fraction(0.01) * total
    )


def test_single_contributor_is_retained():
    rng = np.random.default_rng(29)
    z = rng.normal(size=(30, 3))
    y = 2.0 * z[:, 0]
    td = make_td(y, z)
    cfg = BoostConfig(m_stop=60)
    fit = boost(td, cfg)
    result = deselect(td, cfg, fit, threshold=0.5)
    assert result.retained == ("c0",)
    assert result.refit is not None
    assert result.refit.m_used == fit.m_used


def test_threshold_arithmetic_drops_minor_contributor():
    # Orthogonal columns with very different contributions: the minor one's
    # share of the risk reduction falls below the threshold.
    n = 64
    z = np.zeros((n, 2))
    z[: n // 2, 0] = 1.0
    z[n // 2 :, 1] = 1.0
    y = 10.0 * z[:, 0] + 0.1 * z[:, 1]
    td = make_td(y, z)
    cfg = BoostConfig(m_stop=400)
    fit = boost(td, cfg)
    result = deselect(td, cfg, fit, threshold=0.02)
    share = result.attributable / result.total_reduction
    assert share[0] > 0.98 and share[1] < 0.02
    assert result.retained == ("c0",)


def test_refit_restricts_to_retained_columns():
    td = random_td(80, 10, seed=31, signal_cols=(1, 4), noise=0.3)
    cfg = BoostConfig(m_stop=300)
    fit = boost(td, cfg)
    result = deselect(td, cfg, fit, threshold=0.01)
    assert "c1" in result.retained and "c4" in result.retained
    refit = result.refit
    kept = {i for i, s in enumerate(td.names) if s in result.retained}
    assert set(np.unique(refit.selection_path)) <= kept
    outside = [i for i in range(10) if i not in kept]
    assert np.all(refit.coefficients[outside] == 0.0)


def test_zero_reduction_yields_empty_model_with_warning():
    td = make_td(np.zeros(12), np.random.default_rng(2).normal(size=(12, 3)))
    cfg = BoostConfig(m_stop=10)
    fit = boost(td, cfg)
    with pytest.warns(UserWarning, match="no risk reduction"):
        result = deselect(td, cfg, fit, threshold=0.01)
    assert result.retained == ()
    assert result.refit is None


def test_every_column_below_threshold_warns():
    # Two equal contributors, threshold above one half: nothing survives.
    rng = np.random.default_rng(37)
    q, _ = np.linalg.qr(rng.normal(size=(40, 2)))
    y = q[:, 0] + q[:, 1]
    td = make_td(y, q)
    cfg = BoostConfig(m_stop=200)
    fit = boost(td, cfg)
    with pytest.warns(UserWarning, match="below the deselection threshold"):
        result = deselect(td, cfg, fit, threshold=0.9)
    assert result.retained == ()
    assert result.refit is None


def test_deselect_validates_inputs():
    td = random_td(20, 3, seed=41)
    cfg = BoostConfig(m_stop=10)
    fit = boost(td, cfg)
    with pytest.raises(ValidationError):
        deselect(td, cfg, fit, threshold=0.0)
    with pytest.raises(ValidationError):
        deselect(td, cfg, fit, threshold=1.0)
    other = random_td(20, 4, seed=42)
    with pytest.raises(ValidationError):
        deselect(other, cfg, fit, threshold=0.01)


# ---------------------------------------------------------------------------
# Least-squares baseline


def test_fgls_recovers_noiseless_coefficients():
    rng = np.random.default_rng(43)
    z = rng.normal(size=(50, 6))
    delta = rng.normal(size=6)
    td = make_td(z @ delta, z)
    assert np.allclose(fgls_baseline(td), delta, atol=1e-10)


def test_fgls_matches_normal_equation_oracle():
    td = random_td(45, 5, seed=47)
    z, y = td.design, td.response
    oracle = np.linalg.solve(z.T @ z, z.T @ y)
    assert np.allclose(fgls_baseline(td), oracle, atol=1e-10)


def test_fgls_unavailable_when_overparameterized():
    rng = np.random.default_rng(53)
    td = make_td(rng.normal(size=10), rng.normal(size=(10, 12)))
    with pytest.raises(RankError):
        fgls_baseline(td)


def test_fgls_unavailable_when_rank_deficient():
    rng = np.random.default_rng(59)
    z = rng.normal(size=(20, 4))
    z[:, 3] = z[:, 0] + z[:, 1]
    td = make_td(rng.normal(size=20), z)
    with pytest.raises(RankError):
        fgls_baseline(td)


def test_boost_peak_memory_stays_near_the_gram_columns():
    # boost() passes its training rows as the held-out pair, so a cached
    # copy of each selected column's held-out values would cost n values a
    # column, up to a second copy of the design; the kernel keeps k values
    # (its Gram column) per distinct selected column, a copy of the
    # response and a few k- and n-length buffers, plus its paths (24 bytes
    # an iteration).
    n, k, m_stop = 4000, 120, 1000
    td = random_td(n, k, seed=9)
    tracemalloc.start()
    try:
        fit = boost(td, BoostConfig(m_stop=m_stop))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    distinct = len(np.unique(fit.selection_path))
    assert distinct > 80
    assert peak < (distinct + 32) * k * 8 + 4 * n * 8 + 64 * m_stop
