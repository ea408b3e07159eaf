"""Whitened response and design, and the loss identity behind them."""

import tracemalloc

import numpy as np
import pytest

from spboost.errors import FixedEffectsInfeasibleError, ValidationError
from spboost.gmm import VarianceComponents
from spboost.linalg import (
    WhitenerMode,
    WhiteningOperator,
    fixed_effects_whitener,
    random_effects_whitener,
)
from spboost.panel import Effects, ModelSpec, augment_design
from spboost.transform import (
    TransformedData,
    operator_fingerprint,
    transform_fixed,
    transform_random,
)
from spboost.weights import SpatialWeights

from conftest import (
    dense_fixed_transform,
    dense_omega_inv,
    dense_symmetric_sqrt,
    make_panel,
    make_weights,
)


def build_random(n, t, p, rho1, rho2, s_mu, s_eps, seed=0):
    data = make_panel(n, t, p, seed=seed)
    w, _ = make_weights(n, seed=seed, k=min(2, n - 1))
    design = augment_design(data, w, ModelSpec())
    comp = VarianceComponents(rho2=rho2, sigma_eps2=s_eps, rho1=rho1, sigma_mu2=s_mu)
    op = random_effects_whitener(comp, w, t)
    return data, w, design, op


# ---------------------------------------------------------------------------
# Random-effects transform


def test_identity_operator_leaves_data_unchanged():
    data, _, design, op = build_random(4, 3, 2, 0.0, 0.0, 0.0, 1.0)
    star = transform_random(data, design, op)
    assert np.allclose(star.response, data.response, atol=1e-10)
    assert np.allclose(star.design, design.columns, atol=1e-10)
    assert star.names == design.names
    assert star.effects is Effects.RANDOM


def test_scalar_operator_halves_data():
    data, _, design, op = build_random(4, 3, 2, 0.0, 0.0, 0.0, 4.0)
    star = transform_random(data, design, op)
    assert np.allclose(star.response, 0.5 * data.response, atol=1e-10)
    assert np.allclose(star.design, 0.5 * design.columns, atol=1e-10)


def test_random_transform_matches_dense_multiplication():
    rho1, rho2, s_mu, s_eps = 0.3, -0.2, 2.0, 1.0
    data, w, design, op = build_random(4, 3, 2, rho1, rho2, s_mu, s_eps, seed=5)
    star = transform_random(data, design, op)
    root = dense_symmetric_sqrt(dense_omega_inv(w, 3, rho1, rho2, s_mu, s_eps))
    assert np.allclose(star.response, root @ data.response, atol=1e-8)
    assert np.allclose(star.design, root @ design.columns, atol=1e-8)


def _traced_peak(build):
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_design_and_whitened_design_are_kept_without_a_second_copy():
    # augment_design and transform_random hand their records the arrays
    # they built, and the whitener works through one-period temporaries, so
    # neither holds two copies of the design at its peak.  Copying each
    # record's array, and whitening through a whole-panel temporary,
    # peaked at 2.0 and 2.2 designs here, against 1.0 and 1.4 now.
    n, t, p = 60, 5, 80
    data = make_panel(n, t, p, seed=3)
    w, _ = make_weights(n, seed=3, k=4)
    comp = VarianceComponents(rho2=-0.2, sigma_eps2=1.0, rho1=0.3, sigma_mu2=2.0)
    op = random_effects_whitener(comp, w, t)
    spec = ModelSpec(include_spatial_lags=False)
    design, built = _traced_peak(lambda: augment_design(data, w, spec))
    star, whitened = _traced_peak(lambda: transform_random(data, design, op))
    size = design.columns.nbytes
    assert star.design.shape == (n * t, p + 1)
    assert built < 1.5 * size and whitened < 1.75 * size


def test_random_transform_loss_equivalence(rng):
    # (y - Z d)' Omega^{-1} (y - Z d) must equal the squared residual norm
    # after the transform, for any coefficient vector d.
    rho1, rho2, s_mu, s_eps = 0.4, 0.25, 1.5, 2.0
    data, w, design, op = build_random(4, 3, 2, rho1, rho2, s_mu, s_eps, seed=7)
    star = transform_random(data, design, op)
    omega_inv = dense_omega_inv(w, 3, rho1, rho2, s_mu, s_eps)
    for _ in range(5):
        delta = rng.normal(size=design.n_columns)
        resid = data.response - design.columns @ delta
        weighted = float(resid @ (omega_inv @ resid))
        transformed = float(np.sum((star.response - star.design @ delta) ** 2))
        assert abs(weighted - transformed) <= 1e-8 * max(abs(weighted), 1.0)


def test_random_transform_is_linear(rng):
    data, w, design, op = build_random(3, 3, 1, 0.2, -0.3, 1.0, 1.0, seed=2)
    y1 = rng.normal(size=data.n_obs)
    y2 = rng.normal(size=data.n_obs)
    combo = op.apply(2.0 * y1 - 3.0 * y2)
    assert np.allclose(combo, 2.0 * op.apply(y1) - 3.0 * op.apply(y2), atol=1e-12)


def test_random_transform_rejects_wrong_operator_and_shape():
    data, w, design, op = build_random(4, 3, 2, 0.0, 0.0, 0.0, 1.0)
    fixed_op = fixed_effects_whitener(VarianceComponents(rho2=0.0, sigma_eps2=1.0), w, 3)
    with pytest.raises(ValidationError):
        transform_random(data, design, fixed_op)
    other = make_panel(5, 3, 2)
    with pytest.raises(ValidationError):
        transform_random(other, design, op)


# ---------------------------------------------------------------------------
# Fixed-effects transform


def fixed_setup(n, t, p, rho2, seed=0):
    data = make_panel(n, t, p, seed=seed)
    w, _ = make_weights(n, seed=seed, k=min(2, n - 1))
    spec = ModelSpec(effects=Effects.FIXED, include_intercept=False)
    design = augment_design(data, w, spec)
    op = fixed_effects_whitener(VarianceComponents(rho2=rho2, sigma_eps2=1.0), w, t)
    return data, w, design, op


def test_fixed_transform_with_zero_rho_demeans():
    data, _, design, op = fixed_setup(4, 3, 2, 0.0)
    star = transform_fixed(data, design, op)
    cube = data.response.reshape(3, 4)
    demeaned = (cube - cube.mean(axis=0)).reshape(-1)
    assert np.allclose(star.response, demeaned, atol=1e-13)
    assert star.effects is Effects.FIXED


def test_fixed_transform_matches_dense_product():
    data, w, design, op = fixed_setup(3, 2, 2, 0.5, seed=4)
    star = transform_fixed(data, design, op)
    dense = dense_fixed_transform(w, 2, 0.5)
    assert np.allclose(star.response, dense @ data.response, atol=1e-12)
    assert np.allclose(star.design, dense @ design.columns, atol=1e-12)


def test_fixed_transform_zeroes_time_constant_response():
    data, w, design, op = fixed_setup(3, 3, 1, 0.3, seed=1)
    const_y = type(data)(
        response=np.tile(np.arange(1.0, 4.0), 3),
        regressors=data.regressors,
        regressor_names=data.regressor_names,
        location_ids=data.location_ids,
        period_ids=data.period_ids,
    )
    star = transform_fixed(const_y, design, op)
    assert np.all(star.response == 0.0)


def test_fixed_transform_names_annihilated_column():
    data, w, design, op = fixed_setup(3, 3, 2, 0.2, seed=6)
    cols = design.columns.copy()
    frozen = np.tile(np.arange(1.0, 4.0), 3)
    cols[:, 1] = frozen
    sneaky = type(design)(cols, design.names)
    with pytest.raises(FixedEffectsInfeasibleError) as err:
        transform_fixed(data, sneaky, op)
    assert err.value.column == design.names[1]


def test_fixed_loss_matches_weighted_loss_up_to_variance_factor(rng):
    # The fixed transform omits the constant 1/sigma_eps^2 factor of the
    # concentration matrix, so the two losses agree after multiplying by it.
    n, t, rho2, s_eps = 4, 3, 0.35, 2.5
    data = make_panel(n, t, 2, seed=9)
    w, _ = make_weights(n, seed=9, k=2)
    spec = ModelSpec(effects=Effects.FIXED, include_intercept=False)
    design = augment_design(data, w, spec)
    op = fixed_effects_whitener(VarianceComponents(rho2=rho2, sigma_eps2=s_eps), w, t)
    star = transform_fixed(data, design, op)
    dense = dense_fixed_transform(w, t, rho2)
    psi_inv = (dense.T @ dense) / s_eps
    for _ in range(3):
        delta = rng.normal(size=design.n_columns)
        resid = data.response - design.columns @ delta
        weighted = float(resid @ (psi_inv @ resid))
        transformed = float(np.sum((star.response - star.design @ delta) ** 2)) / s_eps
        assert abs(weighted - transformed) <= 1e-8 * max(abs(weighted), 1.0)


# ---------------------------------------------------------------------------
# Provenance and container validation


def test_operator_fingerprint_is_stable_and_sensitive():
    _, w, _, op = build_random(4, 3, 1, 0.3, -0.2, 2.0, 1.0)
    _, _, _, op_same = build_random(4, 3, 1, 0.3, -0.2, 2.0, 1.0)
    _, _, _, op_other = build_random(4, 3, 1, 0.3, -0.2, 2.0, 1.5)
    assert operator_fingerprint(op) == operator_fingerprint(op_same)
    assert operator_fingerprint(op) != operator_fingerprint(op_other)


def test_operator_mode_follows_the_between_block():
    # fixed effects exactly when there is no between block; the fingerprints
    # hash the mode's name and are pinned to their bytes
    e = np.eye(4)
    ring = SpatialWeights(0.5 * np.roll(e, 1, axis=1) + 0.5 * np.roll(e, -1, axis=1))
    fixed = fixed_effects_whitener(VarianceComponents(rho2=0.3, sigma_eps2=1.0), ring, 3)
    assert fixed.mode is WhitenerMode.FIXED_WITHIN
    assert operator_fingerprint(fixed) == "b46bd393a249"
    gls = WhiteningOperator(between_block=e, within_block=fixed.within_block, n_periods=3)
    assert gls.mode is WhitenerMode.RANDOM_GLS
    assert operator_fingerprint(gls) == "6075b14b52eb"
    with pytest.raises(ValidationError, match="square between block"):
        WhiteningOperator(between_block=np.eye(3), within_block=e, n_periods=3)
    with pytest.raises(TypeError):  # the mode is no longer an input
        WhiteningOperator(
            mode=WhitenerMode.FIXED_WITHIN, between_block=e, within_block=e, n_periods=3
        )


def test_transformed_data_validation():
    with pytest.raises(ValidationError):
        TransformedData(
            response=np.zeros(4),
            design=np.zeros((5, 2)),
            names=("a", "b"),
            effects=Effects.RANDOM,
            fingerprint="x",
        )
    with pytest.raises(ValidationError):
        TransformedData(
            response=np.zeros(4),
            design=np.zeros((4, 2)),
            names=("a",),
            effects=Effects.RANDOM,
            fingerprint="x",
        )
    bad = np.zeros((4, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        TransformedData(
            response=np.zeros(4),
            design=bad,
            names=("a", "b"),
            effects=Effects.RANDOM,
            fingerprint="x",
        )
