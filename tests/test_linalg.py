"""Blockwise operators versus dense Kronecker oracles."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from spboost.errors import ConditioningError, SingularFilterError, ValidationError
from spboost.gmm import VarianceComponents
from spboost.linalg import (
    DOMINANCE_MARGIN,
    ProjectorKind,
    SpatialFilter,
    TimeProjector,
    WhitenerMode,
    fixed_effects_whitener,
    random_effects_whitener,
    symmetric_sqrt,
)
from spboost.weights import SpatialWeights

from conftest import (
    dense_between,
    dense_between_contrast,
    dense_filter,
    dense_fixed_transform,
    dense_omega,
    dense_omega_inv,
    dense_symmetric_sqrt,
    dense_within,
    make_weights,
)


# ---------------------------------------------------------------------------
# Time projectors


def test_within_annihilates_time_constant_vector():
    n, t = 5, 4
    proj = TimeProjector(ProjectorKind.WITHIN, n, t)
    base = np.arange(1.0, n + 1)
    stacked = np.tile(base, t)
    out = proj.apply(stacked)
    assert np.all(out == 0.0)


def test_projectors_match_dense_oracles(rng):
    n, t = 2, 3
    v = rng.normal(size=n * t)
    within = TimeProjector(ProjectorKind.WITHIN, n, t)
    between = TimeProjector(ProjectorKind.BETWEEN, n, t)
    contrast = TimeProjector(ProjectorKind.BETWEEN_CONTRAST, n, t)
    assert np.allclose(within.apply(v), dense_within(n, t) @ v, atol=1e-13)
    assert np.allclose(between.apply(v), dense_between(n, t) @ v, atol=1e-13)
    assert np.allclose(contrast.apply(v), dense_between_contrast(n, t) @ v, atol=1e-13)


def test_projectors_match_dense_oracles_on_matrices(rng):
    n, t = 3, 4
    v = rng.normal(size=(n * t, 5))
    within = TimeProjector(ProjectorKind.WITHIN, n, t)
    assert np.allclose(within.apply(v), dense_within(n, t) @ v, atol=1e-13)


def test_between_is_idempotent(rng):
    n, t = 4, 3
    between = TimeProjector(ProjectorKind.BETWEEN, n, t)
    v = rng.normal(size=n * t)
    once = between.apply(v)
    assert np.allclose(between.apply(once), once, atol=1e-13)


def test_within_and_between_are_complementary(rng):
    n, t = 4, 5
    v = rng.normal(size=n * t)
    within = TimeProjector(ProjectorKind.WITHIN, n, t)
    between = TimeProjector(ProjectorKind.BETWEEN, n, t)
    assert np.allclose(within.apply(v) + between.apply(v), v, atol=1e-13)
    # Orthogonality: applying one projector after the other gives zero.
    assert np.allclose(within.apply(between.apply(v)), 0.0, atol=1e-13)


def test_projector_rejects_wrong_length():
    proj = TimeProjector(ProjectorKind.WITHIN, 3, 2)
    with pytest.raises(ValidationError):
        proj.apply(np.zeros(7))


def test_projector_needs_two_periods_except_between():
    with pytest.raises(ValidationError):
        TimeProjector(ProjectorKind.WITHIN, 3, 1)
    with pytest.raises(ValidationError):
        TimeProjector(ProjectorKind.BETWEEN_CONTRAST, 3, 1)
    TimeProjector(ProjectorKind.BETWEEN, 3, 1)  # degenerate but well defined


# ---------------------------------------------------------------------------
# Spatial filter


def test_spatial_filter_matrix_matches_dense():
    w, _ = make_weights(5, seed=4, k=2)
    filt = SpatialFilter(0.35, w)
    assert np.allclose(filt.matrix, dense_filter(w, 0.35), atol=1e-14)


def test_spatial_filter_matrix_is_bitwise_eye_minus_rho_w(rng, monkeypatch):
    # the filter scatters 0 - rho*w into the stored entries only; every other
    # entry of eye(n) - rho * W is +0.0 at either sign of rho.  Only a filter
    # that fails the rows-or-columns rule takes the condition-number test.
    n = 300
    user = np.where(rng.uniform(size=(n, n)) < 0.03, rng.uniform(0.0, 0.2, size=(n, n)), 0.0)
    np.fill_diagonal(user, 0.0)
    user[rng.integers(n, size=20), rng.integers(n, size=20)] = -0.0
    knn, _ = make_weights(n, seed=12, k=10)
    tested, cond = [], np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m, p=None: tested.append(p) or cond(m, p))
    decisions = set()
    for w in (knn, SpatialWeights(knn.matrix.T), SpatialWeights(user)):
        dense = w.matrix
        spread = min(dense.sum(axis=1).max(), dense.sum(axis=0).max())
        for rho in (0.4, -0.4, 0.95, -0.95, 0.0, -0.0):
            tested.clear()
            filt = SpatialFilter(rho, w)
            assert filt.matrix.tobytes() == (np.eye(n) - rho * dense).tobytes(), rho
            dominant = abs(rho) * spread < 1.0 - DOMINANCE_MARGIN
            assert tested == ([] if dominant else [1]), rho
            decisions.add(dominant)
    assert decisions == {True, False}


def test_spatial_filter_solve_round_trip(rng):
    n, t = 6, 2
    w, _ = make_weights(n, seed=9, k=3)
    filt = SpatialFilter(0.7, w)
    forward = np.kron(np.eye(t), filt.matrix)
    v = rng.normal(size=n * t)
    assert np.allclose(filt.solve(forward @ v, t), v, atol=1e-10)
    assert np.allclose(forward @ filt.solve(v, t), v, atol=1e-10)


def test_spatial_filter_rejects_unit_rho():
    w, _ = make_weights(4, seed=0, k=2)
    with pytest.raises(ValidationError):
        SpatialFilter(1.0, w)
    with pytest.raises(ValidationError):
        SpatialFilter(-1.2, w)
    with pytest.raises(ValidationError):
        SpatialFilter(np.nan, w)


# ---------------------------------------------------------------------------
# Symmetric square root


def test_symmetric_sqrt_squares_back(rng):
    m = rng.normal(size=(5, 5))
    spd = m @ m.T + 5.0 * np.eye(5)
    root = symmetric_sqrt(spd, "test block")
    assert np.allclose(root, root.T, atol=1e-12)
    assert np.allclose(root @ root, spd, atol=1e-10)
    assert np.allclose(root, dense_symmetric_sqrt(spd), atol=1e-10)


def test_symmetric_sqrt_leaves_its_argument_unchanged(rng):
    m = rng.normal(size=(6, 6))
    block = m @ m.T + 6.0 * np.eye(6)
    block[0, 1] += 1e-3  # slightly asymmetric, so symmetrizing would write
    before = block.copy()
    symmetric_sqrt(block, "test block")
    assert block.tobytes() == before.tobytes()


def test_symmetric_sqrt_rejects_rank_deficient():
    block = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(ConditioningError) as err:
        symmetric_sqrt(block, "degenerate block")
    assert err.value.min_eigenvalue <= 1e-10


# ---------------------------------------------------------------------------
# Random-effects whitener


def vc(rho1=0.0, rho2=0.0, s_mu=0.0, s_eps=1.0):
    return VarianceComponents(rho2=rho2, sigma_eps2=s_eps, rho1=rho1, sigma_mu2=s_mu)


def test_whitener_is_identity_for_unit_iid_noise(rng):
    n, t = 4, 3
    w, _ = make_weights(n, seed=1, k=2)
    op = random_effects_whitener(vc(), w, t)
    v = rng.normal(size=n * t)
    assert np.allclose(op.apply(v), v, atol=1e-10)


def test_whitener_scales_by_inverse_sd_for_iid_noise(rng):
    n, t = 4, 3
    w, _ = make_weights(n, seed=1, k=2)
    op = random_effects_whitener(vc(s_eps=4.0), w, t)
    v = rng.normal(size=n * t)
    assert np.allclose(op.apply(v), 0.5 * v, atol=1e-10)


def test_whitener_matches_dense_inverse_sqrt(rng):
    n, t = 4, 3
    rho1, rho2, s_mu, s_eps = 0.3, -0.2, 2.0, 1.0
    w, _ = make_weights(n, seed=6, k=2)
    op = random_effects_whitener(vc(rho1, rho2, s_mu, s_eps), w, t)
    omega_inv = dense_omega_inv(w, t, rho1, rho2, s_mu, s_eps)
    dense_root = dense_symmetric_sqrt(omega_inv)
    v = rng.normal(size=n * t)
    assert np.allclose(op.apply(v), dense_root @ v, atol=1e-8)


@pytest.mark.parametrize(
    "rho1,rho2,s_mu,s_eps",
    [
        (0.3, -0.2, 2.0, 1.0),
        (0.0, 0.5, 1.0, 3.0),
        (-0.7, 0.7, 0.5, 0.25),
        (0.9, 0.0, 4.0, 10.0),
    ],
)
def test_whitener_square_root_property(rng, rho1, rho2, s_mu, s_eps):
    # Applying the operator twice must reproduce the covariance inverse.
    n, t = 4, 3
    w, _ = make_weights(n, seed=6, k=2)
    op = random_effects_whitener(vc(rho1, rho2, s_mu, s_eps), w, t)
    omega_inv = dense_omega_inv(w, t, rho1, rho2, s_mu, s_eps)
    v = rng.normal(size=n * t)
    target = omega_inv @ v
    twice = op.apply(op.apply(v))
    assert np.linalg.norm(twice - target) <= 1e-8 * np.linalg.norm(target)


def test_whitener_inverts_covariance_of_random_draws(rng):
    # Dense check that omega_inv is really the inverse of omega.
    n, t = 5, 4
    w, _ = make_weights(n, seed=13, k=2)
    omega = dense_omega(w, t, 0.4, -0.3, 1.5, 2.0)
    omega_inv = dense_omega_inv(w, t, 0.4, -0.3, 1.5, 2.0)
    assert np.allclose(omega @ omega_inv, np.eye(n * t), atol=1e-9)


def test_whitener_requires_positive_idiosyncratic_variance():
    w, _ = make_weights(3, seed=0, k=1)
    with pytest.raises(ValidationError):
        random_effects_whitener(vc(s_eps=1.0), w, 1)
    with pytest.raises(ValidationError):
        VarianceComponents(rho2=0.0, sigma_eps2=0.0, rho1=0.0, sigma_mu2=1.0)


def test_whitener_requires_location_effect_fields():
    w, _ = make_weights(3, seed=0, k=1)
    fixed_only = VarianceComponents(rho2=0.2, sigma_eps2=1.0)
    with pytest.raises(ValidationError):
        random_effects_whitener(fixed_only, w, 3)


# ---------------------------------------------------------------------------
# Fixed-effects transform


def test_fixed_transform_with_zero_rho_is_within(rng):
    n, t = 4, 3
    w, _ = make_weights(n, seed=2, k=2)
    op = fixed_effects_whitener(VarianceComponents(rho2=0.0, sigma_eps2=1.0), w, t)
    within = TimeProjector(ProjectorKind.WITHIN, n, t)
    v = rng.normal(size=n * t)
    assert np.allclose(op.apply(v), within.apply(v), atol=1e-13)


def test_fixed_transform_matches_dense_oracle(rng):
    n, t = 3, 2
    w, _ = make_weights(n, seed=3, k=1)
    op = fixed_effects_whitener(VarianceComponents(rho2=0.5, sigma_eps2=1.0), w, t)
    dense = dense_fixed_transform(w, t, 0.5)
    v = rng.normal(size=(n * t, 2))
    assert np.allclose(op.apply(v), dense @ v, atol=1e-12)
    assert op.mode is WhitenerMode.FIXED_WITHIN


def test_fixed_transform_annihilates_time_constant_columns():
    n, t = 5, 3
    w, _ = make_weights(n, seed=4, k=2)
    op = fixed_effects_whitener(VarianceComponents(rho2=-0.4, sigma_eps2=1.0), w, t)
    col = np.tile(np.arange(1.0, n + 1), t)
    assert np.all(op.apply(col) == 0.0)


def test_fixed_transform_needs_two_periods():
    w, _ = make_weights(3, seed=0, k=1)
    with pytest.raises(ValidationError):
        fixed_effects_whitener(VarianceComponents(rho2=0.0, sigma_eps2=1.0), w, 1)


# ---------------------------------------------------------------------------
# Whitener construction against the dense-solve construction it replaced


def reference_random_effects_blocks(components, weights, n_periods):
    """Between and within blocks built with explicit solves, as the whitener
    was first written; the whitener must reproduce them bit for bit."""
    n = weights.n_locations
    eye = np.eye(n)
    b = eye - components.rho2 * weights.matrix
    bb = b.T @ b
    between_cov = components.sigma_eps2 * np.linalg.solve(bb, eye)
    if components.sigma_mu2 > 0:
        a = eye - components.rho1 * weights.matrix
        aa = a.T @ a
        loc_cov = n_periods * components.sigma_mu2 * np.linalg.solve(aa, eye)
        between_cov = between_cov + loc_cov
    between_inv = np.linalg.solve(0.5 * (between_cov + between_cov.T), eye)
    return (
        reference_symmetric_sqrt(between_inv),
        reference_symmetric_sqrt(bb / components.sigma_eps2),
    )


def reference_symmetric_sqrt(block):
    eigval, eigvec = np.linalg.eigh(0.5 * (block + block.T))
    return (eigvec * np.sqrt(eigval)) @ eigvec.T


def reference_inverse_blocks(components, weights, n_periods):
    """Between and within blocks built out of place from dense inverses:
    ``s_eps inv(B'B) + T s_mu inv(A'A)``, the inverse of its symmetric
    part, and the symmetric square root of that and of ``B'B / s_eps``."""
    n = weights.n_locations
    b = np.eye(n) - components.rho2 * weights.matrix
    bb = b.T @ b
    between_cov = components.sigma_eps2 * np.linalg.inv(bb)
    if components.sigma_mu2 > 0:
        a = np.eye(n) - components.rho1 * weights.matrix
        between_cov = between_cov + n_periods * components.sigma_mu2 * np.linalg.inv(a.T @ a)
    between_inv = np.linalg.inv(0.5 * (between_cov + between_cov.T))
    return (
        reference_symmetric_sqrt(between_inv),
        reference_symmetric_sqrt(bb / components.sigma_eps2),
    )


@pytest.mark.parametrize("s_mu", [1.7, 0.0], ids=["location-effects", "no-location-effects"])
def test_whitener_blocks_equal_out_of_place_inverse_construction(s_mu):
    # the whitener scales, symmetrizes and square-roots its blocks in place;
    # every operation keeps its operands and their order, so the blocks keep
    # the bits of this out-of-place construction
    w, _ = make_weights(80, seed=9, k=6)
    components = vc(0.45, -0.35, s_mu, 0.8)
    op = random_effects_whitener(components, w, 4)
    between, within = reference_inverse_blocks(components, w, 4)
    assert np.array_equal(op.between_block, between)
    assert np.array_equal(op.within_block, within)


def unnormalized_weights(n, seed):
    # row sums of 1.2, so |rho| * max row sum exceeds one for |rho| > 0.84
    # and the filter's LU test runs
    w, _ = make_weights(n, seed=seed, k=3)
    return SpatialWeights(1.2 * w.matrix)


@pytest.mark.parametrize(
    "rho1,rho2,s_mu,s_eps",
    [
        (0.4, -0.4, 1.3, 0.7),
        (0.0, 0.5, 0.0, 2.0),
        (-0.9, 0.95, 3.0, 0.1),
        (0.999, -0.999, 0.5, 1.0),
        (0.3, 0.3, 0.0, 1.0),
    ],
)
@pytest.mark.parametrize("normalized", [True, False], ids=["row-normalized", "unnormalized"])
def test_whitener_blocks_equal_dense_solve_construction(rho1, rho2, s_mu, s_eps, normalized):
    n = 60
    if normalized:
        w, _ = make_weights(n, seed=11, k=5)
    else:
        w = unnormalized_weights(n, seed=11)
    components = vc(rho1, rho2, s_mu, s_eps)
    op = random_effects_whitener(components, w, 3)
    between, within = reference_random_effects_blocks(components, w, 3)
    assert op.between_block.tobytes() == between.tobytes()
    assert op.within_block.tobytes() == within.tobytes()
    fixed = fixed_effects_whitener(VarianceComponents(rho2=rho2, sigma_eps2=1.0), w, 3)
    assert fixed.within_block.tobytes() == (np.eye(n) - rho2 * w.matrix).tobytes()


def test_whiteners_refuse_singular_filter():
    # I - 0.5 W = [[1, -1], [-1, 1]] is singular; its rows and its columns
    # sum to two, so the rows-or-columns rule does not apply.  The refusal is
    # the only signal: no library warning precedes it.
    w = SpatialWeights(np.array([[0.0, 2.0], [2.0, 0.0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularFilterError):
            random_effects_whitener(vc(rho1=0.0, rho2=0.5, s_mu=1.0), w, 3)
        with pytest.raises(SingularFilterError):
            random_effects_whitener(vc(rho1=0.5, rho2=0.0, s_mu=1.0), w, 3)
        with pytest.raises(SingularFilterError):
            fixed_effects_whitener(VarianceComponents(rho2=0.5, sigma_eps2=1.0), w, 3)
        # row-normalized weights within rounding of |rho| = 1 still get the
        # numerical test, and are refused as before
        ring, _ = make_weights(20, seed=2, k=4)
        with pytest.raises(SingularFilterError):
            SpatialFilter(1 - 2.0**-50, ring)
    assert caught == []


def einsum_apply(op, values):
    """The whitener's application written with einsum over the periods."""
    n, t = op.n_locations, op.n_periods
    cube = np.asarray(values, dtype=float).reshape(t, n, -1)
    mean = cube.mean(axis=0)
    out = np.einsum("ij,tjk->tik", op.within_block, cube - mean)
    if op.mode is WhitenerMode.RANDOM_GLS:
        out = out + op.between_block @ mean
    return out.reshape(np.shape(values))


@pytest.mark.parametrize("mode", list(WhitenerMode))
@pytest.mark.parametrize("shape", [(), (7,)], ids=["1-d", "2-d"])
def test_apply_matches_einsum_reference(rng, mode, shape):
    n, t = 150, 4
    w, _ = make_weights(n, seed=3, k=6)
    if mode is WhitenerMode.RANDOM_GLS:
        op = random_effects_whitener(vc(0.4, -0.4, 1.5, 0.8), w, t)
    else:
        op = fixed_effects_whitener(VarianceComponents(rho2=-0.4, sigma_eps2=1.0), w, t)
    v = rng.normal(size=(n * t, *shape))
    got = op.apply(v)
    want = einsum_apply(op, v)
    assert got.shape == v.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_random_effects_whitener_peak_memory():
    n = 400
    w, _ = make_weights(n, seed=4, k=10)
    components = vc(0.4, -0.4, 1.0, 1.0)
    tracemalloc.start()
    try:
        random_effects_whitener(components, w, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # n x n float blocks alive at once: 17 in the dense-solve construction
    # with its LU factors and identity right-hand sides, 5 while each
    # consumed block stayed alive through its eigh, 4 now that each eigh's
    # input receives its root.  tracemalloc sees numpy's arrays only, not
    # LAPACK's copies and workspace; the resident-memory test below counts
    # those.
    assert peak / (n * n * 8) <= 4.5


RSS_GROWTH_SCRIPT = """
import sys
import numpy as np
from spboost import build_knn_weights
from spboost.gmm import VarianceComponents
from spboost.linalg import random_effects_whitener

def peak_rss_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

n = int(sys.argv[1])
weights = build_knn_weights(np.random.default_rng(4).uniform(size=(n, 2)), 10)
components = VarianceComponents(rho1=0.4, rho2=-0.4, sigma_mu2=1.0, sigma_eps2=1.0)
before = peak_rss_kb()
random_effects_whitener(components, weights, 5)
print((peak_rss_kb() - before) * 1024 / (n * n * 8))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_random_effects_whitener_resident_memory():
    # growth of the peak resident set across the whitener in a fresh
    # process, LAPACK's input copies and eigh workspace included: 7.9 n x n
    # blocks while each consumed block stayed alive through its eigh, 5.4
    # now.  The peak is read as VmHWM: ru_maxrss would start at the
    # spawning test process's own peak, which Linux carries across exec.
    # At n = 1500 every block is memory-mapped; at n = 1000 the reading
    # followed glibc's heap layout, and swapping two bit-identical steps
    # moved it from 5.75 to 6.75 blocks, while both orders read 5.2-5.4
    # blocks here.
    n = 1500
    out = subprocess.run(
        [sys.executable, "-c", RSS_GROWTH_SCRIPT, str(n)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert float(out.stdout) <= 6.6
