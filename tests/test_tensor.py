import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import skw

from leslie_sim.tensor import (
    ElasticTensor,
    EllipticityError,
    ellipticity_check,
    outer,
    sym,
)


def test_sym_skw_decomposition():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 3, 3))
    np.testing.assert_allclose(sym(m) + skw(m), m, atol=1e-15)
    np.testing.assert_allclose(sym(m), np.swapaxes(sym(m), -1, -2), atol=1e-15)
    np.testing.assert_allclose(skw(m), -np.swapaxes(skw(m), -1, -2), atol=1e-15)


def test_outer_entries():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    expect = np.array([[a[i] * b[j] for j in range(3)] for i in range(3)])
    np.testing.assert_array_equal(outer(a, b), expect)


def test_frobenius_matches_loop():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 3, 3))
    expect = sum(a[i, j] * b[i, j] for i in range(3) for j in range(3))
    assert oracles.frobenius(a, b) == pytest.approx(expect, rel=1e-14)


def test_isotropic_apply_scales():
    k = 2.5
    tensor = ElasticTensor.isotropic(k)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4, 3, 3))
    np.testing.assert_allclose(tensor.apply(a), k * a, rtol=1e-14)
    assert tensor.eta == k


def test_isotropic_rejects_nonpositive_stiffness():
    for k in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be finite and positive"):
            ElasticTensor.isotropic(k)


def test_tensor_compares_and_hashes_as_a_value():
    # equality and hashing see eta and the entries' bytes, not the ndarray
    # itself, whose == is elementwise
    a, b = ElasticTensor.isotropic(1.0), ElasticTensor.isotropic(1.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ElasticTensor.isotropic(2.0)
    entries = a.entries.copy()
    entries[0, 0, 1, 1] = entries[1, 1, 0, 0] = 0.5
    assert a != ElasticTensor(entries=entries, eta=1.0)  # the same eta
    assert a != ElasticTensor(entries=a.entries, eta=0.5)  # the same entries
    assert len({a, b, ElasticTensor.isotropic(2.0)}) == 2


def test_major_symmetry_enforced():
    entries = np.zeros((3, 3, 3, 3))
    entries[0, 1, 2, 0] = 1.0  # no matching (2,0,0,1) entry
    with pytest.raises(ValueError, match="major symmetry"):
        ElasticTensor(entries=entries, eta=1.0)


def test_ellipticity_check_isotropic():
    # (a x b) : L : (a x b) = k |a|^2 |b|^2 exactly for unit pairs
    tensor = ElasticTensor.isotropic(2.0)
    eta = ellipticity_check(tensor, n_samples=500, seed=3)
    assert eta == pytest.approx(2.0, rel=1e-12)


_EYE = np.eye(3)
_R = np.random.default_rng(12).normal(size=(9, 9))
ELLIPTIC = {
    "isotropic": ElasticTensor.isotropic(2.0),
    "aniso": ElasticTensor(
        entries=np.einsum("ik,jl->ijkl", _EYE, _EYE)
        + 0.5 * np.einsum("ij,kl->ijkl", _EYE, _EYE)
        + 0.25 * np.einsum("il,jk->ijkl", _EYE, _EYE),
        eta=1.0,
    ),
    # major symmetry and positive definite as a 9 x 9 matrix
    "random-spd": ElasticTensor(entries=(np.eye(9) + 0.3 * (_R @ _R.T)).reshape(3, 3, 3, 3), eta=1.0),
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(ELLIPTIC))
def test_ellipticity_check_matches_the_einsum_sample(name, seed):
    tensor = ELLIPTIC[name]
    expected = oracles.ellipticity_check(tensor, n_samples=700, seed=seed)
    got = ellipticity_check(tensor, n_samples=700, seed=seed)
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_from_entries_accepts_isotropic():
    base = ElasticTensor.isotropic(1.5)
    tensor = ElasticTensor.from_entries(base.entries.ravel())
    assert tensor.eta == pytest.approx(1.5, rel=1e-12)


def test_from_entries_rejects_indefinite():
    base = ElasticTensor.isotropic(1.0)
    with pytest.raises(EllipticityError):
        ElasticTensor.from_entries(-base.entries.ravel())


def test_apply_is_linear():
    tensor = ElasticTensor.isotropic(1.0)
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(2, 3, 3))
    alpha, beta = 0.7, -2.3
    np.testing.assert_allclose(
        tensor.apply(alpha * a + beta * b),
        alpha * tensor.apply(a) + beta * tensor.apply(b),
        atol=1e-13,
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_sym_skw_decomposition_property(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    s, w = sym(m), skw(m)
    np.testing.assert_allclose(s + w, m, atol=1e-15)
    np.testing.assert_allclose(s, s.T, atol=1e-15)
    np.testing.assert_allclose(w, -w.T, atol=1e-15)
    # the two parts are orthogonal under the Frobenius pairing
    assert abs(np.sum(s * w)) <= 1e-14
