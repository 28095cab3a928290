"""Dense-matrix quantum route: states, observables, and profile agreement."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import belllab.quantum as quantum
from belllab.errors import NumericsError
from belllab.geometry import Direction, gram_of, planar
from belllab.inequalities import epr_profile_from_dots, ghz_profile_from_angles
from belllab.quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    covariance_matrix,
    epr_observables,
    epr_profile,
    epr_state,
    ghz_observables,
    ghz_profile,
    ghz_state,
    pauli_dot,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
I2 = np.eye(2)


def _random_direction(rng):
    v = rng.normal(size=3)
    return Direction(*(v / np.linalg.norm(v)))


def test_pauli_algebra():
    identity = np.eye(2)
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.allclose(sigma @ sigma, identity)
        assert np.allclose(sigma, sigma.conj().T)
    assert np.allclose(PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X, 2j * PAULI_Z)
    assert np.allclose(PAULI_X @ PAULI_Y + PAULI_Y @ PAULI_X, 0.0)


def test_pauli_dot_eigenvalues_are_plus_minus_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        op = pauli_dot(_random_direction(rng))
        eigs = np.linalg.eigvalsh(op)
        assert eigs == pytest.approx([-1.0, 1.0], abs=1e-12)


def _kron(*factors):
    return functools.reduce(np.kron, factors)


def test_lift_places_operator_at_slot():
    # A, B act on the first spin (pair) and C, D on the second
    angles = (0.1, 0.7, 1.3, 2.9)
    spins = [pauli_dot(Direction.planar(theta)) for theta in angles]
    A, B, C, D = epr_observables(*planar(angles))
    assert np.allclose(A, _kron(spins[0], I2))
    assert np.allclose(B, _kron(spins[1], I2))
    assert np.allclose(C, _kron(I2, spins[2]))
    assert np.allclose(D, _kron(I2, spins[3]))
    A, B, C, D = ghz_observables(*angles)
    assert np.allclose(A, _kron(spins[0], spins[0], I2, I2))
    assert np.allclose(B, _kron(spins[1], spins[1], I2, I2))
    assert np.allclose(C, _kron(I2, I2, spins[2], spins[2]))
    assert np.allclose(D, _kron(I2, I2, spins[3], spins[3]))


def test_epr_state_amplitudes():
    state = epr_state()
    assert state.shape == (4,)
    assert state == pytest.approx([0.0, INV_SQRT2, -INV_SQRT2, 0.0])
    assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-15)


def test_ghz_state_amplitudes():
    state = ghz_state()
    assert state.shape == (16,)
    expected = np.zeros(16)
    expected[0b0011] = INV_SQRT2
    expected[0b1100] = -INV_SQRT2
    assert state == pytest.approx(expected)


def _expectation(state, op) -> complex:
    return complex(np.vdot(state, op @ state))


def test_expectation_of_identity_is_one():
    assert _expectation(epr_state(), np.eye(4)) == pytest.approx(1.0, abs=1e-15)
    assert _expectation(ghz_state(), np.eye(16)) == pytest.approx(1.0, abs=1e-15)


def test_expectation_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="does not match state dimension 4"):
        covariance_matrix(epr_state(), [np.eye(4), np.eye(8)])


def test_singlet_is_rotationally_anticorrelated():
    # deep check: <(n.sigma)(x)(n.sigma)> = -1 for every axis n
    rng = np.random.default_rng(5)
    state = epr_state()
    for _ in range(25):
        n = _random_direction(rng)
        op = np.kron(pauli_dot(n), I2) @ np.kron(I2, pauli_dot(n))
        assert _expectation(state, op) == pytest.approx(-1.0, abs=1e-12)


def test_singlet_single_spin_means_vanish():
    rng = np.random.default_rng(6)
    state = epr_state()
    for _ in range(10):
        n = _random_direction(rng)
        assert _expectation(state, np.kron(pauli_dot(n), I2)) == pytest.approx(0.0, abs=1e-12)
        assert _expectation(state, np.kron(I2, pauli_dot(n))) == pytest.approx(0.0, abs=1e-12)


def test_singlet_spin_variance_is_unity():
    rng = np.random.default_rng(7)
    state = epr_state()
    for _ in range(100):
        n = _random_direction(rng)
        sigma = covariance_matrix(state, [np.kron(pauli_dot(n), I2)])
        assert sigma[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_covariance_is_symmetric_in_its_operators():
    state = epr_state()
    x = np.kron(pauli_dot(Direction(1.0, 0.0, 0.0)), I2)
    y = np.kron(I2, pauli_dot(Direction(0.0, 0.0, 1.0)))
    sigma = covariance_matrix(state, [x, y])
    assert sigma[0, 1] == pytest.approx(sigma[1, 0], abs=1e-14)
    assert sigma[0, 1] == pytest.approx(covariance_matrix(state, [y, x])[0, 1], abs=1e-14)


def test_epr_observables_anticommute_locally():
    a, b, c, d = planar([0.0, math.pi / 2, 1.0, 2.0])
    A, B, C, D = epr_observables(a, b, c, d)
    # A and B act on the first spin, C and D on the second, so [A, C] = 0
    assert np.allclose(A @ C, C @ A)
    assert np.allclose(B @ D, D @ B)


def test_epr_profile_matches_closed_form_planar():
    rng = np.random.default_rng(21)
    for _ in range(100):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=4)
        directions = planar(angles)
        computed = epr_profile(*directions)
        expected = epr_profile_from_dots(gram_of(*directions))
        for field in ("e_ac", "e_ad", "e_bc", "e_bd", "e_ab", "e_cd"):
            assert getattr(computed, field) == pytest.approx(
                getattr(expected, field), abs=1e-10
            )
        assert computed.var_a == pytest.approx(1.0, abs=1e-12)
        assert computed.var_d == pytest.approx(1.0, abs=1e-12)


def test_epr_profile_matches_closed_form_in_three_dimensions():
    rng = np.random.default_rng(22)
    for _ in range(100):
        directions = [_random_direction(rng) for _ in range(4)]
        computed = epr_profile(*directions)
        expected = epr_profile_from_dots(gram_of(*directions))
        for field in ("e_ac", "e_ad", "e_bc", "e_bd", "e_ab", "e_cd"):
            assert getattr(computed, field) == pytest.approx(
                getattr(expected, field), abs=1e-10
            )


def test_ghz_observable_variances_are_unity():
    rng = np.random.default_rng(23)
    state = ghz_state()
    for _ in range(25):
        ops = ghz_observables(*rng.uniform(0.0, math.pi, size=4))
        sigma = covariance_matrix(state, ops)
        assert np.diag(sigma) == pytest.approx(np.ones(4), abs=1e-12)


def test_ghz_profile_matches_closed_form():
    rng = np.random.default_rng(24)
    for _ in range(100):
        angles = rng.uniform(0.0, math.pi, size=4)
        computed = ghz_profile(*angles)
        expected = ghz_profile_from_angles(*angles)
        for field in ("e_ac", "e_ad", "e_bc", "e_bd", "e_ab", "e_cd"):
            assert getattr(computed, field) == pytest.approx(
                getattr(expected, field), abs=1e-10
            )
        assert computed.var_b == pytest.approx(1.0, abs=1e-12)


def test_ghz_pair_products_square_to_identity():
    ops = ghz_observables(0.3, 0.9, 1.4, 2.1)
    for op in ops:
        assert np.allclose(op @ op, np.eye(16), atol=1e-12)


def test_ghz_pair_observables_are_kron_of_spin_factors():
    rng = np.random.default_rng(27)
    for _ in range(100):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=4)
        ops = ghz_observables(*angles)
        for index, (op, theta) in enumerate(zip(ops, angles)):
            s = pauli_dot(Direction.planar(theta))
            pair = _kron(s, s, I2, I2) if index < 2 else _kron(I2, I2, s, s)
            assert np.max(np.abs(op - pair)) <= 1e-15
            assert np.max(np.abs(op @ op - np.eye(16))) <= 1e-15


# D flips the sign of the C, D side: cross-side entries are anticorrelations.
SIDE_SIGNS = np.diag([1.0, 1.0, -1.0, -1.0])


def test_singlet_covariance_is_signed_gram_matrix():
    rng = np.random.default_rng(25)
    for _ in range(100):
        directions = [_random_direction(rng) for _ in range(4)]
        vectors = np.array([[d.x, d.y, d.z] for d in directions])
        gram = vectors @ vectors.T
        sigma = covariance_matrix(epr_state(), epr_observables(*directions))
        assert np.max(np.abs(sigma - SIDE_SIGNS @ gram @ SIDE_SIGNS)) <= 1e-12


def test_four_spin_covariance_is_signed_cosine_matrix():
    rng = np.random.default_rng(26)
    for _ in range(100):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=4)
        cosines = np.cos(2.0 * (angles[:, None] - angles[None, :]))
        sigma = covariance_matrix(ghz_state(), ghz_observables(*angles))
        assert np.max(np.abs(sigma - SIDE_SIGNS @ cosines @ SIDE_SIGNS)) <= 1e-12


def test_covariance_matrix_flags_imaginary_leakage():
    non_hermitian = np.diag([0.0, 1.0j, 0.0, 0.0]) + np.eye(4)
    with pytest.raises(NumericsError):
        covariance_matrix(epr_state(), [np.eye(4), non_hermitian])


@pytest.mark.parametrize(
    "closed_form, build, args",
    [
        ("epr_profile_from_dots", epr_profile, planar([0.3, 1.1, 2.0, 2.9])),
        ("ghz_profile_from_angles", ghz_profile, (0.1, 0.7, 1.3, 2.2)),
    ],
)
def test_profile_off_its_closed_form_is_a_numerics_error(monkeypatch, closed_form, build, args):
    # a closed form moved by 1e-9 on one field, ten times the self-check tolerance
    honest = getattr(quantum, closed_form)

    def moved(*point):
        profile = honest(*point)
        return dataclasses.replace(profile, e_bc=profile.e_bc + 1e-9)

    monkeypatch.setattr(quantum, closed_form, moved)
    with pytest.raises(NumericsError, match="matrix profile disagrees with closed form on e_bc by"):
        build(*args)
