"""Exact state-vector computations for the singlet and four-spin entangled states.

States live in the computational basis indexed big-endian by qubit, with the
spin-up basis state mapped to bit 0.  All operators are dense complex
matrices; the systems are 2 and 4 qubits, so everything stays tiny.  Each
observable is a Kronecker product of per-spin factors, with the identity on
the spins it does not measure.

A profile is the entries of one matrix: the symmetrized covariance matrix
of the four observables, computed from the state and the images O_k psi.
For the singlet that matrix is the Gram matrix of the four measurement axes
with the signs of the cross-side entries flipped.  Profile builders compute
every correlation twice, once through that matrix and once through the
closed forms, and refuse to return when they differ by more than 1e-10
(PROFILE_SELF_CHECK_TOL).  That keeps the two derivation routes honest
against each other on every call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .geometry import Direction, gram_of
from .inequalities import CorrelationProfile, epr_profile_from_dots, ghz_profile_from_angles

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Largest imaginary residue tolerated on an expectation of a Hermitian pair.
IMAG_TOL = 1e-9

#: Matrix-vs-closed-form agreement required of the profile builders; roughly
#: 100x the roundoff accumulated by 16x16 matrix products.
PROFILE_SELF_CHECK_TOL = 1e-10

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)


def pauli_dot(direction: Direction) -> np.ndarray:
    """2x2 spin observable along a unit direction: x*sx + y*sy + z*sz."""
    return direction.x * PAULI_X + direction.y * PAULI_Y + direction.z * PAULI_Z


def epr_state() -> np.ndarray:
    """Two-qubit singlet (|+-> - |-+>)/sqrt(2)."""
    amplitudes = np.zeros(4, dtype=complex)
    amplitudes[0b01] = 1.0 / math.sqrt(2.0)
    amplitudes[0b10] = -1.0 / math.sqrt(2.0)
    return amplitudes


def ghz_state() -> np.ndarray:
    """Four-qubit entangled state (|++--> - |--++>)/sqrt(2)."""
    amplitudes = np.zeros(16, dtype=complex)
    amplitudes[0b0011] = 1.0 / math.sqrt(2.0)
    amplitudes[0b1100] = -1.0 / math.sqrt(2.0)
    return amplitudes


def _check_dims(state: np.ndarray, op: np.ndarray) -> None:
    if op.shape != (state.size, state.size):
        raise ValueError(f"operator shape {op.shape} does not match state dimension {state.size}")


def covariance_matrix(state: np.ndarray, ops) -> np.ndarray:
    """Symmetrized covariance matrix Re<O_j O_k> - <O_j><O_k> of Hermitian observables.

    With Psi the matrix whose column k is O_k psi, <psi|O_j O_k|psi> is
    (Psi^H Psi)[j, k]; its real part is the symmetrized product expectation,
    real for any Hermitian pair whether or not the operators commute.
    """
    state = np.asarray(state, dtype=complex)
    images = []
    for op in ops:
        op = np.asarray(op, dtype=complex)
        _check_dims(state, op)
        images.append(op @ state)
    psi = np.stack(images, axis=1)
    means = state.conj() @ psi
    residue = float(np.max(np.abs(means.imag)))
    if residue > IMAG_TOL:
        raise NumericsError(f"expectation has imaginary residue {residue!r}")
    return (psi.conj().T @ psi).real - np.outer(means.real, means.real)


def epr_observables(
    a: Direction, b: Direction, c: Direction, d: Direction
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spin observables A, B on qubit 0 and C, D on qubit 1 of the singlet."""
    return (
        np.kron(pauli_dot(a), _I2),
        np.kron(pauli_dot(b), _I2),
        np.kron(_I2, pauli_dot(c)),
        np.kron(_I2, pauli_dot(d)),
    )


def _spin_pair(theta: float) -> np.ndarray:
    """(s1 . n)(s2 . n) on two spins, n at angle theta in the x-y plane."""
    s = pauli_dot(Direction.planar(theta))
    # the product of the two single-spin observables; kron(s, s) is equal in
    # exact arithmetic but rounds differently, which would move report bytes
    return np.kron(s, _I2) @ np.kron(_I2, s)


def ghz_observables(
    alpha: float, beta: float, gamma: float, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pair-product observables: A, B act on qubits (0, 1), C, D on qubits (2, 3).

    Each observable measures both spins of its pair along one planar axis,
    e.g. A = (s1 . a)(s2 . a) with a at angle alpha in the x-y plane.
    """
    return (
        np.kron(_spin_pair(alpha), _I4),
        np.kron(_spin_pair(beta), _I4),
        np.kron(_I4, _spin_pair(gamma)),
        np.kron(_I4, _spin_pair(delta)),
    )


def _self_checked_profile(
    state: np.ndarray, ops, expected: CorrelationProfile
) -> CorrelationProfile:
    """Profile of the observables' covariance matrix, refused if it leaves the closed form."""
    computed = CorrelationProfile.from_covariance(covariance_matrix(state, ops))
    worst_name, worst = None, 0.0
    for name, value in computed.as_dict().items():
        diff = abs(value - getattr(expected, name))
        if diff > worst:
            worst_name, worst = name, diff
    if worst > PROFILE_SELF_CHECK_TOL:
        raise NumericsError(
            f"matrix profile disagrees with closed form on {worst_name} by {worst!r}"
        )
    return computed


def epr_profile(a: Direction, b: Direction, c: Direction, d: Direction) -> CorrelationProfile:
    """Matrix-computed singlet profile, self-checked against the closed forms."""
    return _self_checked_profile(
        epr_state(), epr_observables(a, b, c, d), epr_profile_from_dots(gram_of(a, b, c, d))
    )


def ghz_profile(alpha: float, beta: float, gamma: float, delta: float) -> CorrelationProfile:
    """Matrix-computed four-spin profile, self-checked against the closed forms."""
    return _self_checked_profile(
        ghz_state(),
        ghz_observables(alpha, beta, gamma, delta),
        ghz_profile_from_angles(alpha, beta, gamma, delta),
    )
