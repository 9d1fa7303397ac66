"""Minimal two-level quantum toolkit.

Density states are stored as Bloch vectors (the identity coefficient is
pinned to 1, so unit trace holds by construction), observables as an
offset plus a Bloch direction. Dense 2x2 complex matrices are rendered
on demand for the brute-force oracles; the Bloch form is canonical.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Construction tolerance for norm and orthonormality checks. Everything
# here is closed-form on doubles, so slack much beyond ~1e-12 indicates a
# bug, but 1e-9 avoids false rejections on user-supplied directions.
TOL = 1e-9

# Dense Pauli basis, exposed as module attributes I2 and SIGMA_X/Y/Z.
# numpy is imported when a dense matrix is first built, not with the
# module, so scalar pricing never loads it.
_PAULI_NAMES = ("I2", "SIGMA_X", "SIGMA_Y", "SIGMA_Z")


@functools.cache
def _pauli_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(I2, SIGMA_X, SIGMA_Y, SIGMA_Z) as dense complex 2x2 matrices."""
    import numpy as np

    return (
        np.eye(2, dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )


def __getattr__(name: str) -> np.ndarray:
    if name in _PAULI_NAMES:
        return _pauli_basis()[_PAULI_NAMES.index(name)]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector of Pauli coefficients."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("Bloch components must be finite")

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def dot(self, other: BlochVector) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def scaled(self, factor: float) -> BlochVector:
        return BlochVector(factor * self.x, factor * self.y, factor * self.z)

    def unit(self) -> BlochVector:
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self.scaled(1.0 / n)

    def pauli_matrix(self) -> np.ndarray:
        """x*sigma_x + y*sigma_y + z*sigma_z as a dense 2x2."""
        _, sigma_x, sigma_y, sigma_z = _pauli_basis()
        return self.x * sigma_x + self.y * sigma_y + self.z * sigma_z


@dataclass(frozen=True)
class DensityState:
    """Unit-trace two-level state, canonically a Bloch vector.

    Positivity requires the Bloch norm to stay <= 1; the eigenvalues are
    (1 -/+ norm)/2. Norm strictly below 1 means both eigenvalues are
    positive (a faithful state); norm 1 is a pure boundary state.
    """

    bloch: BlochVector

    def __post_init__(self) -> None:
        n = self.bloch.norm()
        if n > 1.0 + TOL:
            raise ValueError(
                f"Bloch norm {n:.12g} exceeds 1: not a state (negative eigenvalue)"
            )

    def eigenvalues(self) -> tuple[float, float]:
        """Ascending pair ((1 - norm)/2, (1 + norm)/2)."""
        n = self.bloch.norm()
        return (1.0 - n) / 2.0, (1.0 + n) / 2.0

    def matrix(self) -> np.ndarray:
        """Dense 2x2 density matrix (I + v.sigma)/2."""
        return 0.5 * (_pauli_basis()[0] + self.bloch.pauli_matrix())


@dataclass(frozen=True)
class TwoLevelObservable:
    """Hermitian 2x2 observable with spectrum exactly {low, high}.

    Stored as the two eigenvalues plus a Bloch direction whose norm is
    pinned to (high - low)/2; the matrix form is
    offset*I + direction.sigma with offset = (low + high)/2.
    """

    low: float
    high: float
    direction: BlochVector

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError("low must be strictly below high")
        target = 0.5 * (self.high - self.low)
        if abs(self.direction.norm() - target) > TOL:
            raise ValueError(
                "direction norm must equal (high - low)/2; "
                "use make_observable to scale a unit direction"
            )

    @property
    def offset(self) -> float:
        return 0.5 * (self.low + self.high)

    def unit_direction(self) -> BlochVector:
        return self.direction.unit()

    def matrix(self) -> np.ndarray:
        """Dense 2x2 matrix offset*I + direction.sigma."""
        return self.offset * _pauli_basis()[0] + self.direction.pauli_matrix()


def make_state(bloch: BlochVector) -> DensityState:
    """Build a density state from its Bloch vector.

    Norms up to 1 + TOL are accepted; those at the boundary are valid
    non-faithful (pure) states.
    """
    return DensityState(bloch)


def is_faithful(state: DensityState) -> bool:
    """True iff both eigenvalues are strictly positive (norm < 1 - TOL)."""
    return state.bloch.norm() < 1.0 - TOL


def make_observable(low: float, high: float, unit_direction: BlochVector) -> TwoLevelObservable:
    """Build the observable with values {low, high} along a unit Bloch direction.

    Parameters
    ----------
    low, high : float
        The two eigenvalues, low < high.
    unit_direction : BlochVector
        Direction of the Bloch axis; must have norm 1 within TOL. It is
        rescaled to norm (high - low)/2 so the spectrum is exact.
    """
    if not low < high:
        raise ValueError("low must be strictly below high")
    n = unit_direction.norm()
    if n == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(n - 1.0) > TOL:
        raise ValueError(f"direction norm {n:.12g} is not 1 within tolerance")
    direction = unit_direction.scaled(0.5 * (high - low) / n)
    return TwoLevelObservable(low, high, direction)


def expectation(state: DensityState, obs: TwoLevelObservable) -> float:
    """tr(rho R) = offset + <bloch, direction>."""
    return obs.offset + state.bloch.dot(obs.direction)


def eigenbasis(obs: TwoLevelObservable) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors (u, v) of the observable.

    u belongs to the high eigenvalue, v to the low one. Phases follow the
    standard half-angle convention, so a +z direction gives exactly
    (|0>, |1>). Eigenvectors are defined up to a global phase. The
    half-angle terms come from n_z and n_x + i n_y without an arccos,
    which would turn a 1e-16 rounding of n_z near +-1 into a 1e-8 angle.
    """
    import numpy as np

    n = obs.unit_direction()
    xy = complex(n.x, n.y)
    if n.z >= 0.0:
        c = math.sqrt((1.0 + n.z) / 2.0)
        s_phase = xy / (2.0 * c)
    else:
        s = math.sqrt((1.0 - n.z) / 2.0)
        c = abs(xy) / (2.0 * s)
        s_phase = s * xy / abs(xy) if xy else complex(s)
    u = np.array([c, s_phase], dtype=complex)
    v = np.array([-s_phase.conjugate(), c], dtype=complex)
    return u, v
