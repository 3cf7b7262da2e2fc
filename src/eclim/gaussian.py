"""Covariance-matrix layer for bosonic systems.

Conventions: quadratures ordered (Q_1..Q_n, P_1..P_n), symplectic form
sigma = [[0, -1], [1, 0]] in n x n blocks, covariance normalized so the
vacuum is the identity.  A state (gamma, beta) has number-operator energy
tr(gamma)/4 + |beta|^2/2 - n/2.  Channels act as gamma -> X^T gamma X + Y,
beta -> X^T beta + alpha, and are completely positive iff
Y + i sigma_B - i X^T sigma_A X >= 0.  Semigroups of nondisplacing Gaussian
channels are generated by (Xdot, Ydot) with X(t) = exp(t Xdot) and
Y(t) = int_0^t X(s)^T Ydot X(s) ds; the integral is closed-form, one
exponential of a block matrix (Van Loan).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladGenerator, _budget, evolve_grid
from .opcore import DensityState, HermitianMatrix, ReferenceHamiltonian, _set_fields, energy, \
    expm, require_psd

GAUSS_PSD_RTOL = 1e-9


def symplectic_form(modes: int) -> np.ndarray:
    eye = np.eye(modes)
    z = np.zeros((modes, modes))
    return np.block([[z, -eye], [eye, z]])


def _floats(a, name: str) -> np.ndarray:
    try:
        return np.asarray(a, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _check_finite(m: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    return m


def _check_real_matrix(a, shape, name: str) -> np.ndarray:
    m = _floats(a, name)
    if m.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
    return _check_finite(m, name)


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix and displacement of an n-mode Gaussian state."""

    modes: int
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        n = int(self.modes)
        gamma = _check_real_matrix(self.gamma, (2 * n, 2 * n), "gamma")
        gamma = (gamma + gamma.T) / 2.0
        beta = _floats(self.beta, "beta").reshape(-1)
        if beta.shape != (2 * n,):
            raise ValueError(f"beta must have length {2 * n}")
        _check_finite(beta, "beta")
        require_psd(lambda: gamma + 1j * symplectic_form(n),
                    GAUSS_PSD_RTOL * (1.0 + float(np.max(np.abs(gamma)))),
                    "gamma + i*sigma is not PSD")
        _set_fields(self, modes=n, gamma=gamma, beta=beta)

    @staticmethod
    def vacuum(modes: int) -> "GaussianState":
        return GaussianState(modes, np.eye(2 * modes), np.zeros(2 * modes))

    @staticmethod
    def thermal(modes: int, nbar: float) -> "GaussianState":
        return GaussianState(modes, (2.0 * nbar + 1.0) * np.eye(2 * modes),
                             np.zeros(2 * modes))

    @staticmethod
    def coherent(modes: int, beta) -> "GaussianState":
        return GaussianState(modes, np.eye(2 * modes), beta)


def state_energy(s: GaussianState) -> float:
    """Number-operator energy tr(gamma)/4 + |beta|^2/2 - n/2."""
    val = 0.25 * float(np.trace(s.gamma)) + 0.5 * float(s.beta @ s.beta) - s.modes / 2.0
    if val < -GAUSS_PSD_RTOL * (1.0 + float(np.max(np.abs(s.gamma)))):
        raise ValueError(f"state energy {val:.3e} is negative beyond tolerance")
    return max(0.0, val)


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian channel (X, Y, alpha): gamma -> X^T gamma X + Y."""

    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        x = _floats(self.x, "X")
        if x.ndim != 2 or x.shape[0] % 2 or x.shape[1] % 2:
            raise ValueError("X must be a real matrix with even dimensions")
        _check_finite(x, "X")
        n_in, n_out = x.shape[0] // 2, x.shape[1] // 2
        y = _check_real_matrix(self.y, (2 * n_out, 2 * n_out), "Y")
        y = (y + y.T) / 2.0
        alpha = _floats(self.alpha, "alpha").reshape(-1)
        if alpha.shape != (2 * n_out,):
            raise ValueError(f"alpha must have length {2 * n_out}")
        _check_finite(alpha, "alpha")
        cp = y + 1j * symplectic_form(n_out) - 1j * (x.T @ symplectic_form(n_in) @ x)
        # X^T sigma X is antisymmetric only up to rounding.
        require_psd(lambda: (cp + cp.conj().T) / 2.0,
                    GAUSS_PSD_RTOL * (1.0 + float(np.max(np.abs(y)))
                                      + float(np.max(np.abs(x))) ** 2),
                    "channel is not completely positive")
        _set_fields(self, x=x, y=y, alpha=alpha)

    @property
    def modes_in(self) -> int:
        return self.x.shape[0] // 2

    @property
    def modes_out(self) -> int:
        return self.x.shape[1] // 2

    @staticmethod
    def identity(modes: int) -> "GaussianChannel":
        return GaussianChannel(np.eye(2 * modes), np.zeros((2 * modes, 2 * modes)),
                               np.zeros(2 * modes))

    @staticmethod
    def attenuator(modes: int, eta: float) -> "GaussianChannel":
        if not 0.0 <= eta <= 1.0:
            raise ValueError("transmissivity must lie in [0, 1]")
        d = 2 * modes
        return GaussianChannel(np.sqrt(eta) * np.eye(d), (1.0 - eta) * np.eye(d),
                               np.zeros(d))


def apply_channel(c: GaussianChannel, s: GaussianState) -> GaussianState:
    if c.modes_in != s.modes:
        raise ValueError(f"dimension mismatch: channel input {c.modes_in}, state {s.modes}")
    gamma = c.x.T @ s.gamma @ c.x + c.y
    beta = c.x.T @ s.beta + c.alpha
    return GaussianState(c.modes_out, gamma, beta)


def channel_energy_bound(c: GaussianChannel, energy_budget: float) -> float:
    """Affine output-energy bound for a nondisplacing Gaussian channel:

        |X|^2 E + tr(Y)/4 + |X|^2 n_A/2 - n_B/2.
    """
    if np.linalg.norm(c.alpha) > 0:
        raise ValueError("the energy bound applies to nondisplacing channels (alpha = 0)")
    xnorm_sq = float(np.linalg.norm(c.x, 2)) ** 2
    return (xnorm_sq * energy_budget + 0.25 * float(np.trace(c.y))
            + xnorm_sq * c.modes_in / 2.0 - c.modes_out / 2.0)


@dataclass(frozen=True)
class GaussianGenerator:
    """Generator (Xdot, Ydot) of a semigroup of nondisplacing Gaussian channels."""

    modes: int
    xdot: np.ndarray
    ydot: np.ndarray

    def __post_init__(self):
        n = int(self.modes)
        xdot = _check_real_matrix(self.xdot, (2 * n, 2 * n), "xdot")
        ydot = _check_real_matrix(self.ydot, (2 * n, 2 * n), "ydot")
        ydot = (ydot + ydot.T) / 2.0
        require_psd(lambda: _generator_condition(xdot, ydot, n),
                    GAUSS_PSD_RTOL * (1.0 + float(np.max(np.abs(ydot)))
                                      + float(np.max(np.abs(xdot)))),
                    "generator condition violated")
        _set_fields(self, modes=n, xdot=xdot, ydot=ydot)

    @staticmethod
    def damping(kappa: float) -> "GaussianGenerator":
        return GaussianGenerator(1, -(kappa / 2.0) * np.eye(2), kappa * np.eye(2))


def _generator_condition(xdot: np.ndarray, ydot: np.ndarray, modes: int) -> np.ndarray:
    """Validity matrix of a Gaussian semigroup generator.

    Complete positivity of every T(t) = T_{X(t),Y(t),0} is equivalent to
    Ydot + i (Xdot^T sigma + sigma Xdot) >= 0: the time derivative of the
    channel CP matrix is the X(s)-congruence of this constant matrix.  The
    damping semigroup sits exactly on its boundary, as it must.
    """
    sigma = symplectic_form(modes)
    return ydot + 1j * (xdot.T @ sigma + sigma @ xdot)


def generator_dictionary(g: GaussianGenerator):
    """Matrix dictionary (m, h) of the generator.

    m is the sigma-congruence of Ydot + (i/2)(Xdot^T sigma + sigma Xdot);
    validity makes both that matrix and Ydot itself PSD, hence m is
    Hermitian PSD on every valid generator.  h = (sigma Xdot^T - Xdot
    sigma)/2 is the real symmetric Hamiltonian part.
    """
    sigma = symplectic_form(g.modes)
    half = g.ydot + 0.5j * (g.xdot.T @ sigma + sigma @ g.xdot)
    m = sigma.T @ half @ sigma
    h = 0.5 * (sigma @ g.xdot.T - g.xdot @ sigma)
    return (m + m.conj().T) / 2.0, (h + h.T) / 2.0


def generator_from_dictionary(m: np.ndarray, h: np.ndarray, modes: int) -> GaussianGenerator:
    """Inverse of the dictionary; the round trip is the identity."""
    sigma = symplectic_form(modes)
    m = np.asarray(m, dtype=complex)
    h = _check_real_matrix(h, (2 * modes, 2 * modes), "h")
    cond = sigma @ m @ sigma.T
    ydot = np.real((cond + cond.conj().T) / 2.0)
    b = np.imag((cond + cond.conj().T) / 2.0)  # (Xdot^T sigma + sigma Xdot)/2
    xdot = h @ sigma - sigma @ b
    return GaussianGenerator(modes, xdot, ydot)


def _noise_integral(g: GaussianGenerator, t: float) -> np.ndarray:
    """Y(t) = int_0^t X(s)^T Ydot X(s) ds by Van Loan's block exponential.

    With B = [[-Xdot^T, Ydot], [0, Xdot]] and F = exp(t B), the blocks are
    F22 = exp(t Xdot) and F12 = int_0^t exp(-(t-s) Xdot^T) Ydot exp(s Xdot) ds,
    so Y(t) = F22^T F12 (Van Loan 1978, "Computing integrals involving the
    matrix exponential").
    """
    d = g.xdot.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = -g.xdot.T
    block[:d, d:] = g.ydot
    block[d:, d:] = g.xdot
    f = expm(t * block)
    return f[d:, d:].T @ f[:d, d:]


def semigroup_channel(g: GaussianGenerator, t: float) -> GaussianChannel:
    """T(t) = T_{X(t), Y(t), 0} with X(t) = exp(t Xdot)."""
    if t < 0:
        raise ValueError("negative evolution times are not defined for semigroups")
    xt = expm(t * g.xdot)
    yt = _noise_integral(g, t)
    return GaussianChannel(xt, (yt + yt.T) / 2.0, np.zeros(2 * g.modes))


def evolve_gaussian(g: GaussianGenerator, s: GaussianState, t: float) -> GaussianState:
    return apply_channel(semigroup_channel(g, t), s)


@dataclass(frozen=True)
class GaussianStabilityCertificate:
    """Energy growth certificate for a Gaussian semigroup.

    ``exponential`` carries (omega, e0) with the usual bound
    exp(omega t)(E + e0) - e0.  A purely diffusive semigroup (Xdot = 0)
    gets a ``time_affine`` certificate E + slope * t instead, since the
    exponential offset diverges as |Xdot| -> 0.
    """

    kind: str
    omega: float = 0.0
    e0: float = 0.0
    slope: float = 0.0

    def budget(self, energy_in: float, t: float) -> float:
        if self.kind == "exponential":
            return _budget(self.omega, self.e0, energy_in, t)
        return float(energy_in + self.slope * abs(t))


def gaussian_stability(g: GaussianGenerator) -> GaussianStabilityCertificate:
    """Stability constants omega = 2|Xdot|, e0 = n/2 + |Ydot| / (8 |Xdot|)."""
    xnorm = float(np.linalg.norm(g.xdot, 2))
    ynorm = float(np.linalg.norm(g.ydot, 2))
    if xnorm <= 1e-14 * (1.0 + ynorm):
        # tr Y(t) = t * tr Ydot <= 2n |Ydot| t when X(t) = 1.
        return GaussianStabilityCertificate("time_affine",
                                            slope=0.5 * g.modes * ynorm)
    omega = 2.0 * xnorm
    e0 = g.modes / 2.0 + ynorm / (8.0 * xnorm)
    return GaussianStabilityCertificate("exponential", omega=omega, e0=e0)


def fock_damping_crosscheck(kappa: float, nbar: float, times, cutoff: int = 60):
    """Compare the covariance layer with a truncated Fock-space damping.

    Returns rows (t, gaussian_energy, fock_energy).  The truncated model is
    the Lindbladian with L = sqrt(kappa) a on cutoff+1 levels, started from
    the thermal state with mean occupation nbar.
    """
    n = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
    gen = LindbladGenerator.from_hamiltonian(np.zeros((n, n)), (np.sqrt(kappa) * a,))
    number = ReferenceHamiltonian(HermitianMatrix(np.diag(np.arange(n)).astype(complex)))

    q = nbar / (nbar + 1.0)
    pops = (1.0 - q) * q ** np.arange(n)
    rho = DensityState(HermitianMatrix(np.diag(pops).astype(complex)))

    ggen = GaussianGenerator.damping(kappa)
    gstate = GaussianState.thermal(1, nbar)

    times = [float(t) for t in times]
    return [(t, state_energy(evolve_gaussian(ggen, gstate, t)), energy(number, out))
            for t, out in zip(times, evolve_grid(gen, rho, times))]
