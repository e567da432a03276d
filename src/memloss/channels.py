"""Quantum channels, Choi states, and the depolarizing threshold analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import von_neumann
from .linalg import (
    ISOMETRY_TOL,
    NORM_TOL,
    PAULI,
    DensityMatrix,
    SubsystemLayout,
    as_matrix,
    isometry_deviation,
)


@dataclass(frozen=True)
class ChoiState:
    """Choi representation with layout [A', B]; tr_B equals pi_{A'}."""

    state: DensityMatrix


class Channel:
    """CPTP map stored as one Kraus array ``(r, d_out, d_in)``.

    Channels are immutable values: everything, the Stinespring dilation
    included, is read from that array.
    """

    def __init__(self, kraus):
        ks = np.asarray(kraus, dtype=complex)
        if ks.ndim != 3 or min(ks.shape) < 1:
            raise ValueError(f"Kraus operators of shape {ks.shape}, not (r, d_out, d_in)")
        if not isometry_deviation(ks.reshape(-1, ks.shape[2])) <= ISOMETRY_TOL:
            raise ValueError("Kraus operators do not satisfy completeness")
        self.kraus = ks

    @property
    def input_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def output_dim(self) -> int:
        return self.kraus.shape[1]

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_kraus(cls, kraus) -> "Channel":
        return cls(kraus)

    @classmethod
    def from_stinespring(cls, env_state, joint_unitary) -> "Channel":
        """``rho -> tr_E U (rho (x) |psi><psi|) U^dag``, stored as its Kraus
        operators ``K_i = (I (x) <i|) U (I (x) |psi>)``."""
        psi = np.asarray(env_state, dtype=complex).reshape(-1)
        if not abs(np.linalg.norm(psi) - 1.0) <= NORM_TOL:
            raise ValueError("environment state is not normalized")
        u = np.asarray(joint_unitary, dtype=complex)
        if u.shape[0] % len(psi):
            raise ValueError("joint unitary dimension not divisible by env dim")
        if not isometry_deviation(u.conj().T) <= ISOMETRY_TOL:
            raise ValueError("Stinespring joint operator is not unitary")
        # K_i[s_out, s_in] = sum_e U[(s_out, i), (s_in, e)] psi[e]
        d = u.shape[0] // len(psi)
        u4 = u.reshape(d, len(psi), d, len(psi))
        return cls(np.einsum("aibe,e->iab", u4, psi))

    @classmethod
    def identity(cls, d: int) -> "Channel":
        """Identity channel: one Kraus operator, a view of ``I_d`` (no copy)."""
        return cls(np.eye(d, dtype=complex)[None])

    # -- actions ------------------------------------------------------------

    def apply(self, rho) -> np.ndarray:
        """Channel action via the Kraus representation."""
        rho = as_matrix(rho)
        if rho.shape != (self.input_dim, self.input_dim):
            raise ValueError("input dimension mismatch")
        out = np.zeros((self.output_dim, self.output_dim), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def dilation_state(self, rho) -> DensityMatrix:
        """``V rho V^dag`` on [S, E] (no partial trace), E of dimension r.

        ``V = sum_k K_k (x) |k>_E`` is the Stinespring isometry of the Kraus
        array, so ``tr_E`` gives :meth:`apply` and ``tr_S`` the
        complementary channel.  For a channel built from a dilation
        ``(psi, U)`` this is ``U (rho (x) |psi><psi|) U^dag``, as
        ``U (|s> (x) psi) = sum_i K_i |s> (x) |i>``.
        """
        rho = as_matrix(rho)
        if rho.shape != (self.input_dim, self.input_dim):
            raise ValueError("input dimension mismatch")
        r, d_out, d_in = self.kraus.shape
        v = self.kraus.transpose(1, 0, 2).reshape(d_out * r, d_in)
        layout = SubsystemLayout.of(("S", d_out), ("E", r))
        return DensityMatrix(v @ rho @ v.conj().T, layout)

    # -- Choi ---------------------------------------------------------------

    def choi(self) -> ChoiState:
        """``J = (1/d_A) sum_k vec(K_k) vec(K_k)^dag`` on [A', B].

        ``vec(K)`` stacks ``K|i>`` over the input basis, so J equals
        ``sum_k (I (x) K_k) Phi (I (x) K_k)^dag`` with Phi the maximally
        entangled state.
        """
        ks = self.kraus
        vecs = ks.transpose(0, 2, 1).reshape(len(ks), -1) / np.sqrt(self.input_dim)
        layout = SubsystemLayout.of(("A'", self.input_dim), ("B", self.output_dim))
        return ChoiState(state=DensityMatrix(vecs.T @ vecs.conj(), layout))

    def choi_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues, descending, of the Choi state (its nonzero part) and of
        its B marginal ``T(I/d_A)``, without building the Choi state.

        The nonzero spectrum of J is that of the r x r Gram matrix
        ``tr(K_k^dag K_l) / d_A``.  One Kraus operator is an isometry
        (completeness), so J is pure and ``T(I/d_A)`` is flat on a
        d_A-dimensional range.
        """
        d_in = self.input_dim
        if len(self.kraus) == 1:
            return np.array([1.0]), np.pad(np.full(d_in, 1.0 / d_in),
                                           (0, self.output_dim - d_in))
        v = self.kraus.reshape(len(self.kraus), -1)
        return tuple(np.clip(np.linalg.eigvalsh(h)[::-1], 0.0, None)
                     for h in (v.conj() @ v.T / d_in, self.apply(np.eye(d_in) / d_in)))


def depolarizing(p: float) -> Channel:
    """Qubit depolarizing channel, Kraus operators ``sqrt(w_a) sigma_a`` with
    ``w = (1 - p, p/3, p/3, p/3)``.

    Its dilation has ``|psi>_E = sum_a sqrt(w_a) |a>`` and the
    controlled-Pauli joint unitary ``U = sum_a sigma_a (x) |a><a|_E``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    w = np.array([1.0 - p] + [p / 3.0] * 3)
    return Channel.from_kraus(np.sqrt(w)[:, None, None] * PAULI)


def iid_threshold(family, lo: float = 0.0, hi: float = 1.0,
                  tol: float = 1e-6) -> float:
    """Root of ``H(S)_tau - H(E)_tau`` over a one-parameter channel family.

    ``family(p)`` is any :class:`Channel`; ``tau_SE`` is its dilation
    (:meth:`Channel.dilation_state`) of the maximally mixed input, so the
    gap is ``H(T(pi)) - H(T^c(pi))``.  The root is found by bisection
    (monotonicity is not assumed) on the bracket ``lo < hi``.
    """
    if not lo < hi:
        raise ValueError(f"threshold bracket needs lo < hi, got [{lo}, {hi}]")

    def gap(p: float) -> float:
        ch = family(p)
        pi = np.eye(ch.input_dim, dtype=complex) / ch.input_dim
        tau = ch.dilation_state(pi)
        return von_neumann(tau.marginal("S")) - von_neumann(tau.marginal("E"))

    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if np.sign(g_lo) == np.sign(g_hi):
        raise ValueError("entropy gap does not change sign on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid == 0.0:
            return mid
        if np.sign(g_mid) == np.sign(g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
