"""Quantum channels, Choi states, and the depolarizing threshold analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zherk

from .entropy import von_neumann
from .linalg import (
    PAULI,
    DensityMatrix,
    PureState,
    SubsystemLayout,
    kron,
)

KRAUS_TOL = 1e-9


def _isometry_deviation(v: np.ndarray) -> float:
    """``max |v^dag v - I|`` of an (n, d) array, by the entry.

    ``zherk`` on the F-contiguous view ``v.T`` forms one triangle of
    ``v.T v* = conj(v^dag v)`` without a copy of ``v``, at half the flops of
    the full product; the other triangle stays zero, so its entries count as
    ``|0 - 0|`` and the maximum is the same as over the whole matrix.
    """
    g = zherk(1.0, v.T)
    g.flat[:: len(g) + 1] -= 1.0
    return float(np.abs(g).max())


@dataclass(frozen=True)
class Stinespring:
    """Dilation data: environment state and joint unitary on S (x) E."""

    env_state: PureState
    joint_unitary: np.ndarray


@dataclass(frozen=True)
class ChoiState:
    """Choi representation with layout [A', B]; tr_B equals pi_{A'}."""

    state: DensityMatrix
    source: str = ""


class Channel:
    """CPTP map stored as one Kraus array ``(r, d_out, d_in)``, with its
    Stinespring dilation if given.

    Channels are immutable values: a dilation's Kraus array is derived once,
    at construction, and everything else is read from that array.
    """

    def __init__(self, *, kraus=None, stinespring: Stinespring | None = None,
                 name: str = ""):
        if kraus is None and stinespring is None:
            raise ValueError("channel needs a Kraus list or a Stinespring dilation")
        self.name = name
        self.stinespring = stinespring
        if stinespring is not None:
            u = np.asarray(stinespring.joint_unitary, dtype=complex)
            d = u.shape[0]
            if u.size == 0 or _isometry_deviation(u.conj().T) > KRAUS_TOL:
                raise ValueError("Stinespring joint operator is not unitary")
            if kraus is None:
                # K_i[s_out, s_in] = sum_e U[(s_out, i), (s_in, e)] psi[e]
                d_e = stinespring.env_state.dim
                u4 = u.reshape(d // d_e, d_e, d // d_e, d_e)
                kraus = np.einsum("aibe,e->iab", u4, stinespring.env_state.amplitudes)
        ks = np.asarray(kraus, dtype=complex)
        if ks.ndim != 3 or min(ks.shape) < 1:
            raise ValueError(f"Kraus operators of shape {ks.shape}, not (r, d_out, d_in)")
        if _isometry_deviation(ks.reshape(-1, ks.shape[2])) > KRAUS_TOL:
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
    def from_kraus(cls, kraus, name: str = "") -> "Channel":
        return cls(kraus=kraus, name=name)

    @classmethod
    def from_stinespring(cls, env_state: PureState, joint_unitary,
                         name: str = "") -> "Channel":
        u = np.asarray(joint_unitary, dtype=complex)
        if u.shape[0] % env_state.dim:
            raise ValueError("joint unitary dimension not divisible by env dim")
        dil = Stinespring(env_state=env_state, joint_unitary=u)
        return cls(stinespring=dil, name=name)

    @classmethod
    def identity(cls, d: int) -> "Channel":
        """Identity channel: one Kraus operator, a view of ``I_d`` (no copy)."""
        return cls(kraus=np.eye(d, dtype=complex)[None], name=f"identity({d})")

    # -- actions ------------------------------------------------------------

    def apply(self, rho) -> np.ndarray:
        """Channel action via the Kraus representation."""
        rho = np.asarray(rho.data if isinstance(rho, DensityMatrix) else rho,
                         dtype=complex)
        if rho.shape != (self.input_dim, self.input_dim):
            raise ValueError("input dimension mismatch")
        out = np.zeros((self.output_dim, self.output_dim), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def dilation_state(self, rho_s) -> DensityMatrix:
        """Joint S (x) E state after the dilation unitary (no partial trace)."""
        if self.stinespring is None:
            raise ValueError("channel has no Stinespring representation")
        rho = np.asarray(rho_s.data if isinstance(rho_s, DensityMatrix) else rho_s,
                         dtype=complex)
        dil = self.stinespring
        psi = dil.env_state.amplitudes
        joint = kron(rho, np.outer(psi, psi.conj()))
        u = dil.joint_unitary
        layout = SubsystemLayout.of(("S", self.input_dim), ("E", dil.env_state.dim))
        return DensityMatrix(u @ joint @ u.conj().T, layout)

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
        return ChoiState(state=DensityMatrix(vecs.T @ vecs.conj(), layout),
                         source=self.name)

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
    """Qubit depolarizing channel built from its four-level dilation.

    ``|psi>_E = sqrt(1-p)|0> + sum_i sqrt(p/3)|i>`` with the controlled-Pauli
    joint unitary ``U = sum_a sigma_a (x) |a><a|_E``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    amps = np.array([np.sqrt(1.0 - p)] + [np.sqrt(p / 3.0)] * 3, dtype=complex)
    env = PureState.single(amps, "E")
    u = np.zeros((8, 8), dtype=complex)
    u4 = u.reshape(2, 4, 2, 4)
    for a in range(4):
        u4[:, a, :, a] = PAULI[a]
    return Channel.from_stinespring(env, u, name=f"depolarizing({p})")


def iid_threshold(family, lo: float = 0.0, hi: float = 1.0,
                  tol: float = 1e-6) -> float:
    """Root of ``H(S)_tau - H(E)_tau`` over a one-parameter dilation family.

    ``tau_SE`` is the dilated state of the maximally mixed input; the root is
    found by bisection (monotonicity is not assumed).
    """

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
