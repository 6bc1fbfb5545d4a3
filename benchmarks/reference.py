"""Dense 81x81 reference for checking spinsync outputs.

Everything here is rebuilt from the operator definitions in the README and
imports nothing from the package, so a defect in the program cannot hide in
its own reference.  States are row-major 9x9 matrices on the basis
|m_A, m_B> with m = +1, 0, -1 and joint index 3*idx(m_A) + idx(m_B); the
vectorization is row-major, vec(A rho B) = (A kron B^T) vec(rho).

The generator is affine in its seven parameters, so the benchmark assembles
whole batches of points at once from seven basis superoperators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

PARAM_NAMES = ("gamma_g_a", "gamma_d_a", "gamma_g_b", "gamma_d_b",
               "epsilon", "delta", "omega_ref")
QUAD_DEFAULTS = {"n_theta": 32, "n_phi": 32, "n_phi_out": 64}

_SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
_SP = np.diag([np.sqrt(2.0), np.sqrt(2.0)], k=1).astype(complex)
_SM = _SP.conj().T
_I3 = np.eye(3, dtype=complex)
_I9 = np.eye(9, dtype=complex)


def _on(op: np.ndarray, site: str) -> np.ndarray:
    return np.kron(op, _I3) if site == "A" else np.kron(_I3, op)


def _hamiltonian_super(ham: np.ndarray) -> np.ndarray:
    return -1j * (np.kron(ham, _I9) - np.kron(_I9, ham.T))


def _lindblad_super(jump: np.ndarray) -> np.ndarray:
    # The channel enters the master equation as (rate/2) D[jump].
    jdj = jump.conj().T @ jump
    return 0.5 * (np.kron(jump, jump.conj())
                  - 0.5 * (np.kron(jdj, _I9) + np.kron(_I9, jdj.T)))


_EXCHANGE = 0.5j * (_on(_SP, "A") @ _on(_SM, "B") - _on(_SP, "B") @ _on(_SM, "A"))

# L = sum_i c_i BASIS[i] with c = (gamma_g_a, gamma_d_a, gamma_g_b, gamma_d_b,
# epsilon, omega_A, omega_B); see coefficients().
BASIS = np.stack([
    _lindblad_super(_on(_SP @ _SZ, "A")),
    _lindblad_super(_on(_SM @ _SZ, "A")),
    _lindblad_super(_on(_SP @ _SZ, "B")),
    _lindblad_super(_on(_SM @ _SZ, "B")),
    _hamiltonian_super(_EXCHANGE),
    _hamiltonian_super(_on(_SZ, "A")),
    _hamiltonian_super(_on(_SZ, "B")),
])
TRACE_ROW = _I9.reshape(-1)

# Kernel test: the second-smallest singular value of L against the
# dissipative rate scale, which a large detuning does not inflate, and
# against the rounding floor of the SVD itself.
UNIQUE_RATE_TOL = 1e-9
UNIQUE_ROUNDING_TOL = 1e3 * np.finfo(float).eps
CHUNK = 64  # points per batched SVD and solve, about 7 MB of generators


def coefficients(point: dict) -> np.ndarray:
    """Affine coefficients of one parameter point (missing keys take defaults)."""
    p = {name: float(point.get(name, 1.0 if name.startswith("gamma") else 0.0))
         for name in PARAM_NAMES}
    return np.array([p["gamma_g_a"], p["gamma_d_a"], p["gamma_g_b"], p["gamma_d_b"],
                     p["epsilon"], p["omega_ref"] + p["delta"], p["omega_ref"]])


def generators(points: list[dict]) -> np.ndarray:
    """Stack of 81x81 generators, one per point."""
    coef = np.array([coefficients(p) for p in points])
    return np.tensordot(coef, BASIS, axes=(1, 0))


@dataclass(frozen=True)
class SteadyReference:
    """Reference solution of one point; rho is None when the kernel is not 1-d."""

    unique: bool
    condition: float
    rho: np.ndarray | None


def steady_references(points: list[dict]) -> list[SteadyReference]:
    """Dense reference steady states, decided unique by a rate-scale kernel test."""
    out = []
    for lo in range(0, len(points), CHUNK):
        batch = points[lo:lo + CHUNK]
        gens = generators(batch)
        sing = np.linalg.svd(gens, compute_uv=False)
        # A diagonal row is a combination of the other diagonal rows (the
        # trace is conserved), so it can carry the normalization instead.
        system = gens.copy()
        system[:, 0, :] = TRACE_ROW
        rhs = np.zeros((len(batch), 81), dtype=complex)
        rhs[:, 0] = 1.0
        with np.errstate(all="ignore"):
            try:
                vecs = np.linalg.solve(system, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                vecs = np.full_like(rhs, np.nan)
        for point, s, vec in zip(batch, sing, vecs):
            rate_scale = float(coefficients(point)[:4].sum())
            second = float(s[-2])
            unique = (second > UNIQUE_RATE_TOL * rate_scale
                      and second > UNIQUE_ROUNDING_TOL * float(s[0])
                      and bool(np.all(np.isfinite(vec))))
            rho = None
            if unique:
                rho = vec.reshape(9, 9)
                rho = 0.5 * (rho + rho.conj().T)
                rho = rho / np.trace(rho).real
            out.append(SteadyReference(unique, float(s[0]) / max(second, 1e-300), rho))
    return out


def propagate(point: dict, rho0: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """Exact states expm(L t) rho0 at the given times."""
    gen = generators([point])[0]
    return [(scipy.linalg.expm(gen * t) @ rho0.reshape(-1)).reshape(9, 9) for t in times]


# --- measures -------------------------------------------------------------

# T[a, c] = integral_0^pi sin(theta) r_a(theta) r_c(theta) dtheta for the
# spin-1 coherent-state radial amplitudes r = (cos^2, sqrt2 sin cos, sin^2)
# of theta/2, in closed form.
_T = np.array([
    [2.0 / 3.0, math.sqrt(2.0) * math.pi / 8.0, 1.0 / 3.0],
    [math.sqrt(2.0) * math.pi / 8.0, 2.0 / 3.0, math.sqrt(2.0) * math.pi / 8.0],
    [1.0 / 3.0, math.sqrt(2.0) * math.pi / 8.0, 2.0 / 3.0],
])
_HUSIMI = 3.0 / (4.0 * math.pi)


def s_rel_modes(rho: np.ndarray) -> np.ndarray:
    """Fourier modes c_k, k = -2..2, with S_rel(phi) = sum_k c_k e^{ik phi} - 1/2pi.

    Integrating the joint Q function over both polar angles and phi_B at
    phi_A = phi + phi_B keeps only terms with (c - a) = (b - d), each
    carrying e^{i (c - a) phi}.
    """
    r4 = rho.reshape(3, 3, 3, 3)
    modes = np.zeros(5, dtype=complex)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                d = b - (c - a)
                if 0 <= d < 3:
                    modes[c - a + 2] += _T[a, c] * _T[b, d] * r4[a, b, c, d]
    return 2.0 * math.pi * _HUSIMI**2 * modes


def s_rel_grid(rho: np.ndarray, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """S_rel on the uniform output grid of n_out phases."""
    phis = 2.0 * math.pi * np.arange(n_out) / n_out
    waves = np.exp(1j * np.outer(phis, np.arange(-2, 3)))
    return phis, np.real(waves @ s_rel_modes(rho)) - 1.0 / (2.0 * math.pi)


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def _entropy(m: np.ndarray) -> float:
    p = np.clip(_eigvalsh(m), 0.0, None)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


@dataclass(frozen=True)
class Measures:
    """Scalar measures of a two-spin state."""

    s_rel_values: np.ndarray
    negativity: float
    mutual_info: float
    purity: float
    schmidt: np.ndarray
    dominant_gap: float


def measures(rho: np.ndarray, n_out: int) -> Measures:
    """S_rel on the n_out grid, negativity, mutual information, purity, Schmidt data."""
    r4 = rho.reshape(3, 3, 3, 3)
    transposed = r4.transpose(2, 1, 0, 3).reshape(9, 9)
    neg = max(0.0, 0.5 * (float(np.sum(np.abs(_eigvalsh(transposed)))) - 1.0))
    rho_a = np.einsum("abcb->ac", r4)
    rho_b = np.einsum("abad->bd", r4)
    mi = max(0.0, _entropy(rho_a) + _entropy(rho_b) - _entropy(rho))
    eig, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    schmidt = np.linalg.svd(vecs[:, -1].reshape(3, 3), compute_uv=False)
    return Measures(
        s_rel_values=s_rel_grid(rho, n_out)[1],
        negativity=neg,
        mutual_info=mi,
        purity=float(np.real(np.trace(rho @ rho))),
        schmidt=schmidt,
        dominant_gap=float(eig[-1] - eig[-2]),
    )


# --- first-order oracle ---------------------------------------------------

SREL_COEFF = 9.0 * math.pi / 128.0


def oracle(point: dict, t: float | None = None) -> tuple[float, float, float]:
    """First-order (peak S_rel, negativity, coupling strength eps*max|mu|)."""
    c = coefficients(point)
    delta = float(point.get("delta", 0.0))
    lam_p = 0.5 * (c[1] + c[2]) + 1j * delta
    lam_m = 0.5 * (c[0] + c[3]) - 1j * delta
    if t is None:
        mu_p, mu_m = 1.0 / lam_p, -1.0 / lam_m
    else:
        mu_p = (1.0 - np.exp(-lam_p * t)) / lam_p
        mu_m = -(1.0 - np.exp(-lam_m * t)) / lam_m
    eps = float(c[4])
    return (float(SREL_COEFF * eps * abs(mu_p + np.conj(mu_m))),
            float(eps * (abs(mu_p) + abs(mu_m))),
            float(eps * max(abs(mu_p), abs(mu_m))))
