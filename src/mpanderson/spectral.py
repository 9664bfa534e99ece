"""Eigendecomposition, Green functions, and the cube nonsingularity test.

Desk-scale policy: everything is dense below a configurable size limit
(default 4096 sites); no iterative eigensolvers.  Green functions of the
real symmetric operator at real off-spectrum energies are real.  The cube
test takes them from the certified eigendecomposition as the spectral sum
G(x, c; E) = sum_j psi_j(x) psi_j(c) / (E_j - E), with an error bound per
energy.  A probe that bound cannot decide, and the public Green-function
entry points, use one factorized linear solve per (energy, source column),
the column being reused across probe sites.

A cube is nonsingular at energy E for decay parameters (m, N) when E is
safely off the spectrum and the Green function from the cube's center to
every internal-boundary site is below exp(-gamma * L), where gamma is the
scale- and depth-dependent decay exponent.  Resonance (E within the
spectral-gap tolerance of an eigenvalue) is a verdict, not an error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import ConfigPoint, Cube, internal_boundary
from .hamiltonian import HamiltonianMatrix

DENSE_LIMIT = 4096

#: |E - nearest eigenvalue| below GAP_RTOL * max(1, |H|) counts as resonant
GAP_RTOL = 1e-12
#: without a spectrum, a condition estimate above this signals resonance
COND_LIMIT = 1e14
#: certified bound on ||(H - E) g - delta||_2 for returned Green columns
RESIDUAL_TOL = 1e-8

#: the spectral-sum kernel decides a probe only with this factor to spare on
#: its error bound and on RESIDUAL_TOL
_KERNEL_SAFETY = 4.0
#: probes per spectral-sum block, which bounds the (probes x sites) temporaries
_PROBE_BLOCK = 128

logger = logging.getLogger(__name__)


class NearSpectrumError(RuntimeError):
    """The requested energy is numerically indistinguishable from spectrum."""


class SizeLimitError(ValueError):
    """Region is larger than the configured dense-solver limit."""


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------


@dataclass
class Spectrum:
    """Full eigendecomposition of a finite-volume Hamiltonian.

    eigenvalues are ascending; eigenvector j is the column
    eigenvectors[:, j], indexed like the operator's site list.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    site_list: tuple[ConfigPoint, ...]
    residual_bound: float
    orthonormality_defect: float

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def indices_in(self, lo: float, hi: float) -> np.ndarray:
        """Indices j with lo <= E_j <= hi (closed interval)."""
        return np.nonzero((self.eigenvalues >= lo) & (self.eigenvalues <= hi))[0]

    def gap_to(self, energy: float) -> float:
        return float(np.min(np.abs(self.eigenvalues - energy)))

    def norm_bound(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))


def eigensolve(hm: HamiltonianMatrix, dense_limit: int = DENSE_LIMIT) -> Spectrum:
    """Dense symmetric eigendecomposition with a posteriori certificates.

    LAPACK's dsyevr (scipy's default driver) runs first.  On rare clustered
    spectra its eigenvectors miss the orthonormality gate; dsyevd is then
    tried under the same gates, and only its failure raises.
    """
    if hm.size > dense_limit:
        raise SizeLimitError(
            f"region has {hm.size} sites, dense limit is {dense_limit}"
        )
    dense = hm.dense()
    eigenvalues, eigenvectors = sla.eigh(dense)
    residual_bound, defect, certified = _certify(dense, eigenvalues, eigenvectors)
    if not certified:
        logger.info(
            "dsyevr failed certification on %d sites (residual %.3e, "
            "orthonormality defect %.3e); retrying with dsyevd",
            hm.size, residual_bound, defect,
        )
        eigenvalues, eigenvectors = sla.eigh(dense, driver="evd")
        residual_bound, defect, certified = _certify(dense, eigenvalues, eigenvectors)
    if not certified:
        raise RuntimeError(
            f"eigendecomposition failed certification: residual {residual_bound:.3e}, "
            f"orthonormality defect {defect:.3e}"
        )
    return Spectrum(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        site_list=hm.site_list,
        residual_bound=residual_bound,
        orthonormality_defect=defect,
    )


def _certify(
    dense: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> tuple[float, float, bool]:
    """(residual bound, orthonormality defect, both within their gates)."""
    residual = dense @ eigenvectors - eigenvectors * eigenvalues
    residual_bound = float(np.max(np.linalg.norm(residual, axis=0)))
    gram = eigenvectors.T @ eigenvectors
    defect = float(np.max(np.abs(gram - np.eye(len(eigenvalues)))))
    scale = 1.0 + float(np.max(np.abs(eigenvalues)))
    return residual_bound, defect, residual_bound <= 1e-8 * scale and defect <= 1e-10


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------


class GreenSolver:
    """Factorization of (H - E) reused across many Green-function queries.

    With a spectrum at hand the resonance guard is the spectral gap; without
    one, it is a reciprocal condition estimate of the factorized matrix.
    Every returned column carries a residual certificate.
    """

    def __init__(
        self,
        hm: HamiltonianMatrix,
        energy: float,
        spectrum: Spectrum | None = None,
        dense_limit: int = DENSE_LIMIT,
    ) -> None:
        self.hm = hm
        self.energy = float(energy)
        self._columns: dict[int, np.ndarray] = {}

        if spectrum is not None:
            gap = spectrum.gap_to(energy)
            if gap <= GAP_RTOL * max(1.0, spectrum.norm_bound()):
                raise NearSpectrumError(
                    f"energy {energy} within resolution of the spectrum (gap {gap:.3e})"
                )

        if hm.size <= dense_limit:
            shifted = hm.dense() - self.energy * np.eye(hm.size)
            anorm = float(np.linalg.norm(shifted, 1))
            self._lu = sla.lu_factor(shifted)
            self._dense_shifted = shifted
            self._sparse = None
            if spectrum is None:
                rcond = sla.lapack.dgecon(self._lu[0], anorm, norm="1")[0]
                if rcond == 0.0 or 1.0 / rcond > COND_LIMIT:
                    raise NearSpectrumError(
                        f"(H - E) condition estimate exceeds {COND_LIMIT:.0e} at E={energy}"
                    )
        else:
            shifted = (hm.matrix - self.energy * sp.identity(hm.size, format="csr")).tocsc()
            self._sparse = spla.splu(shifted)
            self._lu = None
            self._dense_shifted = None

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            return sla.lu_solve(self._lu, rhs)
        return self._sparse.solve(rhs)

    def _apply_shifted(self, v: np.ndarray) -> np.ndarray:
        if self._dense_shifted is not None:
            return self._dense_shifted @ v
        return self.hm.matrix @ v - self.energy * v

    def column(self, y: ConfigPoint | int) -> np.ndarray:
        """Green column G(., y; E), i.e. the solution of (H - E) g = delta_y."""
        j = y if isinstance(y, int) else self.hm.row_of(y)
        cached = self._columns.get(j)
        if cached is not None:
            return cached
        rhs = np.zeros(self.hm.size)
        rhs[j] = 1.0
        g = self._solve(rhs)
        resid = rhs - self._apply_shifted(g)
        norm = float(np.linalg.norm(resid))
        if norm > 1e-13:
            g = g + self._solve(resid)  # one step of iterative refinement
            norm = float(np.linalg.norm(rhs - self._apply_shifted(g)))
        if norm > RESIDUAL_TOL:
            raise NearSpectrumError(
                f"Green solve residual {norm:.3e} exceeds {RESIDUAL_TOL} at E={self.energy}"
            )
        self._columns[j] = g
        return g

    def green(self, x: ConfigPoint | int, y: ConfigPoint | int) -> float:
        i = x if isinstance(x, int) else self.hm.row_of(x)
        return float(self.column(y)[i])


def green(
    hm: HamiltonianMatrix,
    energy: float,
    x: ConfigPoint,
    y: ConfigPoint,
    spectrum: Spectrum | None = None,
    dense_limit: int = DENSE_LIMIT,
) -> float:
    """Green function <delta_x, (H - E)^{-1} delta_y> by a certified solve."""
    return GreenSolver(hm, energy, spectrum, dense_limit).green(x, y)


# ---------------------------------------------------------------------------
# Nonsingularity
# ---------------------------------------------------------------------------


def gamma(m: float, L: int, n: int, N: int) -> float:
    """Decay exponent m * (1 + L^(-1/8))^(N - n + 1) used in the cube test."""
    if m <= 0:
        raise ValueError("mass m must be positive")
    if L < 1:
        raise ValueError("scale L must be >= 1")
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    return m * (1.0 + L ** (-0.125)) ** (N - n + 1)


def ns_threshold(m: float, L: int, n: int, N: int) -> float:
    """Boundary-decay threshold exp(-gamma * L); equals 1 for the L = 0 cube."""
    if L == 0:
        return 1.0
    return math.exp(-gamma(m, L, n, N) * L)


@dataclass
class NsVerdict:
    """Outcome of the (E, m, h)-nonsingularity test for one cube and energy."""

    nonsingular: bool
    max_boundary_green: float
    threshold: float
    margin: float
    spectral_gap: float


def classify_cube(
    cube: Cube,
    hm: HamiltonianMatrix,
    energy: float,
    m: float,
    N: int,
    spectrum: Spectrum | None = None,
    dense_limit: int = DENSE_LIMIT,
) -> NsVerdict:
    """Classify one cube at one energy; see classify_cube_energies."""
    return classify_cube_energies(cube, hm, [energy], m, N, spectrum, dense_limit)[0]


def classify_cube_energies(
    cube: Cube,
    hm: HamiltonianMatrix,
    energies,
    m: float,
    N: int,
    spectrum: Spectrum | None = None,
    dense_limit: int = DENSE_LIMIT,
) -> list[NsVerdict]:
    """Nonsingularity verdicts of one cube at many energies.

    The Hamiltonian must be built on exactly this cube.  The Green column
    from the cube's center (the Green function is symmetric) is the
    spectral sum g = V diag(1/(E_j - E)) V[c, :]^T, taken for blocks of
    energies at once.  Its residual r = (H - E) g - delta_c, widened by the
    round-off of computing it, bounds the error of each boundary entry by
    |(H - E)^-1 e_b| |r|; the first factor is bounded from the spectrum
    (|V[b, :] / (E_j - E)|, the residual bound, the orthonormality defect,
    and dist(E, spec H) >= gap - sqrt(size) * residual_bound).  Where the
    boundary maximum clears the threshold by more than that bound, and |r|
    is within RESIDUAL_TOL, both with a safety factor, the spectral sum
    gives the verdict; every other energy gets one factorized solve.  Where
    the Green function lies below the sum's round-off, the reported maximum
    is that round-off.  A verdict does not depend on which other energies
    share the call.

    Energies within the spectral-gap tolerance of the spectrum are resonant:
    the verdict is singular with the gap recorded and the boundary maximum
    reported as infinity, since no trustworthy finite value exists there;
    so is an energy whose factorized solve is not certified.
    """
    _require_cube_operator(cube, hm)
    if spectrum is None:
        spectrum = eigensolve(hm, dense_limit)
    threshold = ns_threshold(m, cube.radius, hm.n, N)
    gap_tol = GAP_RTOL * max(1.0, spectrum.norm_bound())
    center_row = hm.row_of(cube.center)
    boundary_rows = np.fromiter(
        (hm.row_of(v) for v in internal_boundary(cube)), dtype=np.intp
    )
    vectors = spectrum.eigenvectors
    boundary_squares = vectors[boundary_rows] ** 2
    slack = math.sqrt(spectrum.size) * spectrum.residual_bound  # >= |HV - V diag(E_j)|_2
    defect = spectrum.size * spectrum.orthonormality_defect  # >= |V^T V - I|_2
    # each row of (H - E) g sums at most `terms` products, of size <= row_sum |g|
    terms = int(np.max(np.diff(hm.matrix.indptr))) + 1
    row_sum = float(np.max(abs(hm.matrix).sum(axis=1)))
    energies = np.asarray(energies, dtype=float).reshape(-1)

    verdicts: list[NsVerdict] = []
    for start in range(0, len(energies), _PROBE_BLOCK):
        block = energies[start:start + _PROBE_BLOCK]
        diff = spectrum.eigenvalues[None, :] - block[:, None]
        gaps = np.min(np.abs(diff), axis=1)
        resonant = gaps <= gap_tol
        diff[resonant] = 1.0
        # every reduction below runs along one row, so a row's floats do not
        # depend on the rows beside it (a BLAS product may reorder its sums)
        green = np.einsum("pj,ij->pi", vectors[center_row] / diff, vectors, optimize=False)
        residual = (hm.matrix @ green.T).T - block[:, None] * green
        residual[:, center_row] -= 1.0
        column_norm = np.linalg.norm(green, axis=1)
        rounding = terms * np.finfo(float).eps * (row_sum + np.abs(block)) * column_norm
        residual_norm = np.linalg.norm(residual, axis=1) + rounding
        max_green = np.max(np.abs(green[:, boundary_rows]), axis=1)
        dist = gaps - slack
        with np.errstate(divide="ignore", invalid="ignore"):
            # |(H - E)^-1 e_b| <= |V| |a_b| + (slack |a_b| + defect) / dist,
            # with a_b = V[b, :] / (E_j - E)
            a_norm = np.sqrt(np.einsum("pj,bj->pb", diff**-2.0, boundary_squares, optimize=False))
            reach = np.max(
                a_norm * math.sqrt(1.0 + defect) + (slack * a_norm + defect) / dist[:, None],
                axis=1,
            )
        decided = (
            (dist > 0.0)
            & (_KERNEL_SAFETY * residual_norm <= RESIDUAL_TOL)
            & (np.abs(max_green - threshold) > _KERNEL_SAFETY * reach * residual_norm)
        )
        for k, energy in enumerate(block):
            gap = float(gaps[k])
            if resonant[k]:
                verdicts.append(NsVerdict(False, math.inf, threshold, -math.inf, gap))
            elif decided[k]:
                value = float(max_green[k])
                verdicts.append(
                    NsVerdict(value <= threshold, value, threshold, threshold - value, gap)
                )
            else:
                verdicts.append(
                    _lu_verdict(hm.dense(), center_row, boundary_rows, float(energy), threshold, gap)
                )
    return verdicts


def _lu_verdict(
    dense: np.ndarray,
    center_row: int,
    boundary_rows: np.ndarray,
    energy: float,
    threshold: float,
    gap: float,
) -> NsVerdict:
    """Verdict of one off-resonance energy from a factorized solve."""
    eye = np.eye(len(dense))
    rhs = eye[:, center_row].copy()
    shifted = dense - energy * eye
    lu = sla.lu_factor(shifted)
    g = sla.lu_solve(lu, rhs)
    resid = rhs - shifted @ g
    if np.linalg.norm(resid) > 1e-13:
        g = g + sla.lu_solve(lu, resid)
    if np.linalg.norm(rhs - shifted @ g) > RESIDUAL_TOL:
        # ill-conditioned beyond certification: treat as resonant
        return NsVerdict(False, math.inf, threshold, -math.inf, gap)
    max_green = float(np.max(np.abs(g[boundary_rows])))
    nonsingular = max_green <= threshold
    return NsVerdict(nonsingular, max_green, threshold, threshold - max_green, gap)


def _require_cube_operator(cube: Cube, hm: HamiltonianMatrix) -> None:
    if isinstance(hm.region, Cube):
        if hm.region == cube:
            return
    elif hm.region is not None:
        if hm.region == cube.as_rectangle():
            return
    else:
        raise ValueError("operator carries no region; build it on the cube first")
    raise ValueError("operator was not built on the cube being classified")
