"""Eigendecomposition, Green functions, and the cube nonsingularity test.

Desk-scale policy: everything is dense below a configurable size limit
(default 4096 sites); no iterative solvers.  On request (the moment and
spectrum tasks), an n >= 2 operator whose sites the swap P of particles 1
and 2 maps onto themselves is diagonalized in its two swap sectors: H
commutes with P there (every particle reads one field, and the interaction
and the Laplacian are symmetric), so it is block-diagonal in the sparse
orthonormal basis of e_x for P-fixed sites and (e_x +- e_Px)/sqrt(2) for
swapped pairs, and the even and odd blocks, about half the size each, are
solved densely.  The moment task needs only the eigenpairs with energy in an
interval I, and takes a window spectrum: per block, only the eigenpairs near
I, complete by Sylvester's law of inertia (the eigenvalues below each end of
the window counted from an LDL^T factorization).  A window spectrum's size
counts its eigenpairs, not the sites, and it never reaches the Green
function or cube entry points, which refuse it.  Whichever way it was found,
an eigendecomposition is certified against H itself (residual and
orthonormality).  Green functions of the real symmetric operator at real
off-spectrum energies are real.  Every Green column is the spectral sum
G(x, y; E) = sum_j psi_j(x) psi_j(y) / (E_j - E) over the certified
eigendecomposition, or, where its residual certificate cannot decide, one
factorized solve with one refinement step.

A cube is nonsingular at energy E for decay parameters (m, N) when E is
safely off the spectrum and the Green function from the cube's center to
every internal-boundary site is below exp(-gamma * L), where gamma is the
scale- and depth-dependent decay exponent.  Resonance (E within the
spectral-gap tolerance of an eigenvalue), like a column that neither
evaluation certifies, is a verdict of the cube test and a NearSpectrumError
of the Green-function entry points.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .geometry import ConfigPoint, Cube, coordinate_array, internal_boundary
from .hamiltonian import HamiltonianMatrix

DENSE_LIMIT = 4096

#: |E - nearest eigenvalue| below GAP_RTOL * max(1, |H|) counts as resonant
GAP_RTOL = 1e-12
#: certified bound on ||(H - E) g - delta||_2 for returned Green columns
RESIDUAL_TOL = 1e-8

#: the spectral-sum kernel decides a probe only with this factor to spare on
#: its error bound and on RESIDUAL_TOL
_KERNEL_SAFETY = 4.0
#: probes per spectral-sum block, which bounds the (probes x sites) temporaries
_PROBE_BLOCK = 128
#: rows per step of the certificate's in-place subtraction
_CERTIFY_ROWS = 128
#: the entry of e_x and of +-e_Px in a swapped pair's sector basis vector
_HALF_ROOT = math.sqrt(0.5)
#: margin of the window solve on each side of I, relative to 1 + |H|_inf
_WINDOW_PAD = 1e-8

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
    """Certified eigendecomposition of a finite-volume Hamiltonian.

    eigenvalues are ascending; eigenvector j is the column
    eigenvectors[:, j], indexed like the operator's site list.  A full
    spectrum holds one eigenpair per site.  A window spectrum (the moment
    task's) holds only the eigenpairs in an energy window; size counts
    eigenpairs either way, and the Green function and cube entry points
    refuse a spectrum with fewer eigenpairs than sites.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    site_list: tuple[ConfigPoint, ...]
    residual_bound: float
    orthonormality_defect: float

    @cached_property
    def coordinates(self) -> np.ndarray:
        """The sites' flat coordinates, one (n*d)-row per eigenvector entry."""
        if len(self.eigenvectors) != len(self.site_list):
            raise ValueError(
                f"{len(self.eigenvectors)} eigenvector entries for {len(self.site_list)} sites"
            )
        return coordinate_array(self.site_list)

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


def eigensolve(
    hm: HamiltonianMatrix, dense_limit: int = DENSE_LIMIT, *, sectors: bool = False
) -> Spectrum:
    """Dense symmetric eigendecomposition with a posteriori certificates.

    With sectors=True the solve splits into the swap sectors where it can:
    n >= 2, the swap of particles 1 and 2 maps the site list onto itself and
    moves some site, and H commutes with it up to round-off.  The even and
    odd blocks Q^T H Q are formed sparsely and solved densely, their
    eigenvalues merged by a stable sort, and the eigenvectors Q W written
    into one size x size array; the dense H is never formed, and the
    residual certificate is the sparse product H V.  Every other case (among
    them n = 1 and a Rectangle with unequal radii) takes the full dense
    solve, bit for bit as without the flag.

    LAPACK's dsyevr (scipy's default driver) runs first.  On rare clustered
    spectra its eigenvectors miss the orthonormality gate; dsyevd is then
    tried under the same gates, and only its failure raises.
    """
    _require_dense(hm, dense_limit)
    pairs = _swap_pairs(hm) if sectors else None
    operator = hm.dense() if pairs is None else hm.matrix
    for driver in (None, "evd"):
        if pairs is None:
            eigenvalues, eigenvectors = sla.eigh(operator, driver=driver)
        else:
            eigenvalues, eigenvectors = _sector_eigh(operator, *pairs, driver)
        residual_bound, defect, certified = _certify(operator, eigenvalues, eigenvectors)
        if certified:
            return Spectrum(
                eigenvalues=eigenvalues,
                eigenvectors=eigenvectors,
                site_list=hm.site_list,
                residual_bound=residual_bound,
                orthonormality_defect=defect,
            )
        if driver is None:
            logger.info(
                "dsyevr failed certification on %d sites (residual %.3e, "
                "orthonormality defect %.3e); retrying with dsyevd",
                hm.size, residual_bound, defect,
            )
    raise RuntimeError(
        f"eigendecomposition failed certification: residual {residual_bound:.3e}, "
        f"orthonormality defect {defect:.3e}"
    )


def _window_eigensolve(
    hm: HamiltonianMatrix, interval: tuple[float, float], dense_limit: int = DENSE_LIMIT
) -> Spectrum | None:
    """The certified eigenpairs with energy near the closed interval I (a
    window Spectrum), or None where the window is not certified.

    The blocks are those of eigensolve(hm, dense_limit, sectors=True): the
    even and odd swap-sector blocks where the swap splits H, else the dense
    H.  Each is solved by eigh(subset_by_value=(lo - pad, hi + pad)), where
    pad = _WINDOW_PAD * (1 + |H|_inf) lies far above any eigenvalue's
    round-off, so every eigenvalue whose computed value can lie in I is
    found; LAPACK's interval is half-open, and callers select I from the
    computed values.  The eigenpairs must pass the full solve's residual and
    orthonormality gates (against the sparse H), and each block's pair count
    must equal the count of its eigenvalues in the window by Sylvester's law
    of inertia.  Where either check fails, the failure is logged and None
    returned; the caller then takes the full eigensolve(hm, dense_limit,
    sectors=True).  An empty window is an empty certified Spectrum.
    """
    _require_dense(hm, dense_limit)
    pad = _WINDOW_PAD * (1.0 + float(abs(hm.matrix).sum(axis=1).max()))
    window = (interval[0] - pad, interval[1] + pad)
    pairs = _swap_pairs(hm)
    solved, miscounted = [], 0
    for block in [hm.dense()] if pairs is None else _sector_blocks(hm.matrix, *pairs):
        values, vectors, count = _block_window(block, window)
        miscounted += count != len(values)
        solved.append((values, vectors))
    eigenvalues, eigenvectors = solved[0] if pairs is None else _merge_sectors(*pairs, *solved)
    residual_bound, defect, certified = _certify(hm.matrix, eigenvalues, eigenvectors)
    if certified and not miscounted:
        return Spectrum(eigenvalues, eigenvectors, hm.site_list, residual_bound, defect)
    logger.info(
        "window solve on %d sites not certified (%d block(s) miscounted, residual %.3e, "
        "orthonormality defect %.3e)",
        hm.size, miscounted, residual_bound, defect,
    )
    return None


def _block_window(block: np.ndarray, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, int]:
    """A block's eigenpairs in the half-open window (lo, hi], as
    eigh(subset_by_value) finds them, and the inertia count of its
    eigenvalues there."""
    count = _count_below(block, window[1]) - _count_below(block, window[0])
    values, vectors = sla.eigh(block, subset_by_value=window)
    return values, vectors.copy(), count  # the copy frees eigh's block-sized output


def _count_below(block: np.ndarray, x: float) -> int:
    """The number of eigenvalues of a symmetric block below x, by Sylvester's
    law of inertia: the negative eigenvalues of D in the Bunch-Kaufman
    factorization block - x 1 = L D L^T (LAPACK dsytrf): the negative 1x1
    pivots, and the negative eigenvalues of each 2x2 pivot (two adjacent rows
    whose ipiv entries are negative)."""
    shifted = np.array(block, order="F")
    shifted[np.diag_indices_from(shifted)] -= x
    sytrf, sytrf_lwork = sla.get_lapack_funcs(("sytrf", "sytrf_lwork"), (shifted,))
    lwork, _ = sytrf_lwork(len(shifted), lower=1)
    factor, ipiv, info = sytrf(shifted, lower=1, lwork=int(lwork), overwrite_a=True)
    if info < 0:
        raise RuntimeError(f"dsytrf rejected argument {-info}")
    diagonal = np.diag(factor)
    paired = np.flatnonzero(ipiv < 0)
    first, second = paired[0::2], paired[1::2]
    pivots = np.empty((len(first), 2, 2))
    pivots[:, 0, 0], pivots[:, 1, 1] = diagonal[first], diagonal[second]
    pivots[:, 0, 1] = pivots[:, 1, 0] = factor[second, first]
    single = np.delete(diagonal, paired)
    return int(np.count_nonzero(single < 0.0) + np.count_nonzero(np.linalg.eigvalsh(pivots) < 0.0))


def _require_dense(hm: HamiltonianMatrix, dense_limit: int) -> None:
    if hm.size > dense_limit:
        raise SizeLimitError(
            f"region has {hm.size} sites, dense limit is {dense_limit}"
        )


def _swap_pairs(hm: HamiltonianMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Rows (fixed, lo, hi) of the sites the swap P of particles 1 and 2 fixes
    and of the swapped pairs, hi = P lo > lo; None unless n >= 2, P maps the
    sites onto themselves and moves some site, and |P H P - H| is at most
    round-off.  The map comes from sorting the coordinate array and its
    swapped copy, so it holds for any order of the site list."""
    if hm.n < 2:
        return None
    coords = coordinate_array(hm.site_list)
    swapped = coords.copy()
    swapped[:, : hm.d], swapped[:, hm.d : 2 * hm.d] = coords[:, hm.d : 2 * hm.d], coords[:, : hm.d]
    order = np.lexsort(coords.T[::-1])
    swapped_order = np.lexsort(swapped.T[::-1])
    if not np.array_equal(coords[order], swapped[swapped_order]):
        return None
    partner = np.empty(hm.size, dtype=np.intp)
    partner[swapped_order] = order  # site swapped_order[k] swaps to site order[k]
    rows = np.arange(hm.size)
    lo = np.flatnonzero(partner > rows)
    if not len(lo):
        return None
    commutator = abs(hm.matrix[partner][:, partner] - hm.matrix).max()
    if commutator > 1e-12 * (1.0 + abs(hm.matrix).max()):
        return None
    return np.flatnonzero(partner == rows), lo, partner[lo]


def _sector_eigh(
    matrix: sp.csr_matrix, fixed: np.ndarray, lo: np.ndarray, hi: np.ndarray, driver: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a swap-symmetric operator from its even and odd blocks."""
    even, odd = (sla.eigh(block, driver=driver) for block in _sector_blocks(matrix, fixed, lo, hi))
    return _merge_sectors(fixed, lo, hi, even, odd)


def _sector_blocks(matrix: sp.csr_matrix, fixed: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Yield the even block Q^T H Q, then the odd one, each formed sparsely
    and returned dense.  The even basis Q is e_x for the fixed rows and
    (e_lo + e_hi)/sqrt(2) per pair, the odd one (e_lo - e_hi)/sqrt(2)."""
    size, pair_count = matrix.shape[0], len(lo)
    even_size = len(fixed) + pair_count
    half = np.full(pair_count, _HALF_ROOT)
    pair_columns = np.arange(len(fixed), even_size)
    even = sp.csr_matrix(
        (
            np.concatenate([np.ones(len(fixed)), half, half]),
            (np.concatenate([fixed, lo, hi]), np.concatenate([np.arange(len(fixed)), pair_columns, pair_columns])),
        ),
        shape=(size, even_size),
    )
    yield (even.T @ matrix @ even).toarray()
    odd = sp.csr_matrix(
        (np.concatenate([half, -half]), (np.concatenate([lo, hi]), np.tile(np.arange(pair_count), 2))),
        shape=(size, pair_count),
    )
    yield (odd.T @ matrix @ odd).toarray()


def _merge_sectors(
    fixed: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    even: tuple[np.ndarray, np.ndarray],
    odd: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the operator from (values, vectors) of its even and odd
    blocks, all of each block's eigenpairs or some.  The merged eigenvalues
    ascend (a stable sort, even before odd on ties); each block's
    eigenvectors are mapped through the sector basis by writing them in
    place, scaled in their own array, into the result's columns."""
    (even_values, even_vectors), (odd_values, odd_vectors) = even, odd
    merged = np.concatenate([even_values, odd_values])
    order = np.argsort(merged, kind="stable")
    position = np.empty(len(merged), dtype=np.intp)
    position[order] = np.arange(len(merged))
    at_even, at_odd = position[: len(even_values)], position[len(even_values) :]
    vectors = np.zeros((len(fixed) + 2 * len(lo), len(merged)))
    vectors[fixed[:, None], at_even] = even_vectors[: len(fixed)]
    pair_part = even_vectors[len(fixed) :]
    pair_part *= _HALF_ROOT
    vectors[lo[:, None], at_even] = pair_part
    vectors[hi[:, None], at_even] = pair_part
    odd_vectors *= _HALF_ROOT
    vectors[lo[:, None], at_odd] = odd_vectors
    vectors[hi[:, None], at_odd] = np.negative(odd_vectors, out=odd_vectors)
    return merged[order], vectors


def _certify(
    operator, eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> tuple[float, float, bool]:
    """(residual bound, orthonormality defect, both within their gates).

    The operator is H as a dense array or a sparse matrix, and V holds all
    eigenpairs or a window of them (none certify trivially).  Beside the
    inputs it holds one array at a time (the residual, of V's shape, then
    the Gram matrix) and row chunks of V diag(E).  Each elementwise step runs in
    place on the operands, and in the layout, that
    max_j |(H V - V diag(E))_j| and max |V^T V - 1| written with temporaries
    use, so the certificates are the same floats.
    """
    residual_bound = _residual_bound(operator, eigenvalues, eigenvectors)
    gram = eigenvectors.T @ eigenvectors
    gram.flat[:: len(gram) + 1] -= 1.0
    defect = float(np.max(np.abs(gram, out=gram), initial=0.0))
    return residual_bound, defect, residual_bound <= _residual_gate(eigenvalues) and defect <= 1e-10


def _residual_bound(operator, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> float:
    """max_j |H v_j - E_j v_j|_2 (0 for no eigenpairs), through one array of V's shape."""
    residual = operator @ eigenvectors
    for start in range(0, len(residual), _CERTIFY_ROWS):
        rows = slice(start, start + _CERTIFY_ROWS)
        residual[rows] -= eigenvectors[rows] * eigenvalues
    residual *= residual
    return float(np.max(np.sqrt(np.add.reduce(residual, axis=0)), initial=0.0))


def _residual_gate(eigenvalues: np.ndarray) -> float:
    """The largest residual bound a certified eigendecomposition may have."""
    return 1e-8 * (1.0 + float(np.max(np.abs(eigenvalues), initial=0.0)))


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------


def _resonance_tol(spectrum: Spectrum) -> float:
    return GAP_RTOL * max(1.0, spectrum.norm_bound())


def _spectral_columns(hm: HamiltonianMatrix, spectrum: Spectrum, row: int, energies: np.ndarray):
    """Yield per block of at most _PROBE_BLOCK energies: the block, the columns
    g = V diag(1/(E_j - E)) V[row, :]^T, the norms |(H - E) g - delta_row|
    widened by the round-off of computing them, the gaps to the spectrum,
    and the denominators E_j - E (set to 1, and g meaningless, if resonant)."""
    vectors = spectrum.eigenvectors
    gap_tol = _resonance_tol(spectrum)
    # each row of (H - E) g sums at most `terms` products, of size <= row_sum |g|
    terms = int(np.max(np.diff(hm.matrix.indptr))) + 1
    row_sum = float(np.max(abs(hm.matrix).sum(axis=1)))
    for start in range(0, len(energies), _PROBE_BLOCK):
        block = energies[start:start + _PROBE_BLOCK]
        diff = spectrum.eigenvalues[None, :] - block[:, None]
        gaps = np.min(np.abs(diff), axis=1)
        diff[gaps <= gap_tol] = 1.0
        # every reduction below runs along one row, so a row's floats do not
        # depend on the rows beside it (a BLAS product may reorder its sums)
        green = np.einsum("pj,ij->pi", vectors[row] / diff, vectors, optimize=False)
        residual = (hm.matrix @ green.T).T - block[:, None] * green
        residual[:, row] -= 1.0
        column_norm = np.linalg.norm(green, axis=1)
        rounding = terms * np.finfo(float).eps * (row_sum + np.abs(block)) * column_norm
        yield block, green, np.linalg.norm(residual, axis=1) + rounding, gaps, diff


def _lu_column(dense: np.ndarray, row: int, energy: float) -> np.ndarray:
    """(H - E)^-1 delta_row by a factorized solve and one refinement step;
    NearSpectrumError when the refined residual exceeds RESIDUAL_TOL."""
    eye = np.eye(len(dense))
    rhs = eye[:, row].copy()
    shifted = dense - energy * eye
    lu = sla.lu_factor(shifted)
    g = sla.lu_solve(lu, rhs)
    resid = rhs - shifted @ g
    if np.linalg.norm(resid) > 1e-13:
        g = g + sla.lu_solve(lu, resid)
    norm = float(np.linalg.norm(rhs - shifted @ g))
    if norm > RESIDUAL_TOL:
        raise NearSpectrumError(
            f"Green solve residual {norm:.3e} exceeds {RESIDUAL_TOL} at E={energy}"
        )
    return g


class GreenSolver:
    """Certified Green columns of one operator at one energy, cached per source.

    A column is the spectral sum when its residual is within RESIDUAL_TOL
    with the kernel's safety factor to spare, else a factorized solve; each
    satisfies |(H - E) g - delta_y| <= RESIDUAL_TOL or raises
    NearSpectrumError, as does an energy within the spectral-gap tolerance.
    Rows are sites or integers 0..size-1.  Without a spectrum the
    constructor pays for eigensolve(hm, dense_limit), not an LU
    factorization, as classify_cube does: resonance is the spectral gap, not
    a condition estimate, and a region above dense_limit raises
    SizeLimitError.  A spectrum taken on other sites raises ValueError.
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
        self._spectrum = _own_spectrum(spectrum, hm, dense_limit)
        self._columns: dict[int, np.ndarray] = {}
        gap = self._spectrum.gap_to(self.energy)
        if gap <= _resonance_tol(self._spectrum):
            raise NearSpectrumError(
                f"energy {energy} within resolution of the spectrum (gap {gap:.3e})"
            )

    def _row(self, x: ConfigPoint | int) -> int:
        if isinstance(x, ConfigPoint):
            return self.hm.row_of(x)
        i = operator.index(x)
        if not 0 <= i < self.hm.size:
            raise ValueError(f"row {i} outside 0..{self.hm.size - 1}")
        return i

    def column(self, y: ConfigPoint | int) -> np.ndarray:
        """Green column G(., y; E), i.e. the solution of (H - E) g = delta_y."""
        j = self._row(y)
        if j not in self._columns:
            _, columns, residual_norm, _, _ = next(
                _spectral_columns(self.hm, self._spectrum, j, np.array([self.energy]))
            )
            if _KERNEL_SAFETY * residual_norm[0] <= RESIDUAL_TOL:
                self._columns[j] = columns[0]
            else:
                self._columns[j] = _lu_column(self.hm.dense(), j, self.energy)
        return self._columns[j]

    def green(self, x: ConfigPoint | int, y: ConfigPoint | int) -> float:
        return float(self.column(y)[self._row(x)])


def green(
    hm: HamiltonianMatrix,
    energy: float,
    x: ConfigPoint,
    y: ConfigPoint,
    spectrum: Spectrum | None = None,
    dense_limit: int = DENSE_LIMIT,
) -> float:
    """Green function <delta_x, (H - E)^{-1} delta_y>, certified as in GreenSolver
    (so above dense_limit without a spectrum it raises SizeLimitError)."""
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

    The Hamiltonian must be built on exactly this cube, and a given
    spectrum taken on its sites (ValueError otherwise).  The Green column
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
    spectrum = _own_spectrum(spectrum, hm, dense_limit)
    threshold = ns_threshold(m, cube.radius, hm.n, N)
    gap_tol = _resonance_tol(spectrum)
    center_row = hm.row_of(cube.center)
    boundary_rows = np.fromiter(
        (hm.row_of(v) for v in internal_boundary(cube)), dtype=np.intp
    )
    boundary_squares = spectrum.eigenvectors[boundary_rows] ** 2
    slack = math.sqrt(spectrum.size) * spectrum.residual_bound  # >= |HV - V diag(E_j)|_2
    defect = spectrum.size * spectrum.orthonormality_defect  # >= |V^T V - I|_2
    energies = np.asarray(energies, dtype=float).reshape(-1)

    verdicts: list[NsVerdict] = []
    blocks = _spectral_columns(hm, spectrum, center_row, energies)
    for block, green, residual_norm, gaps, diff in blocks:
        resonant = gaps <= gap_tol
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
        decided = resonant | (
            (dist > 0.0)
            & (_KERNEL_SAFETY * residual_norm <= RESIDUAL_TOL)
            & (np.abs(max_green - threshold) > _KERNEL_SAFETY * reach * residual_norm)
        )
        max_green[resonant] = math.inf
        for k, energy in enumerate(block):
            gap = float(gaps[k])
            if decided[k]:
                verdicts.append(_verdict(float(max_green[k]), threshold, gap))
            else:
                verdicts.append(
                    _lu_verdict(hm.dense(), center_row, boundary_rows, float(energy), threshold, gap)
                )
    return verdicts


def _verdict(max_green: float, threshold: float, gap: float) -> NsVerdict:
    return NsVerdict(max_green <= threshold, max_green, threshold, threshold - max_green, gap)


def _lu_verdict(
    dense: np.ndarray,
    center_row: int,
    boundary_rows: np.ndarray,
    energy: float,
    threshold: float,
    gap: float,
) -> NsVerdict:
    """Verdict of one off-resonance energy from a factorized solve."""
    try:
        g = _lu_column(dense, center_row, energy)
    except NearSpectrumError:  # ill-conditioned beyond certification: resonant
        return _verdict(math.inf, threshold, gap)
    return _verdict(float(np.max(np.abs(g[boundary_rows]))), threshold, gap)


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


def _own_spectrum(spectrum: Spectrum | None, hm: HamiltonianMatrix, dense_limit: int) -> Spectrum:
    """eigensolve(hm, dense_limit) when no spectrum is given; else the given
    spectrum, with ValueError unless it is taken on the operator's sites and
    its eigenpairs pass the certificate's residual gate against the operator
    (so the spectrum of another realization on the same sites is refused)
    and holds all of the operator's eigenpairs (a window spectrum does not)."""
    if spectrum is None:
        return eigensolve(hm, dense_limit)
    if spectrum.site_list is not hm.site_list and spectrum.site_list != hm.site_list:
        raise ValueError("spectrum was not computed on the operator's sites")
    if spectrum.size != hm.size:
        raise ValueError(
            f"spectrum holds {spectrum.size} of the operator's {hm.size} eigenpairs; "
            "a full eigendecomposition is required"
        )
    residual = _residual_bound(hm.matrix, spectrum.eigenvalues, spectrum.eigenvectors)
    if not residual <= _residual_gate(spectrum.eigenvalues):
        raise ValueError(
            f"spectrum is not an eigendecomposition of the operator (residual {residual:.3e})"
        )
    return spectrum
