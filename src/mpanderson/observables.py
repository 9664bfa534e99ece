"""Empirical localization observables: eigenfunction decay and HS moments.

Decay is measured per eigenvector by shell maxima: M_r is the largest
amplitude at sup-distance r from a localization center, and the decay rate
is minus the least-squares slope of log M_r against r.  Distances are array
reductions over the spectrum's integer coordinate array (built once per
spectrum): the sup-distance of every site from a point is one max over
|coords - point|, and the shell maxima are one exact fmax.at, so they are
the same floats a site-by-site loop finds; the decay fit and the moment
weight |X|^{s/2} share that reduction.

The dynamical-localization quantity is, per realization, the supremum over
real bounded functions |f| <= 1 of the squared Hilbert-Schmidt norm of
|X|^{s/2} f(H) P_I 1_K.  In the finite-volume eigenbasis this supremum is a
quadratic form: writing phi_j = |X|^{s/2} psi_j and chi_j = psi_j
restricted to K for the eigenvectors with energy in I, the norm equals
c^T B c with c_j = f(E_j) in [-1, 1] and

    B[k, j] = <phi_k, phi_j> * <chi_j, chi_k>.

B is a Hadamard product of two Gram matrices, hence positive semidefinite,
so the maximum over the cube [-1, 1]^mI is attained at a sign vector; it is
enumerated exactly up to a configurable multiplicity limit and otherwise
bounded from above by the absolute entry sum.

Since B reads only the eigenpairs with energy in I, the moment task solves
only I: each realization takes a certified window of the spectrum (the
eigenpairs near I, per swap sector, complete by an inertia count), and the
full eigendecomposition only where that window fails its certificates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _parallel
from .disorder import DisorderSpec, sample
from .geometry import ConfigPoint, Region, _check_same_space, single_particle_sites
from .hamiltonian import InteractionSpec, build
from .spectral import DENSE_LIMIT, Spectrum, _window_eigensolve, eigensolve

logger = logging.getLogger(__name__)

EXACT_VERTEX = "ExactVertex"
UPPER_BOUND = "UpperBound"

DEFAULT_SHELL_FLOOR = 1e-14
DEFAULT_VERTEX_LIMIT = 20


class DecayFitError(ValueError):
    """Too few usable shells to fit an exponential profile."""


@dataclass
class DecayFit:
    """Least-squares exponential envelope |psi(x)| ~ exp(intercept - rate*r)."""

    rate: float
    intercept: float
    r_squared: float
    shells_used: int
    center: ConfigPoint
    shell_radii: np.ndarray
    shell_log_maxima: np.ndarray


def _sup_distances(
    coordinates: np.ndarray, site_list: Sequence[ConfigPoint], point: ConfigPoint
) -> np.ndarray:
    """Sup-distance of every site (a row of coordinates) from the point."""
    _check_same_space(point, site_list[0])
    return np.max(np.abs(coordinates - np.array(point.coords, dtype=np.int64)), axis=1)


def _shell_profile(
    spectrum: Spectrum, eigen_index: int, center: ConfigPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending radii whose shell maximum of |psi_j| is positive, and those
    maxima.  Exact: each maximum is one of the amplitudes, and, as a
    site-by-site comparison would, fmax skips NaN amplitudes.  Radii count
    from the nearest shell, so a far-off center costs no more than a near one."""
    distances = _sup_distances(spectrum.coordinates, spectrum.site_list, center)
    lo = int(np.min(distances))
    maxima = np.zeros(int(np.max(distances)) - lo + 1)
    np.fmax.at(maxima, distances - lo, np.abs(spectrum.eigenvectors[:, eigen_index]))
    positive = maxima > 0.0
    return np.arange(lo, lo + len(maxima))[positive], maxima[positive]


def shell_maxima(
    psi: np.ndarray, site_list: Iterable[ConfigPoint], center: ConfigPoint
) -> dict[int, float]:
    """Max |psi| over the sites at each sup-distance from the center; a
    shell whose maximum is 0 has no key.  psi is taken as a one-vector
    Spectrum, so it goes through decay_fit's reduction and checks."""
    spectrum = Spectrum(np.zeros(1), np.reshape(psi, (-1, 1)), tuple(site_list), 0.0, 0.0)
    if not len(spectrum.coordinates):
        return {}
    radii, maxima = _shell_profile(spectrum, 0, center)
    return dict(zip(radii.tolist(), maxima.tolist()))


def decay_fit(
    spectrum: Spectrum,
    eigen_index: int,
    center: ConfigPoint | None = None,
    min_shells: int = 3,
    floor: float = DEFAULT_SHELL_FLOOR,
) -> DecayFit:
    """Fit the exponential decay rate of one eigenvector.

    The localization center defaults to the amplitude maximum.  Shells whose
    maximum falls below the underflow floor are discarded; fewer than
    min_shells usable shells raise DecayFitError.
    """
    if center is None:
        amplitude = np.abs(spectrum.eigenvectors[:, eigen_index])
        center = spectrum.site_list[int(np.argmax(amplitude))]
    radii, maxima = _shell_profile(spectrum, eigen_index, center)
    used = maxima > floor
    radii = radii[used].astype(float)
    if len(radii) < min_shells:
        raise DecayFitError(
            f"only {len(radii)} shell(s) above the floor; need {min_shells}"
        )
    logs = np.log(maxima[used])
    slope, intercept = np.polyfit(radii, logs, 1)
    fitted = intercept + slope * radii
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 0.0 if ss_tot <= 1e-30 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(
        rate=float(-slope),
        intercept=float(intercept),
        r_squared=r_squared,
        shells_used=len(radii),
        center=center,
        shell_radii=radii,
        shell_log_maxima=logs,
    )


# ---------------------------------------------------------------------------
# Hilbert-Schmidt dynamical-localization moment
# ---------------------------------------------------------------------------


@dataclass
class MomentResult:
    """Per-realization sup over |f| <= 1 of the squared HS norm."""

    s: float
    interval: tuple[float, float]
    value: float
    method: str
    multiplicity: int
    provenance: tuple[int, int] | None = None


def moment_matrix(
    spectrum: Spectrum,
    interval: tuple[float, float],
    s: float,
    K: Iterable[ConfigPoint],
    origin: ConfigPoint | None = None,
) -> np.ndarray:
    """The quadratic-form matrix B over the eigenvectors with energy in I."""
    if s < 0:
        raise ValueError("only weights with s >= 0 are implemented")
    site_list = spectrum.site_list
    if origin is None:
        origin = ConfigPoint.origin(site_list[0].n, site_list[0].d)
    dist = _sup_distances(spectrum.coordinates, site_list, origin).astype(float)
    lo, hi = interval
    indices = spectrum.indices_in(lo, hi)
    if len(indices) == 0:
        return np.zeros((0, 0))
    weight = dist ** (s / 2.0) if s > 0 else np.ones_like(dist)
    vectors = spectrum.eigenvectors[:, indices]
    phi = weight[:, None] * vectors
    k_set = {k if isinstance(k, ConfigPoint) else ConfigPoint(tuple(k), site_list[0].n, site_list[0].d) for k in K}
    mask = np.array([x in k_set for x in site_list], dtype=float)
    chi = mask[:, None] * vectors
    return (phi.T @ phi) * (chi.T @ chi)


def _max_vertex_quadratic(B: np.ndarray) -> float:
    """Exact max of c^T B c over sign vectors c, exploiting c ~ -c symmetry."""
    m = B.shape[0]
    if m == 0:
        return 0.0
    total = 1 << (m - 1)
    best = -math.inf
    chunk = 1 << 12  # 4096 x m signs: 590 kB at m = 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        signs = np.empty((len(idx), m))
        signs[:, 0] = 1.0
        for k in range(1, m):
            signs[:, k] = 1.0 - 2.0 * ((idx >> np.uint64(k - 1)) & np.uint64(1)).astype(float)
        vals = np.einsum("ij,jk,ik->i", signs, B, signs)
        best = max(best, float(vals.max()))
    return best


def hs_moment(
    spectrum: Spectrum,
    interval: tuple[float, float],
    s: float,
    K: Iterable[ConfigPoint],
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    origin: ConfigPoint | None = None,
    provenance: tuple[int, int] | None = None,
) -> MomentResult:
    """Sup over |f| <= 1 of ||X|^{s/2} f(H) P_I 1_K||_HS^2 for one spectrum.

    Exact (vertex-enumerated) when the spectral multiplicity in I is at most
    vertex_limit; otherwise the absolute entry sum of B is reported as an
    upper bound.  An empty I gives value 0.

    Numerically degenerate eigenvalues inside I get independent coefficients
    (functions constant on a cluster span a subset of the search space, so
    the computed sup stays an upper-consistent value); clusters are logged.
    """
    selected = spectrum.eigenvalues[spectrum.indices_in(*interval)]
    clusters = int(np.count_nonzero(np.diff(selected) < 1e-10))
    if clusters:
        logger.info(
            "hs_moment: %d numerically degenerate eigenvalue pair(s) in I; "
            "cluster coefficients treated independently",
            clusters,
        )
    B = moment_matrix(spectrum, interval, s, K, origin)
    m = B.shape[0]
    if m <= vertex_limit:
        value = _max_vertex_quadratic(B) if m else 0.0
        method = EXACT_VERTEX
    else:
        value = float(np.sum(np.abs(B)))
        method = UPPER_BOUND
    return MomentResult(
        s=s,
        interval=(float(interval[0]), float(interval[1])),
        value=max(0.0, value),
        method=method,
        multiplicity=m,
        provenance=provenance,
    )


def eigenfunction_correlator(
    spectrum: Spectrum, interval: tuple[float, float]
) -> np.ndarray:
    """Q(x, y) = sum over E_j in I of |psi_j(x)| |psi_j(y)|, a symmetric
    nonnegative localization diagnostic with Q(x, x) <= 1, equal to 1 when I
    covers the whole spectrum."""
    lo, hi = interval
    indices = spectrum.indices_in(lo, hi)
    if len(indices) == 0:
        return np.zeros((spectrum.size, spectrum.size))
    block = np.abs(spectrum.eigenvectors[:, indices])
    return block @ block.T


# ---------------------------------------------------------------------------
# Disorder averaging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MomentJob:
    region: Region
    disorder_spec: DisorderSpec
    ispec: InteractionSpec | None
    h: float
    interval: tuple[float, float]
    s: float
    K: frozenset[ConfigPoint]
    master_seed: int
    vertex_limit: int
    dense_limit: int


def _moment_worker(job: _MomentJob, index: int) -> MomentResult:
    realization = sample(
        job.disorder_spec, single_particle_sites(job.region), job.master_seed, index
    )
    hm = build(job.region, realization, job.ispec, job.h)
    spectrum = _window_eigensolve(hm, job.interval, job.dense_limit)
    if spectrum is None:  # the window failed a certificate
        spectrum = eigensolve(hm, job.dense_limit, sectors=True)
    return hs_moment(
        spectrum,
        job.interval,
        job.s,
        job.K,
        vertex_limit=job.vertex_limit,
        provenance=(job.master_seed, index),
    )


def moment_samples(
    region: Region,
    disorder_spec: DisorderSpec,
    ispec: InteractionSpec | None,
    h: float,
    interval: tuple[float, float],
    s: float,
    K: Iterable[ConfigPoint],
    realizations: int,
    master_seed: int,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    dense_limit: int = DENSE_LIMIT,
    workers: int = 1,
) -> list[MomentResult]:
    """Per-realization HS moments for independent disorder samples."""
    if realizations < 1:
        raise ValueError("need at least one realization")
    job = _MomentJob(
        region=region,
        disorder_spec=disorder_spec,
        ispec=ispec,
        h=h,
        interval=(float(interval[0]), float(interval[1])),
        s=s,
        K=frozenset(K),
        master_seed=master_seed,
        vertex_limit=vertex_limit,
        dense_limit=dense_limit,
    )
    return _parallel.run_indexed(_moment_worker, job, realizations, workers)


def disorder_averaged_moment(
    region: Region,
    disorder_spec: DisorderSpec,
    ispec: InteractionSpec | None,
    h: float,
    interval: tuple[float, float],
    s: float,
    K: Iterable[ConfigPoint],
    realizations: int,
    master_seed: int,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    dense_limit: int = DENSE_LIMIT,
    workers: int = 1,
) -> float:
    """Finite-sample mean of the per-realization HS moments."""
    results = moment_samples(
        region,
        disorder_spec,
        ispec,
        h,
        interval,
        s,
        K,
        realizations,
        master_seed,
        vertex_limit,
        dense_limit,
        workers,
    )
    return float(np.mean([r.value for r in results]))
