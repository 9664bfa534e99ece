"""Pair-singularity probability estimation across a growing scale sequence.

The measured event, for a separable pair of same-radius cubes under one
shared disorder realization, is: some probe energy in the target interval
makes BOTH cubes singular.  The continuum "exists E in I" is approximated
by a uniform energy grid augmented with every finite-volume eigenvalue of
the two cubes lying in I; singularity concentrates near spectra, so the
augmented grid catches resonances a uniform grid of any practical step
would miss.  Estimates are therefore grid-relative.

A cube is singular at each of its own eigenvalues (the verdict there is
resonant), so the pair event includes "the other cube is singular at one
of this cube's eigenvalues".  For Bernoulli potentials the eigenvalues of
isolated dimers cluster (for the {0, 8} chain, "8 0 0 8" dimers near
E ~ 0.883, where the Lyapunov exponent dips to ~ 0.76), and at small m
this is the main way the event occurs.

Two estimators: plain Monte Carlo over counter-seeded realizations (Wilson
confidence intervals, appropriate for rare events), and exact enumeration
of all Bernoulli potential configurations on small regions, which serves as
the ground-truth oracle for the Monte Carlo path.  Both run one
realization-indexed loop (realization i is the i-th sample or the i-th
configuration), so the worker count applies to both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .disorder import BERNOULLI, DisorderRealization, DisorderSpec, sample
from .geometry import ConfigPoint, Cube, is_separable_pair, single_particle_sites
from .hamiltonian import InteractionSpec, build
from .spectral import DENSE_LIMIT, Spectrum, classify_cube_energies, eigensolve

MONTE_CARLO = "MonteCarlo"
EXACT_BERNOULLI = "ExactBernoulli"

#: ExactBernoulli enumerates 2^(#sites) configurations; hard cap on #sites
EXACT_SITE_LIMIT = 20

_WILSON_Z95 = 1.959963984540054


class NonSeparablePairError(ValueError):
    """The two cube centers fail the separability precondition."""


@dataclass(frozen=True)
class MsaParams:
    """Parameters of one pair-probability measurement.

    p only enters the reported comparison target L^(-2p*4^(N-n)); the
    theoretical constraint p > 6Nd is displayed by the harness, never
    enforced.
    """

    N: int
    n: int
    d: int
    m: float
    p: float
    h: float
    interval: tuple[float, float]
    L_values: tuple[int, ...]
    realizations: int
    master_seed: int
    energy_grid_step: float = 1e-3
    mode: str = MONTE_CARLO
    dense_limit: int = DENSE_LIMIT

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.N:
            raise ValueError(f"need 1 <= n <= N, got n={self.n}, N={self.N}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.m <= 0:
            raise ValueError("mass m must be positive")
        lo, hi = self.interval
        if lo > hi:
            raise ValueError("interval must satisfy E_lo <= E_hi")
        if self.energy_grid_step <= 0:
            raise ValueError("energy grid step must be positive")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.mode not in (MONTE_CARLO, EXACT_BERNOULLI):
            raise ValueError(f"unknown estimation mode {self.mode!r}")


@dataclass(frozen=True)
class PairEstimate:
    """Estimated probability that a separable pair is jointly singular."""

    L: int
    estimate: float
    ci_low: float
    ci_high: float
    target: float
    samples_used: int
    energy_points_used: int


def scale_sequence(L0: int, count: int, alpha: float = 1.5) -> list[int]:
    """Length scales [L0, ceil(L0^alpha), ...], strictly increasing."""
    if L0 < 2:
        raise ValueError("initial scale must be >= 2")
    if count < 1:
        raise ValueError("need at least one scale")
    if alpha <= 1:
        raise ValueError("growth exponent must exceed 1")
    out = [L0]
    for _ in range(count - 1):
        raw = float(out[-1]) ** alpha
        snapped = round(raw)
        value = snapped if abs(raw - snapped) < 1e-9 else math.ceil(raw)
        out.append(int(value))
    return out


def singularity_target(L: int, p: float, N: int, n: int) -> float:
    """Comparison bound L^(-2p * 4^(N-n))."""
    return float(L) ** (-2.0 * p * 4.0 ** (N - n))


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval; safer than the normal interval for rare events."""
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def canonical_pair(n: int, d: int, N: int, L: int) -> tuple[ConfigPoint, ConfigPoint]:
    """Origin versus origin shifted by 7NL+1 along the first coordinate.

    The shifted configuration's first particle is far from every other
    single-particle cube, so the pair is always separable, and runs at
    different L stay geometrically comparable.
    """
    u = ConfigPoint.origin(n, d)
    shift = (7 * N * L + 1,) + (0,) * (n * d - 1)
    return u, u.translate(shift)


def probe_energies(
    interval: tuple[float, float], step: float, spectra: list[Spectrum]
) -> np.ndarray:
    """Uniform grid over the interval, augmented with all eigenvalues in it."""
    lo, hi = float(interval[0]), float(interval[1])
    count = int(math.floor((hi - lo) / step + 1e-9))
    grid = lo + step * np.arange(count + 1)
    points = [grid]
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        points.append(np.array([hi]))
    for spectrum in spectra:
        eigs = spectrum.eigenvalues
        points.append(eigs[(eigs >= lo) & (eigs <= hi)])
    return np.unique(np.concatenate(points))


def _pair_event(
    u: ConfigPoint,
    v: ConfigPoint,
    L: int,
    params: MsaParams,
    realization: DisorderRealization,
    ispec: InteractionSpec | None,
) -> tuple[bool, int]:
    """(event occurred, number of probe energies examined)."""
    cube_u, cube_v = Cube(u, L), Cube(v, L)
    hm_u = build(cube_u, realization, ispec, params.h)
    hm_v = build(cube_v, realization, ispec, params.h)
    spec_u = eigensolve(hm_u, params.dense_limit)
    spec_v = eigensolve(hm_v, params.dense_limit)
    probes = probe_energies(params.interval, params.energy_grid_step, [spec_u, spec_v])

    verdicts_u = classify_cube_energies(
        cube_u, hm_u, probes, params.m, params.N, spec_u, params.dense_limit
    )
    candidates = [e for e, verdict in zip(probes, verdicts_u) if not verdict.nonsingular]
    if not candidates:
        return False, len(probes)
    verdicts_v = classify_cube_energies(
        cube_v, hm_v, candidates, params.m, params.N, spec_v, params.dense_limit
    )
    return any(not verdict.nonsingular for verdict in verdicts_v), len(probes)


def _require_separable(u: ConfigPoint, v: ConfigPoint, L: int, N: int) -> None:
    if not is_separable_pair(u, v, L, N):
        raise NonSeparablePairError(
            f"centers {u.coords} and {v.coords} are not a separable pair at L={L}"
        )


def pair_singular_event(
    u: ConfigPoint,
    v: ConfigPoint,
    L: int,
    params: MsaParams,
    realization: DisorderRealization,
    ispec: InteractionSpec | None = None,
) -> bool:
    """True iff some probe energy makes both cubes singular under the shared
    realization.  The pair must be separable at scale L."""
    _require_separable(u, v, L, params.N)
    event, _ = _pair_event(u, v, L, params, realization, ispec)
    return event


@dataclass(frozen=True)
class _PairJob:
    u: ConfigPoint
    v: ConfigPoint
    L: int
    params: MsaParams
    disorder_spec: DisorderSpec
    ispec: InteractionSpec | None
    region: tuple[tuple[int, ...], ...]


def _pair_worker(job: _PairJob, index: int) -> tuple[bool, int]:
    """Realization index is the index-th counter-seeded sample (MonteCarlo) or
    the index-th Bernoulli configuration, in itertools.product order: site k
    of the m-site region reads bit m-1-k of index (ExactBernoulli)."""
    spec, m = job.disorder_spec, len(job.region)
    if job.params.mode == EXACT_BERNOULLI:
        values = {
            site: spec.amplitude * spec.values[(index >> (m - 1 - k)) & 1]
            for k, site in enumerate(job.region)
        }
        realization = DisorderRealization(values=values, provenance=None)
    else:
        realization = sample(spec, job.region, job.params.master_seed, index)
    return _pair_event(job.u, job.v, job.L, job.params, realization, job.ispec)


def estimate_pair_probability(
    u: ConfigPoint,
    v: ConfigPoint,
    L: int,
    params: MsaParams,
    disorder_spec: DisorderSpec,
    ispec: InteractionSpec | None = None,
    workers: int = 1,
) -> PairEstimate:
    """Probability that the pair is jointly singular somewhere in the interval.

    MonteCarlo mode averages the event over counter-seeded realizations;
    ExactBernoulli mode enumerates every potential configuration on the
    region (Bernoulli measure only, at most EXACT_SITE_LIMIT sites) and
    returns the exact probability, with the interval degenerate.  Both run
    one realization-indexed loop, on `workers` processes.
    """
    _require_separable(u, v, L, params.N)
    disorder_spec.validate()
    region = tuple(
        sorted(single_particle_sites(Cube(u, L)) | single_particle_sites(Cube(v, L)))
    )
    exact = params.mode == EXACT_BERNOULLI
    if exact and disorder_spec.kind != BERNOULLI:
        raise ValueError("exact enumeration requires a Bernoulli disorder spec")
    if exact and len(region) > EXACT_SITE_LIMIT:
        raise ValueError(
            f"exact enumeration over {len(region)} sites exceeds the limit {EXACT_SITE_LIMIT}"
        )
    count = 2 ** len(region) if exact else params.realizations
    job = _PairJob(u=u, v=v, L=L, params=params, disorder_spec=disorder_spec, ispec=ispec, region=region)
    outcomes = _parallel.run_indexed(_pair_worker, job, count, workers)
    max_probes = max(probes for _, probes in outcomes)
    if exact:
        q, m = disorder_spec.probabilities[1], len(region)
        estimate = 0.0
        for index, (event, _) in enumerate(outcomes):
            if event:
                ones = index.bit_count()
                estimate += q**ones * (1.0 - q) ** (m - ones)
        ci_low = ci_high = estimate
    else:
        hits = sum(1 for event, _ in outcomes if event)
        estimate = hits / count
        ci_low, ci_high = wilson_interval(hits, count)
    return PairEstimate(
        L=L,
        estimate=estimate,
        ci_low=ci_low,
        ci_high=ci_high,
        target=singularity_target(L, params.p, params.N, params.n),
        samples_used=count,
        energy_points_used=max_probes,
    )


def msa_report(
    params: MsaParams,
    disorder_spec: DisorderSpec,
    ispec: InteractionSpec | None = None,
    workers: int = 1,
) -> list[PairEstimate]:
    """One PairEstimate per scale in L_values, on the canonical pair."""
    out = []
    for L in params.L_values:
        u, v = canonical_pair(params.n, params.d, params.N, L)
        out.append(
            estimate_pair_probability(u, v, L, params, disorder_spec, ispec, workers)
        )
    return out
