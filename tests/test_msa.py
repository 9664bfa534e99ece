import itertools
import math

import numpy as np
import pytest

from mpanderson.disorder import DisorderRealization, DisorderSpec, sample
from mpanderson.geometry import ConfigPoint, Cube, single_particle_sites
from mpanderson.hamiltonian import build
from mpanderson.msa import (
    EXACT_BERNOULLI,
    MONTE_CARLO,
    MsaParams,
    NonSeparablePairError,
    canonical_pair,
    estimate_pair_probability,
    msa_report,
    pair_singular_event,
    probe_energies,
    scale_sequence,
    singularity_target,
    wilson_interval,
)
from mpanderson.spectral import eigensolve


def _params(**overrides):
    defaults = dict(
        N=1,
        n=1,
        d=1,
        m=0.5,
        p=7.0,
        h=0.0,
        interval=(0.0, 1.0),
        L_values=(1,),
        realizations=1,
        master_seed=0,
        energy_grid_step=1e-3,
        mode=MONTE_CARLO,
    )
    defaults.update(overrides)
    return MsaParams(**defaults)


def _pair(offset, n=1):
    u = ConfigPoint.origin(n, 1)
    return u, u.translate((offset,) + (0,) * (n - 1))


def _flat_realization(lo, hi, value=0.0):
    return DisorderRealization({(i,): value for i in range(lo, hi + 1)})


# ---------------------------------------------------------------------------
# scale sequence and reporting targets
# ---------------------------------------------------------------------------


def test_scale_sequence_values():
    assert scale_sequence(4, 3, 1.5) == [4, 8, 23]
    assert scale_sequence(5, 1) == [5]
    assert scale_sequence(3, 3, 2.0) == [3, 9, 81]


def test_scale_sequence_strictly_increasing():
    for L0, count, alpha in [(2, 8, 1.1), (3, 6, 1.5), (10, 4, 2.0)]:
        seq = scale_sequence(L0, count, alpha)
        assert all(a < b for a, b in zip(seq, seq[1:]))


def test_scale_sequence_domain():
    with pytest.raises(ValueError):
        scale_sequence(1, 3)
    with pytest.raises(ValueError):
        scale_sequence(4, 0)
    with pytest.raises(ValueError):
        scale_sequence(4, 3, alpha=1.0)


def test_singularity_target():
    assert singularity_target(10, 7.0, 1, 1) == pytest.approx(1e-14, rel=1e-12)
    assert singularity_target(10, 7.0, 2, 1) == pytest.approx(10.0 ** -56, rel=1e-12)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1.0
    lo, hi = wilson_interval(14, 100)
    assert lo < 0.14 < hi


# ---------------------------------------------------------------------------
# probe energies
# ---------------------------------------------------------------------------


def test_probe_energies_grid_and_eigenvalues():
    cube = Cube(ConfigPoint.origin(1, 1), 1)
    hm = build(cube, _flat_realization(-1, 1))
    spectrum = eigensolve(hm)
    probes = probe_energies((0.0, 1.0), 0.25, [spectrum])
    grid = {0.0, 0.25, 0.5, 0.75, 1.0}
    inside = {float(e) for e in spectrum.eigenvalues if 0.0 <= e <= 1.0}
    assert set(np.round(probes, 12)) == {round(v, 12) for v in grid | inside}


def test_probe_energies_zero_width():
    probes = probe_energies((0.4, 0.4), 1e-3, [])
    assert list(probes) == [0.4]


def test_probe_refinement_is_superset():
    coarse = probe_energies((0.0, 1.0), 1e-2, [])
    fine = probe_energies((0.0, 1.0), 5e-3, [])
    assert set(coarse).issubset(set(fine))


# ---------------------------------------------------------------------------
# pair events
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda u, v: pair_singular_event(u, v, 1, _params(), _flat_realization(-1, 4)),
        lambda u, v: estimate_pair_probability(
            u, v, 1, _params(mode=MONTE_CARLO), DisorderSpec.bernoulli(0, 1, 0.5)
        ),
        lambda u, v: estimate_pair_probability(
            u, v, 1, _params(mode=EXACT_BERNOULLI), DisorderSpec.bernoulli(0, 1, 0.5)
        ),
    ],
    ids=["pair_singular_event", "monte-carlo", "exact-bernoulli"],
)
def test_non_separable_pair_rejected(call):
    u, v = _pair(3)
    with pytest.raises(NonSeparablePairError, match="not a separable pair at L=1"):
        call(u, v)


def test_far_interval_event_false():
    # zero-width interval far below both spectra: both cubes nonsingular
    u, v = _pair(8)
    params = _params(interval=(-50.0, -50.0))
    real = _flat_realization(-1, 9)
    assert pair_singular_event(u, v, 1, params, real) is False


def test_shared_eigenvalue_event_true():
    # identical free cubes share eigenvalues exactly; the probe set contains
    # them, and resonance makes both cubes singular there
    u, v = _pair(8)
    params = _params(interval=(0.0, 4.0))
    real = _flat_realization(-1, 9)
    assert pair_singular_event(u, v, 1, params, real) is True


def test_flat_disorder_event_deterministic():
    u, v = _pair(8)
    params = _params(interval=(0.5, 0.6))
    spec = DisorderSpec.bernoulli(0, 1, 0.5, amplitude=0.0)
    region = sorted(
        single_particle_sites(Cube(u, 1)) | single_particle_sites(Cube(v, 1))
    )
    outcomes = {
        pair_singular_event(u, v, 1, params, sample(spec, region, 0, idx))
        for idx in range(5)
    }
    assert len(outcomes) == 1


def test_coupling_shared_sites_identical():
    # overlapping cubes under one realization read the same field
    spec = DisorderSpec.bernoulli(0, 8, 0.5)
    a, b = Cube(ConfigPoint.origin(1, 1), 3), Cube(ConfigPoint((2,), 1, 1), 3)
    region = sorted(single_particle_sites(a) | single_particle_sites(b))
    real = sample(spec, region, 31, 0)
    hm_a, hm_b = build(a, real), build(b, real)
    for site in set(hm_a.site_list) & set(hm_b.site_list):
        ia, ib = hm_a.row_of(site), hm_b.row_of(site)
        assert hm_a.dense()[ia, ia] == hm_b.dense()[ib, ib]


def test_grid_refinement_monotonicity():
    # a finer grid only adds probes, so per-realization events never flip off
    u, v = _pair(8)
    spec = DisorderSpec.bernoulli(0, 8, 0.5)
    region = sorted(
        single_particle_sites(Cube(u, 1)) | single_particle_sites(Cube(v, 1))
    )
    coarse = _params(interval=(0.0, 1.0), energy_grid_step=2e-2)
    fine = _params(interval=(0.0, 1.0), energy_grid_step=1e-2)
    for idx in range(40):
        real = sample(spec, region, 77, idx)
        if pair_singular_event(u, v, 1, coarse, real):
            assert pair_singular_event(u, v, 1, fine, real)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_exact_bernoulli_weights_sum_to_one():
    q = 0.37
    weights = [
        q ** sum(bits) * (1 - q) ** (6 - sum(bits))
        for bits in itertools.product((0, 1), repeat=6)
    ]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "spec, interval",
    [
        (DisorderSpec.bernoulli(0, 1, 0.5, amplitude=8.0), (0.5, 0.52)),
        # unequal weights and a nonzero lower value: a wrong weight or value
        # convention in the index decoding shows here, not with q = 1/2, a = 0
        (DisorderSpec.bernoulli(-1, 2, 0.3, amplitude=4.0), (-1.0, 0.0)),
    ],
    ids=["q0.5-a0", "q0.3-a-1"],
)
def test_exact_bernoulli_estimate_matches_direct_enumeration(spec, interval):
    u, v = _pair(8)
    params = _params(mode=EXACT_BERNOULLI, interval=interval)
    est = estimate_pair_probability(u, v, 1, params, spec, workers=1)
    assert estimate_pair_probability(u, v, 1, params, spec, workers=2) == est
    # independent oracle: enumerate configurations and classify from scratch
    region = sorted(
        single_particle_sites(Cube(u, 1)) | single_particle_sites(Cube(v, 1))
    )
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(region)):
        real = DisorderRealization(
            {site: spec.amplitude * spec.values[bit] for site, bit in zip(region, bits)}
        )
        if pair_singular_event(u, v, 1, params, real):
            total += math.prod(spec.probabilities[bit] for bit in bits)
    assert 0.0 < total < 1.0
    assert est.estimate == pytest.approx(total, abs=1e-14)
    assert est.ci_low == est.ci_high == est.estimate
    assert est.samples_used == 2 ** len(region)
    assert 0.0 <= est.estimate <= 1.0


def test_exact_bernoulli_requires_bernoulli():
    u, v = _pair(8)
    params = _params(mode=EXACT_BERNOULLI)
    with pytest.raises(ValueError):
        estimate_pair_probability(u, v, 1, params, DisorderSpec.uniform(0, 1))


def test_exact_bernoulli_site_limit():
    u, v = _pair(50)
    params = _params(mode=EXACT_BERNOULLI)
    spec = DisorderSpec.bernoulli(0, 1, 0.5)
    with pytest.raises(ValueError, match="exceeds"):
        estimate_pair_probability(u, v, 6, params, spec)


def test_monte_carlo_estimate_bounds_and_determinism():
    u, v = _pair(8)
    params = _params(realizations=40, interval=(0.5, 0.6), master_seed=5)
    spec = DisorderSpec.bernoulli(0, 1, 0.5, amplitude=8.0)
    one = estimate_pair_probability(u, v, 1, params, spec, workers=1)
    two = estimate_pair_probability(u, v, 1, params, spec, workers=2)
    assert one == two
    assert 0.0 <= one.ci_low <= one.estimate <= one.ci_high <= 1.0
    assert one.samples_used == 40
    assert one.target == pytest.approx(singularity_target(1, 7.0, 1, 1))


def test_canonical_pair_is_separable():
    from mpanderson.geometry import is_separable_pair

    for n, N, L in [(1, 1, 4), (2, 2, 3), (3, 3, 2)]:
        u, v = canonical_pair(n, 1, N, L)
        assert v.coords[0] == 7 * N * L + 1
        assert is_separable_pair(u, v, L, N)


def test_msa_report_single_row():
    params = _params(realizations=3, interval=(0.5, 0.52), L_values=(1,))
    spec = DisorderSpec.bernoulli(0, 1, 0.5, amplitude=8.0)
    report = msa_report(params, spec)
    assert len(report) == 1
    assert report[0].L == 1
    assert report[0].samples_used == 3


def test_params_validation():
    with pytest.raises(ValueError):
        _params(interval=(1.0, 0.0))
    with pytest.raises(ValueError):
        _params(realizations=0)
    with pytest.raises(ValueError):
        _params(m=0.0)
    with pytest.raises(ValueError):
        _params(mode="Magic")
    with pytest.raises(ValueError):
        _params(N=1, n=2)
