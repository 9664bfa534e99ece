import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpanderson.disorder import DisorderRealization, DisorderSpec, sample
from mpanderson.geometry import ConfigPoint, Cube, single_particle_sites, sites
from mpanderson.hamiltonian import InteractionSpec, build
from mpanderson.observables import (
    DEFAULT_SHELL_FLOOR,
    _max_vertex_quadratic,
    _moment_worker,
    _MomentJob,
    DecayFit,
    DecayFitError,
    decay_fit,
    disorder_averaged_moment,
    eigenfunction_correlator,
    hs_moment,
    moment_matrix,
    moment_samples,
    shell_maxima,
)
from mpanderson.spectral import Spectrum, _window_eigensolve, eigensolve


def _synthetic_spectrum(psi_values, radius):
    """Wrap an explicit amplitude profile on a 1d cube as a one-column Spectrum."""
    cube = Cube(ConfigPoint.origin(1, 1), radius)
    site_list = tuple(sites(cube))
    psi = np.array([psi_values(s.coords[0]) for s in site_list], dtype=float)
    psi = psi / np.linalg.norm(psi)
    return Spectrum(
        eigenvalues=np.array([0.0]),
        eigenvectors=psi[:, None],
        site_list=site_list,
        residual_bound=0.0,
        orthonormality_defect=0.0,
    )


def _random_spectrum(seed, L=5, amplitude=2.0):
    cube = Cube(ConfigPoint.origin(1, 1), L)
    spec = DisorderSpec.uniform(-1, 1, amplitude=amplitude)
    real = sample(spec, single_particle_sites(cube), seed, 0)
    hm = build(cube, real)
    return cube, eigensolve(hm)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------


def test_decay_fit_exact_exponential():
    spectrum = _synthetic_spectrum(lambda x: np.exp(-0.7 * abs(x)), radius=30)
    fit = decay_fit(spectrum, 0, center=ConfigPoint.origin(1, 1))
    assert fit.rate == pytest.approx(0.7, abs=1e-6)
    assert fit.r_squared > 0.999999
    assert fit.shells_used == 31


def test_decay_fit_default_center_is_argmax():
    spectrum = _synthetic_spectrum(lambda x: np.exp(-0.5 * abs(x - 3)), radius=20)
    fit = decay_fit(spectrum, 0)
    assert fit.center.coords == (3,)
    assert fit.rate == pytest.approx(0.5, abs=1e-6)


def test_decay_fit_free_chain_rates_near_zero():
    cube = Cube(ConfigPoint.origin(1, 1), 100)
    hm = build(cube, DisorderRealization({(i,): 0.0 for i in range(-100, 101)}))
    spectrum = eigensolve(hm)
    rates = np.array([abs(decay_fit(spectrum, j).rate) for j in range(spectrum.size)])
    # extended states: the bulk of the band fits an essentially flat envelope.
    # the two extreme band-edge states carry envelope curvature of ~0.024.
    assert np.median(rates) < 0.02
    assert np.percentile(rates, 95) < 0.02
    assert rates.max() < 0.03


def test_decay_fit_delta_function_fails():
    spectrum = _synthetic_spectrum(lambda x: 1.0 if x == 0 else 0.0, radius=10)
    with pytest.raises(DecayFitError):
        decay_fit(spectrum, 0, center=ConfigPoint.origin(1, 1))


def test_shell_maxima_buckets():
    cube = Cube(ConfigPoint.origin(1, 1), 2)
    site_list = sites(cube)
    psi = np.array([0.1, 0.5, 1.0, 0.25, 0.05])
    maxima = shell_maxima(psi, site_list, ConfigPoint.origin(1, 1))
    assert maxima == {0: 1.0, 1: 0.5, 2: 0.1}
    assert shell_maxima(np.zeros(0), [], ConfigPoint.origin(1, 1)) == {}


# The site-by-site loop that the array reduction replaced, kept as the oracle.


def _loop_shell_maxima(psi, site_list, center):
    out = {}
    for amplitude, site in zip(np.abs(psi), site_list):
        r = max(abs(a - b) for a, b in zip(site.coords, center.coords))
        if amplitude > out.get(r, 0.0):
            out[r] = float(amplitude)
    return out


def _loop_decay_fit(spectrum, eigen_index, center=None, min_shells=3, floor=DEFAULT_SHELL_FLOOR):
    psi = spectrum.eigenvectors[:, eigen_index]
    if center is None:
        center = spectrum.site_list[int(np.argmax(np.abs(psi)))]
    maxima = _loop_shell_maxima(psi, spectrum.site_list, center)
    radii = np.array(sorted(r for r, m in maxima.items() if m > floor), dtype=float)
    if len(radii) < min_shells:
        raise DecayFitError(f"only {len(radii)} shell(s) above the floor; need {min_shells}")
    logs = np.log([maxima[int(r)] for r in radii])
    slope, intercept = np.polyfit(radii, logs, 1)
    fitted = intercept + slope * radii
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 0.0 if ss_tot <= 1e-30 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(float(-slope), float(intercept), r_squared, len(radii), center, radii, logs)


def _bits(value):
    array = np.asarray(value)
    return array.dtype, array.shape, array.tobytes()


@st.composite
def _shell_cases(draw):
    """A 1-D or two-particle cube (sometimes with a far-away extra site, so
    the radii have gaps), three amplitude profiles with exact zeros, ties
    and round-off-sized entries, a centre (None, inside or outside the box),
    a floor (possibly <= 0) and min_shells."""
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 12 if n == 1 else 4))
    site_list = sites(Cube(ConfigPoint.origin(n, 1), L))
    if draw(st.booleans()):
        site_list.append(ConfigPoint((L + draw(st.integers(2, 40)),) * n, n, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = len(site_list)
    peak = site_list[int(rng.integers(size))].coords
    dist = np.array([max(abs(a - b) for a, b in zip(x.coords, peak)) for x in site_list])
    profiles = rng.uniform(0.5, 1.5, (size, 3)) * np.exp(-rng.uniform(0.0, 3.0, 3) * dist[:, None])
    profiles *= rng.choice([-1.0, 1.0], profiles.shape)
    profiles[rng.random(profiles.shape) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    profiles[rng.random(profiles.shape) < 0.1] = 1e-15
    profiles[:, 2] = np.round(profiles[:, 2], 1)  # ties, and many exact zeros
    if draw(st.booleans()):
        profiles[rng.integers(size), 1] = np.nan  # a loop's comparison skips it
    center = draw(
        st.one_of(
            st.none(),
            st.tuples(*[st.integers(-L - 6, L + 6)] * n).map(lambda c: ConfigPoint(c, n, 1)),
        )
    )
    floor = draw(st.sampled_from([DEFAULT_SHELL_FLOOR, 0.0, -1.0, 1e-3, 0.05]))
    min_shells = draw(st.sampled_from([2, 3]))
    return site_list, profiles, center, floor, min_shells


@settings(max_examples=150, deadline=None)
@given(_shell_cases())
def test_array_shell_maxima_and_fits_equal_the_loop(case):
    site_list, profiles, center, floor, min_shells = case
    spectrum = Spectrum(np.zeros(3), profiles, tuple(site_list), 0.0, 0.0)
    for j in range(3):
        psi = profiles[:, j]
        shell_center = center or site_list[int(np.argmax(np.abs(psi)))]
        maxima = shell_maxima(psi, site_list, shell_center)
        oracle = _loop_shell_maxima(psi, site_list, shell_center)
        assert maxima == oracle
        assert all(type(r) is int and type(m) is float and m > 0.0 for r, m in maxima.items())
        try:
            expected = _loop_decay_fit(spectrum, j, center, min_shells, floor)
        except DecayFitError:
            with pytest.raises(DecayFitError):
                decay_fit(spectrum, j, center, min_shells, floor)
            continue
        fit = decay_fit(spectrum, j, center, min_shells, floor)
        assert fit.center == expected.center
        assert fit.shells_used == expected.shells_used
        for field in ("rate", "intercept", "r_squared", "shell_radii", "shell_log_maxima"):
            assert _bits(getattr(fit, field)) == _bits(getattr(expected, field)), field


def test_array_fits_equal_the_loop_on_an_eigenbasis():
    cube = Cube(ConfigPoint.origin(1, 1), 60)
    spec = DisorderSpec.bernoulli(0.0, 1.0, amplitude=8.0)
    spectrum = eigensolve(build(cube, sample(spec, single_particle_sites(cube), 3, 0)))
    for j in range(spectrum.size):
        fit, expected = decay_fit(spectrum, j), _loop_decay_fit(spectrum, j)
        for field in ("rate", "intercept", "r_squared", "shell_radii", "shell_log_maxima"):
            assert _bits(getattr(fit, field)) == _bits(getattr(expected, field)), field


def test_distance_code_rejects_mismatched_inputs():
    site_list = sites(Cube(ConfigPoint.origin(1, 1), 2))
    origin = ConfigPoint.origin(1, 1)
    with pytest.raises(ValueError, match="7 eigenvector entries for 5 sites"):
        shell_maxima(np.ones(7), site_list, origin)
    with pytest.raises(ValueError, match="3 eigenvector entries for 5 sites"):
        shell_maxima(np.ones(3), site_list, origin)
    with pytest.raises(ValueError, match="different spaces"):
        shell_maxima(np.ones(5), site_list, ConfigPoint.origin(2, 1))
    pair_sites = sites(Cube(ConfigPoint.origin(2, 1), 1))
    with pytest.raises(ValueError, match="different spaces"):
        shell_maxima(np.ones(9), pair_sites, ConfigPoint.origin(1, 2))  # n*d agrees

    spectrum = _synthetic_spectrum(lambda x: np.exp(-abs(x)), radius=2)
    with pytest.raises(ValueError, match="different spaces"):
        decay_fit(spectrum, 0, center=ConfigPoint.origin(2, 1))
    with pytest.raises(ValueError, match="different spaces"):
        moment_matrix(spectrum, (-1.0, 1.0), 2.0, [origin], origin=ConfigPoint.origin(2, 1))
    too_long = Spectrum(np.zeros(1), np.ones((7, 1)), spectrum.site_list, 0.0, 0.0)
    with pytest.raises(ValueError, match="7 eigenvector entries for 5 sites"):
        decay_fit(too_long, 0)
    with pytest.raises(ValueError, match="7 eigenvector entries for 5 sites"):
        moment_matrix(too_long, (-1.0, 1.0), 2.0, [origin])


# ---------------------------------------------------------------------------
# HS moments
# ---------------------------------------------------------------------------


def test_hs_moment_rank_one_identity():
    cube, spectrum = _random_spectrum(0, L=4)
    # pick an interval holding exactly one eigenvalue
    E = spectrum.eigenvalues[3]
    gap = min(E - spectrum.eigenvalues[2], spectrum.eigenvalues[4] - E) / 3
    interval = (float(E - gap), float(E + gap))
    assert len(spectrum.indices_in(*interval)) == 1
    K = [x for x in spectrum.site_list if abs(x.coords[0]) <= 1]
    s = 1.3
    result = hs_moment(spectrum, interval, s, K)
    psi = spectrum.eigenvectors[:, 3]
    dist = np.array([abs(x.coords[0]) for x in spectrum.site_list], dtype=float)
    phi = dist ** (s / 2) * psi
    chi = psi * np.isin(np.arange(spectrum.size), [spectrum.site_list.index(k) for k in K])
    oracle = float(np.dot(phi, phi) * np.dot(chi, chi))
    assert result.value == pytest.approx(oracle, abs=1e-10)
    assert result.method == "ExactVertex"
    assert result.multiplicity == 1


def test_hs_moment_empty_interval():
    _, spectrum = _random_spectrum(1, L=3)
    result = hs_moment(spectrum, (100.0, 101.0), 2.0, list(spectrum.site_list))
    assert result.value == 0.0
    assert result.multiplicity == 0


def test_hs_moment_s_zero_full_region_counts_multiplicity():
    _, spectrum = _random_spectrum(2, L=4)
    lo, hi = float(spectrum.eigenvalues[2]) - 1e-9, float(spectrum.eigenvalues[6]) + 1e-9
    m = len(spectrum.indices_in(lo, hi))
    result = hs_moment(spectrum, (lo, hi), 0.0, list(spectrum.site_list))
    assert result.value == pytest.approx(m, abs=1e-8)


def test_moment_matrix_is_psd():
    for seed in range(5):
        _, spectrum = _random_spectrum(seed, L=4)
        K = [x for x in spectrum.site_list if x.coords[0] >= 0]
        B = moment_matrix(spectrum, (0.0, 3.0), 1.0, K)
        if B.size == 0:
            continue
        eigs = np.linalg.eigvalsh(B)
        assert eigs.min() >= -1e-10 * np.trace(B)


def test_vertex_max_dominates_random_signs():
    rng = np.random.default_rng(7)
    _, spectrum = _random_spectrum(3, L=5)
    K = [x for x in spectrum.site_list if abs(x.coords[0]) <= 2]
    interval = (0.0, 4.0)
    B = moment_matrix(spectrum, interval, 0.5, K)
    result = hs_moment(spectrum, interval, 0.5, K)
    m = B.shape[0]
    assert 2 <= m <= 20
    for _ in range(1000):
        c = rng.choice([-1.0, 1.0], size=m)
        assert c @ B @ c <= result.value + 1e-12
    assert result.value <= np.sum(np.abs(B)) + 1e-12


def test_hs_moment_monotone_in_K():
    _, spectrum = _random_spectrum(4, L=5)
    interval = (0.5, 3.5)
    ordered = sorted(spectrum.site_list, key=lambda x: abs(x.coords[0]))
    previous = 0.0
    for cut in range(1, len(ordered) + 1, 3):
        value = hs_moment(spectrum, interval, 1.0, ordered[:cut]).value
        assert value >= previous - 1e-12
        previous = value


# The enumeration with its earlier chunk of 1 << 16 sign vectors, kept as the oracle.


def _wide_chunk_max_vertex_quadratic(B):
    m = B.shape[0]
    if m == 0:
        return 0.0
    total = 1 << (m - 1)
    best = -math.inf
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        signs = np.empty((len(idx), m))
        signs[:, 0] = 1.0
        for k in range(1, m):
            signs[:, k] = 1.0 - 2.0 * ((idx >> np.uint64(k - 1)) & np.uint64(1)).astype(float)
        vals = np.einsum("ij,jk,ik->i", signs, B, signs)
        best = max(best, float(vals.max()))
    return best


def _random_psd(m, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m)) * rng.uniform(1e-3, 10.0, size=m)
    return A @ A.T


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 18), seed=st.integers(0, 2**32 - 1))
def test_vertex_enumeration_equals_the_wide_chunk_bit_for_bit(m, seed):
    B = _random_psd(m, seed)
    assert np.float64(_max_vertex_quadratic(B)).tobytes() == np.float64(
        _wide_chunk_max_vertex_quadratic(B)
    ).tobytes()


def test_vertex_enumeration_peak_memory_at_multiplicity_18():
    B = _random_psd(18, 1)

    def peak(enumerate_signs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            enumerate_signs(B)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    # 4096 x 18 signs (590 kB) plus the per-column temporaries
    assert peak(_max_vertex_quadratic) < 2_000_000
    # the measurement sees the 65536 x 18 signs (9.4 MB) of the wide chunk
    assert peak(_wide_chunk_max_vertex_quadratic) >= 9_000_000


def test_hs_moment_upper_bound_path():
    _, spectrum = _random_spectrum(5, L=5)
    K = list(spectrum.site_list)
    interval = (0.0, 4.0)
    exact = hs_moment(spectrum, interval, 1.0, K, vertex_limit=20)
    bound = hs_moment(spectrum, interval, 1.0, K, vertex_limit=1)
    assert exact.method == "ExactVertex"
    assert bound.method == "UpperBound"
    assert bound.value >= exact.value - 1e-12


def test_hs_moment_rejects_negative_s():
    _, spectrum = _random_spectrum(6, L=3)
    with pytest.raises(ValueError):
        hs_moment(spectrum, (0.0, 1.0), -0.5, list(spectrum.site_list))


def test_hs_moment_origin_offset():
    _, spectrum = _random_spectrum(7, L=3)
    K = list(spectrum.site_list)
    interval = (0.0, 4.0)
    shifted = hs_moment(spectrum, interval, 2.0, K, origin=ConfigPoint((2,), 1, 1))
    centered = hs_moment(spectrum, interval, 2.0, K)
    assert shifted.value != centered.value


# ---------------------------------------------------------------------------
# correlator
# ---------------------------------------------------------------------------


def test_correlator_completeness():
    _, spectrum = _random_spectrum(8, L=5)
    lo = float(spectrum.eigenvalues[0]) - 1
    hi = float(spectrum.eigenvalues[-1]) + 1
    Q = eigenfunction_correlator(spectrum, (lo, hi))
    assert np.max(np.abs(np.diag(Q) - 1.0)) < 1e-10
    assert np.max(np.abs(Q - Q.T)) < 1e-12
    assert Q.min() >= 0.0


def test_correlator_empty_interval():
    _, spectrum = _random_spectrum(9, L=3)
    Q = eigenfunction_correlator(spectrum, (50.0, 60.0))
    assert np.array_equal(Q, np.zeros_like(Q))


def test_correlator_two_site_toy():
    chain = [ConfigPoint((i,), 1, 1) for i in range(2)]
    from mpanderson.hamiltonian import assemble

    hm = assemble(chain, lambda x: 0.0, None, 0.0)
    spectrum = eigensolve(hm)
    # eigenvectors are (1, +-1)/sqrt(2)
    assert np.max(np.abs(np.abs(spectrum.eigenvectors) - 1 / np.sqrt(2))) < 1e-12
    Q = eigenfunction_correlator(spectrum, (0.0, 4.0))
    assert Q[0, 1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# disorder averaging
# ---------------------------------------------------------------------------


def test_disorder_averaged_moment_flat_disorder_degenerate():
    region = Cube(ConfigPoint.origin(1, 1), 4)
    spec = DisorderSpec.bernoulli(0, 1, 0.5, amplitude=0.0)
    K = [x for x in sites(region) if abs(x.coords[0]) <= 1]
    samples = moment_samples(region, spec, None, 0.0, (0.0, 2.0), 1.0, K, 5, 42)
    values = [r.value for r in samples]
    assert all(v == values[0] for v in values)
    mean = disorder_averaged_moment(region, spec, None, 0.0, (0.0, 2.0), 1.0, K, 5, 42)
    assert mean == pytest.approx(values[0])


def test_disorder_averaged_moment_single_realization():
    region = Cube(ConfigPoint.origin(1, 1), 3)
    spec = DisorderSpec.bernoulli(0, 2, 0.5)
    K = [x for x in sites(region) if abs(x.coords[0]) <= 1]
    only = moment_samples(region, spec, None, 0.0, (0.0, 3.0), 0.5, K, 1, 9)[0]
    mean = disorder_averaged_moment(region, spec, None, 0.0, (0.0, 3.0), 0.5, K, 1, 9)
    assert mean == pytest.approx(only.value)
    assert only.provenance == (9, 0)


def test_moment_samples_solve_in_the_swap_sectors():
    region = Cube(ConfigPoint.origin(2, 1), 4)
    spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0)
    ispec = InteractionSpec.sub_exponential()
    K = [x for x in sites(region) if max(map(abs, x.coords)) <= 1]
    results = moment_samples(region, spec, ispec, 0.5, (4.0, 5.0), 2.0, K, 3, 9)
    for index, result in enumerate(results):
        hm = build(region, sample(spec, single_particle_sites(region), 9, index), ispec, 0.5)
        window = _window_eigensolve(hm, (4.0, 5.0))
        assert window.size < hm.size  # only the window is solved
        expected = hs_moment(window, (4.0, 5.0), 2.0, K, provenance=(9, index))
        assert result == expected
        assert result.multiplicity > 0
        # the full sector solve gives the same method and multiplicity, and
        # the value up to round-off
        full = hs_moment(eigensolve(hm, sectors=True), (4.0, 5.0), 2.0, K, provenance=(9, index))
        assert (result.method, result.multiplicity) == (full.method, full.multiplicity)
        assert result.value == pytest.approx(full.value, rel=1e-8, abs=1e-15)


def test_moment_worker_holds_no_size_by_size_array():
    # one realization of the moment benchmark's settings (n = 2, L = 16,
    # 1089 sites), where one size x size float array is 9.49 MB; the window
    # solve peaked at 8.02-8.08 MB over realizations 0-5 of master seed 30001,
    # its largest arrays being the even sector block and eigh's copies of it
    region = Cube(ConfigPoint.origin(2, 1), 16)
    K = frozenset(x for x in sites(region) if max(map(abs, x.coords)) <= 1)
    spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0)
    job = _MomentJob(region, spec, InteractionSpec.sub_exponential(), 0.5, (2.0, 2.3), 2.0, K, 30001, 18, 4096)
    square = 1089 * 1089 * 8

    def peak(call):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert peak(lambda: _moment_worker(job, 0)) < 9_000_000 < square
    # the measurement sees the full solve's size x size eigenvectors
    hm = build(region, sample(spec, single_particle_sites(region), 30001, 0), job.ispec, 0.5)
    assert peak(lambda: eigensolve(hm, sectors=True)) >= square


def test_moment_sample_mean_stabilizes():
    # repeated runs with the same seeds are identical, and independent halves
    # of a longer run agree within a generous root-R error band
    region = Cube(ConfigPoint.origin(1, 1), 3)
    spec = DisorderSpec.bernoulli(0, 4, 0.5)
    K = [x for x in sites(region) if abs(x.coords[0]) <= 1]
    a = disorder_averaged_moment(region, spec, None, 0.0, (0.0, 1.0), 1.0, K, 12, 3)
    b = disorder_averaged_moment(region, spec, None, 0.0, (0.0, 1.0), 1.0, K, 12, 3)
    assert a == b
    values = np.array(
        [
            r.value
            for r in moment_samples(region, spec, None, 0.0, (0.0, 1.0), 1.0, K, 64, 3)
        ]
    )
    sem = values.std(ddof=1) / np.sqrt(32)
    assert abs(values[:32].mean() - values[32:].mean()) < 6 * sem + 1e-12
