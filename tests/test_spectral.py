import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from mpanderson import spectral
from mpanderson.disorder import DisorderRealization, DisorderSpec, sample
from mpanderson.geometry import ConfigPoint, Cube, Rectangle, internal_boundary, single_particle_sites
from mpanderson.hamiltonian import InteractionSpec, assemble, build
from mpanderson.spectral import (
    GAP_RTOL,
    GreenSolver,
    NearSpectrumError,
    NsVerdict,
    SizeLimitError,
    classify_cube,
    classify_cube_energies,
    eigensolve,
    gamma,
    green,
    ns_threshold,
)


def path_spectrum(length):
    """Analytic eigenvalues of the free chain: 2 - 2 cos(j pi / (l + 1))."""
    j = np.arange(1, length + 1)
    return 2.0 - 2.0 * np.cos(j * np.pi / (length + 1))


def _free_chain(length):
    sites = [ConfigPoint((i,), 1, 1) for i in range(length)]
    return assemble(sites, lambda x: 0.0, None, 0.0)


def _random_cube_instance(seed, L=3, n=1):
    cube = Cube(ConfigPoint.origin(n, 1), L)
    spec = DisorderSpec.uniform(-1, 1, amplitude=1.5)
    real = sample(spec, single_particle_sites(cube), seed, 0)
    return cube, build(cube, real)


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", [3, 6, 50])
def test_path_graph_spectrum(length):
    spectrum = eigensolve(_free_chain(length))
    assert np.max(np.abs(spectrum.eigenvalues - path_spectrum(length))) < 1e-10


def test_single_site_spectrum():
    v = -0.3
    cube = Cube(ConfigPoint.origin(1, 1), 0)
    hm = build(cube, DisorderRealization({(0,): v}))
    spectrum = eigensolve(hm)
    assert spectrum.eigenvalues[0] == pytest.approx(2.0 + v.real, abs=1e-14)
    assert abs(abs(spectrum.eigenvectors[0, 0]) - 1.0) < 1e-14


def test_product_region_minkowski_sum():
    rng = np.random.default_rng(8)
    rect = Rectangle(((0,), (9,)), (2, 3))
    region = sorted(single_particle_sites(rect))
    real = DisorderRealization(
        {s: float(v) for s, v in zip(region, rng.uniform(-2, 2, len(region)))}
    )
    two = eigensolve(build(rect, real, None, h=0.0))
    # oracle: tensor sum of the two single-particle windows
    left = eigensolve(build(Rectangle(((0,),), (2,)), real))
    right = eigensolve(build(Rectangle(((9,),), (3,)), real))
    oracle = np.sort(np.add.outer(left.eigenvalues, right.eigenvalues).ravel())
    assert np.max(np.abs(two.eigenvalues - oracle)) < 1e-8


def test_eigensolve_invariants():
    _, hm = _random_cube_instance(0, L=6)
    spectrum = eigensolve(hm)
    assert spectrum.size == hm.size
    assert spectrum.orthonormality_defect <= 1e-10
    assert spectrum.residual_bound <= 1e-8 * (1.0 + np.max(np.abs(spectrum.eigenvalues)))
    assert np.all(np.diff(spectrum.eigenvalues) >= 0)


#: a {0, 8} chain whose spectrum has a gap of 5e-6, on which dsyevr's
#: eigenvectors have an orthonormality defect of ~1.2e-10 (OpenBLAS 0.3.31)
_CLUSTERED_CHAIN = "080088008880808008088888880808008"


def _clustered_chain():
    cube = Cube(ConfigPoint.origin(1, 1), 16)
    values = {(i - 16,): float(digit) for i, digit in enumerate(_CLUSTERED_CHAIN)}
    return build(cube, DisorderRealization(values))


def test_eigensolve_certifies_clustered_bernoulli_chain():
    hm = _clustered_chain()
    spectrum = eigensolve(hm)
    assert spectrum.orthonormality_defect <= 1e-10
    assert spectrum.residual_bound <= 1e-8 * (1.0 + spectrum.norm_bound())
    assert np.min(np.diff(spectrum.eigenvalues)) < 1e-5
    oracle = np.linalg.eigvalsh(hm.dense())
    assert np.max(np.abs(spectrum.eigenvalues - oracle)) < 1e-12


def test_eigensolve_retries_dsyevd_when_dsyevr_fails(monkeypatch):
    hm = _clustered_chain()
    real_eigh = sla.eigh
    drivers = []

    def skewed_default(a, driver=None):
        drivers.append(driver)
        values, vectors = real_eigh(a, driver=driver)
        if driver is None:
            vectors = vectors.copy()
            vectors[:, 0] *= 1.0 + 1e-9  # fails the orthonormality gate
        return values, vectors

    monkeypatch.setattr(spectral.sla, "eigh", skewed_default)
    spectrum = eigensolve(hm)
    assert drivers == [None, "evd"]
    assert spectrum.orthonormality_defect <= 1e-10

    def always_skewed(a, driver=None):
        values, vectors = real_eigh(a, driver=driver)
        return values, vectors * (1.0 + 1e-9)

    monkeypatch.setattr(spectral.sla, "eigh", always_skewed)
    with pytest.raises(RuntimeError, match="failed certification"):
        eigensolve(hm)


# The certificate expression that _certify replaced, kept as the oracle.


def _temporaries_certify(dense, eigenvalues, eigenvectors):
    residual = dense @ eigenvectors - eigenvectors * eigenvalues
    residual_bound = float(np.max(np.linalg.norm(residual, axis=0)))
    gram = eigenvectors.T @ eigenvectors
    defect = float(np.max(np.abs(gram - np.eye(len(eigenvalues)))))
    scale = 1.0 + float(np.max(np.abs(eigenvalues)))
    return residual_bound, defect, residual_bound <= 1e-8 * scale and defect <= 1e-10


def _certificate_bits(certificate):
    residual_bound, defect, certified = certificate
    return np.float64(residual_bound).tobytes(), np.float64(defect).tobytes(), certified


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    driver=st.sampled_from([None, "evd"]),
    skew=st.sampled_from([0.0, 1e-12, 1e-9]),
    shift=st.sampled_from([0.0, 1e-6, 1.0]),
)
def test_certify_matches_the_temporaries_expression(size, seed, driver, skew, shift):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(size, size))
    dense = dense + dense.T
    eigenvalues, eigenvectors = sla.eigh(dense, driver=driver)
    eigenvectors[:, 0] *= 1.0 + skew  # a defect on the diagonal (skew > 0)
    eigenvalues += shift * rng.normal(size=size)  # residuals far above round-off
    assert _certificate_bits(spectral._certify(dense, eigenvalues, eigenvectors)) == _certificate_bits(
        _temporaries_certify(dense, eigenvalues, eigenvectors)
    )


def test_certify_matches_the_temporaries_expression_on_a_clustered_chain():
    dense = _clustered_chain().dense()
    for driver in (None, "evd"):
        eigenvalues, eigenvectors = sla.eigh(dense, driver=driver)
        assert _certificate_bits(spectral._certify(dense, eigenvalues, eigenvectors)) == _certificate_bits(
            _temporaries_certify(dense, eigenvalues, eigenvectors)
        )


def test_certify_peak_memory_below_two_matrices_beyond_its_inputs():
    cube = Cube(ConfigPoint.origin(1, 1), 200)
    spec = DisorderSpec.bernoulli(0.0, 1.0, amplitude=8.0)
    dense = build(cube, sample(spec, single_particle_sites(cube), 1, 0)).dense()
    eigenvalues, eigenvectors = sla.eigh(dense)
    matrix_bytes = dense.nbytes

    def peak_beyond_inputs(certify):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            certify(dense, eigenvalues, eigenvectors)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    # one size x size array (the residual, then the Gram matrix) plus row chunks
    assert peak_beyond_inputs(spectral._certify) < 2 * matrix_bytes
    # the measurement sees the temporaries of the old expression
    assert peak_beyond_inputs(_temporaries_certify) >= 3 * matrix_bytes


def test_eigensolve_size_limit():
    hm = _free_chain(10)
    with pytest.raises(SizeLimitError):
        eigensolve(hm, dense_limit=9)
    with pytest.raises(SizeLimitError):
        green(hm, -1.0, hm.site_list[0], hm.site_list[1], dense_limit=9)
    with pytest.raises(SizeLimitError):
        GreenSolver(hm, -1.0, dense_limit=9)


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------


def test_green_scalar_region():
    v = 0.8
    cube = Cube(ConfigPoint.origin(1, 1), 0)
    hm = build(cube, DisorderRealization({(0,): v}))
    x = cube.center
    for E in (-1.0, 0.5, 2.0):
        assert green(hm, E, x, x) == pytest.approx(1.0 / (2.0 + v - E), abs=1e-12)


def test_green_three_site_hand_inverse():
    # chain on sites {0,1,2}: G(0,0; E=0) = first diagonal entry of H^{-1}
    cube = Cube(ConfigPoint((1,), 1, 1), 1)
    hm = build(cube, DisorderRealization({(0,): 0.0, (1,): 0.0, (2,): 0.0}))
    x0 = ConfigPoint((0,), 1, 1)
    oracle = np.linalg.inv(hm.dense())[0, 0]
    assert oracle == pytest.approx(0.75, abs=1e-14)
    assert green(hm, 0.0, x0, x0) == pytest.approx(0.75, abs=1e-12)


def test_green_symmetry_and_residual_probes():
    rng = np.random.default_rng(17)
    for trial in range(50):
        cube, hm = _random_cube_instance(trial, L=4)
        spectrum = eigensolve(hm)
        E = float(rng.uniform(-2, 8))
        if spectrum.gap_to(E) < 1e-6:
            continue
        solver = GreenSolver(hm, E, spectrum)
        i, j = rng.integers(0, hm.size, size=2)
        x, y = hm.site_list[i], hm.site_list[j]
        assert abs(solver.green(x, y) - solver.green(y, x)) <= 1e-10
        g = solver.column(y)
        resid = np.linalg.norm((hm.dense() - E * np.eye(hm.size)) @ g - np.eye(hm.size)[:, j])
        assert resid <= 1e-8


def test_green_near_spectrum_raises():
    _, hm = _random_cube_instance(2, L=3)
    spectrum = eigensolve(hm)
    E = float(spectrum.eigenvalues[1])
    with pytest.raises(NearSpectrumError):
        green(hm, E, hm.site_list[0], hm.site_list[1], spectrum)
    # also without a spectrum: the solver's own eigensolve must catch it
    with pytest.raises(NearSpectrumError):
        green(hm, E, hm.site_list[0], hm.site_list[1])


def test_green_requires_sites_in_region():
    _, hm = _random_cube_instance(3, L=2)
    outside = ConfigPoint((99,), 1, 1)
    with pytest.raises(ValueError):
        green(hm, -10.0, outside, hm.site_list[0])


def test_green_solver_rows_accept_any_integer():
    _, hm = _random_cube_instance(5, L=3)
    solver = GreenSolver(hm, 0.7)
    oracle = GreenSolver(hm, 0.7)
    assert np.array_equal(solver.column(np.int64(0)), oracle.column(hm.site_list[0]))
    assert solver.green(np.intp(1), 0) == oracle.green(hm.site_list[1], hm.site_list[0])
    for bad in (-1, hm.size):
        with pytest.raises(ValueError):
            solver.column(bad)
        with pytest.raises(ValueError):
            solver.green(bad, 0)


@st.composite
def _green_cases(draw):
    """A small cube operator, its spectrum, a source row and probe energies.

    The last energy sits 1e-10..1e-9 from an eigenvalue, sourced where that
    eigenvector peaks, so that the spectral sum's certificate cannot pass.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        n, L, ispec, h = 1, draw(st.integers(0, 6)), None, 0.0
    else:
        n, L = 2, draw(st.integers(0, 2))
        ispec, h = InteractionSpec.sub_exponential(), draw(st.sampled_from([0.5, 1.0]))
    if draw(st.booleans()):
        spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0)
    else:
        spec = DisorderSpec.uniform(-1.0, 1.0, amplitude=1.5)
    cube = Cube(ConfigPoint.origin(n, 1), L)
    hm = build(cube, sample(spec, single_particle_sites(cube), seed, 0), ispec, h)
    spectrum = eigensolve(hm)
    eigs = spectrum.eigenvalues
    probes = []
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.integers(0, hm.size - 1))
        if draw(st.booleans()):
            k = draw(st.integers(0, 1000))
            probes.append((row, float(eigs[0] - 1.0 + k * 1e-3 * (eigs[-1] - eigs[0] + 2.0))))
        else:
            sign = draw(st.sampled_from([-1.0, 1.0]))
            offset = sign * 10.0 ** draw(st.floats(-11.0, -6.0))
            probes.append((row, float(eigs[draw(st.integers(0, len(eigs) - 1))]) + offset))
    j = draw(st.integers(0, len(eigs) - 1))
    row = int(np.argmax(np.abs(spectrum.eigenvectors[:, j])))
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-10.0, -9.0))
    probes.append((row, float(eigs[j]) + offset))
    return hm, spectrum, probes


@settings(max_examples=80, deadline=None)
@given(case=_green_cases())
def test_green_columns_match_dense_solve(case):
    hm, spectrum, probes = case
    lu_column = spectral._lu_column
    calls = []

    def counted(*args):
        calls.append(args)
        return lu_column(*args)

    eye = np.eye(hm.size)
    eps = np.finfo(float).eps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_lu_column", counted)
        for row, E in probes:
            dist = spectrum.gap_to(E) - math.sqrt(spectrum.size) * spectrum.residual_bound
            before = len(calls)
            try:
                got = GreenSolver(hm, E, spectrum).column(row)
            except NearSpectrumError:
                # neither the spectral sum nor the factorized solve certified
                # the column: only a probe near an eigenvalue may end so
                assert spectrum.gap_to(E) < 1e-6
                with pytest.raises(NearSpectrumError):
                    GreenSolver(hm, E).column(row)
                continue
            if spectrum.gap_to(E) >= 1e-3:  # far from the spectrum the sum certifies
                assert len(calls) == before
            assert np.array_equal(GreenSolver(hm, E).column(hm.site_list[row]), got)
            shifted = hm.dense() - E * eye
            want = np.linalg.solve(shifted, eye[:, row])
            residuals = np.linalg.norm(shifted @ got - eye[:, row]) + np.linalg.norm(
                shifted @ want - eye[:, row]
            )
            rounding = (
                (hm.size + 1) * eps * np.linalg.norm(shifted, np.inf)
                * (np.linalg.norm(got) + np.linalg.norm(want))
            )
            assert dist > 0
            assert np.linalg.norm(got - want) <= (residuals + rounding) / dist
    assert calls, "the near-eigenvalue probe never reached the factorized solve"
    # an energy at an eigenvalue is refused, with or without a spectrum
    E = float(spectrum.eigenvalues[len(spectrum.eigenvalues) // 2])
    with pytest.raises(NearSpectrumError):
        GreenSolver(hm, E, spectrum)
    with pytest.raises(NearSpectrumError):
        green(hm, E, hm.site_list[0], hm.site_list[0])


# ---------------------------------------------------------------------------
# decay exponent
# ---------------------------------------------------------------------------


def test_gamma_values():
    assert gamma(2.0, 256, 1, 1) == 3.0
    assert gamma(1.0, 256, 1, 2) == pytest.approx(2.25, abs=0)
    big = gamma(1.0, 10**8, 3, 3)
    assert 1.0 < big < 1.11


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma(0.0, 8, 1, 1)
    with pytest.raises(ValueError):
        gamma(1.0, 0, 1, 1)
    with pytest.raises(ValueError):
        gamma(1.0, 8, 2, 1)


def test_gamma_monotonicity_grid():
    masses = np.linspace(0.1, 3.0, 10)
    scales = np.unique(np.logspace(0.1, 3, 10).astype(int))
    for m in masses:
        for depth in range(3):
            values = [gamma(m, int(L), 1, 1 + depth) for L in scales]
            assert all(a > b for a, b in zip(values, values[1:]))
    for L in scales:
        for depth in range(3):
            values = [gamma(float(m), int(L), 1, 1 + depth) for m in masses]
            assert all(a < b for a, b in zip(values, values[1:]))
    for m in masses:
        for L in scales:
            values = [gamma(float(m), int(L), 1, 1 + depth) for depth in range(3)]
            assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_radius_zero_cube():
    v = 0.6
    cube = Cube(ConfigPoint.origin(1, 1), 0)
    hm = build(cube, DisorderRealization({(0,): v}))
    spectrum = eigensolve(hm)
    assert internal_boundary(cube) == {cube.center}
    E = 0.0
    verdict = classify_cube(cube, hm, E, m=1.0, N=1, spectrum=spectrum)
    value = abs(1.0 / (2.0 + v - E))
    assert verdict.threshold == 1.0
    assert verdict.max_boundary_green == pytest.approx(value, rel=1e-12)
    assert verdict.nonsingular == (value <= 1.0)
    # an energy close enough to the single eigenvalue flips the verdict
    near = classify_cube(cube, hm, 2.0 + v - 0.5, m=1.0, N=1, spectrum=spectrum)
    assert not near.nonsingular


def test_classify_far_below_spectrum_nonsingular():
    for L in (2, 4, 8):
        cube, hm = _random_cube_instance(L, L=L)
        spectrum = eigensolve(hm)
        E = float(spectrum.eigenvalues[0]) - 1e6
        for m in (0.25, 1.0):
            verdict = classify_cube(cube, hm, E, m=m, N=1, spectrum=spectrum)
            assert verdict.nonsingular
            # brute-check against a direct dense solve
            shifted = hm.dense() - E * np.eye(hm.size)
            g = np.linalg.solve(shifted, np.eye(hm.size)[:, hm.row_of(cube.center)])
            brute = max(abs(g[hm.row_of(v)]) for v in internal_boundary(cube))
            assert verdict.max_boundary_green == pytest.approx(brute, rel=1e-9)


def test_classify_at_eigenvalue_is_singular():
    cube, hm = _random_cube_instance(9, L=3)
    spectrum = eigensolve(hm)
    E = float(spectrum.eigenvalues[2])
    verdict = classify_cube(cube, hm, E, m=1.0, N=1, spectrum=spectrum)
    assert not verdict.nonsingular
    assert verdict.spectral_gap <= 1e-12 * max(1.0, spectrum.norm_bound())
    assert verdict.max_boundary_green == math.inf


def test_classify_coherence_and_green_agreement():
    rng = np.random.default_rng(23)
    for trial in range(20):
        cube, hm = _random_cube_instance(100 + trial, L=3)
        spectrum = eigensolve(hm)
        E = float(rng.uniform(-1, 7))
        verdict = classify_cube(cube, hm, E, m=0.7, N=2, spectrum=spectrum)
        if verdict.nonsingular:
            assert verdict.spectral_gap > 0
        if not math.isinf(verdict.max_boundary_green):
            solver = GreenSolver(hm, E, spectrum)
            oracle = max(
                abs(solver.green(cube.center, v)) for v in internal_boundary(cube)
            )
            assert verdict.max_boundary_green == pytest.approx(oracle, rel=1e-10)
        assert verdict.margin == pytest.approx(
            verdict.threshold - verdict.max_boundary_green
        )


def test_classify_requires_matching_region():
    cube, hm = _random_cube_instance(4, L=2)
    other = Cube(ConfigPoint((1,), 1, 1), 2)
    with pytest.raises(ValueError):
        classify_cube(other, hm, 0.0, m=1.0, N=1)


def test_spectrum_of_other_sites_rejected():
    cube, hm = _random_cube_instance(4, L=3)
    other = Cube(ConfigPoint((1,), 1, 1), 3)  # also 7 sites
    foreign = eigensolve(build(other, sample(DisorderSpec.uniform(-1, 1), single_particle_sites(other), 4, 0)))
    own = eigensolve(hm)
    energy = float(own.eigenvalues[2])
    with pytest.raises(ValueError, match="operator's sites"):
        classify_cube(cube, hm, energy, m=1.0, N=1, spectrum=foreign)
    with pytest.raises(ValueError, match="operator's sites"):
        classify_cube_energies(cube, hm, [energy, energy + 0.1], 1.0, 1, foreign)
    with pytest.raises(ValueError, match="operator's sites"):
        GreenSolver(hm, energy + 0.01, foreign)
    with pytest.raises(ValueError, match="operator's sites"):
        green(hm, energy + 0.01, cube.center, cube.center, spectrum=foreign)
    # an equal site list (not the same object) is the operator's own
    copied = replace(own, site_list=tuple(list(hm.site_list)))
    assert copied.site_list is not hm.site_list
    assert classify_cube(cube, hm, energy, 1.0, 1, copied) == classify_cube(cube, hm, energy, 1.0, 1, own)
    assert GreenSolver(hm, energy + 0.01, copied).green(0, 0) == GreenSolver(hm, energy + 0.01, own).green(0, 0)


def test_spectrum_of_another_realization_rejected():
    # the radius-3 {0, 8} cube at master seed 1: the spectra of realizations
    # 1-5 are taken on its sites, so only the residual tells them apart
    cube = Cube(ConfigPoint.origin(1, 1), 3)
    spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0)
    operators = [build(cube, sample(spec, single_particle_sites(cube), 1, k)) for k in range(6)]
    hm = operators[0]
    own = eigensolve(hm)
    energy = float(own.eigenvalues[3])
    between = 0.5 * float(own.eigenvalues[3] + own.eigenvalues[4])
    assert classify_cube(cube, hm, energy, 1.0, 1, own).spectral_gap == 0.0
    assert GreenSolver(hm, between, own).green(0, 0) == GreenSolver(hm, between).green(0, 0)
    for other in operators[1:]:
        foreign = eigensolve(other)
        assert foreign.site_list == hm.site_list
        with pytest.raises(ValueError, match="not an eigendecomposition"):
            classify_cube(cube, hm, energy, 1.0, 1, foreign)
        with pytest.raises(ValueError, match="not an eigendecomposition"):
            GreenSolver(hm, between, foreign)


def test_partial_spectrum_rejected():
    # a window spectrum and a full one missing its top pair are certified on
    # the operator's own sites, so only their size tells them from a full one
    cube = Cube(ConfigPoint.origin(2, 1), 3)
    spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0)
    hm = build(cube, sample(spec, single_particle_sites(cube), 1, 0), InteractionSpec.sub_exponential(), 0.5)
    full = eigensolve(hm, sectors=True)
    E = full.eigenvalues
    window = spectral._window_eigensolve(hm, (float(E[10]), float(E[20])))
    assert 0 < window.size < hm.size
    truncated = replace(full, eigenvalues=E[:-1], eigenvectors=full.eigenvectors[:, :-1])
    between = 0.5 * float(E[15] + E[16])
    assert classify_cube(cube, hm, between, 1.0, 2, full).spectral_gap > 0.0
    for partial in (window, truncated):
        with pytest.raises(ValueError, match="full eigendecomposition"):
            classify_cube(cube, hm, between, 1.0, 2, partial)
        with pytest.raises(ValueError, match="full eigendecomposition"):
            GreenSolver(hm, between, partial)


def test_classify_many_matches_single():
    cube, hm = _random_cube_instance(40, L=3)
    spectrum = eigensolve(hm)
    energies = [-1.0, 0.3, 2.2, float(spectrum.eigenvalues[3])]
    batch = classify_cube_energies(cube, hm, energies, 0.9, 1, spectrum)
    for E, expected in zip(energies, batch):
        single = classify_cube(cube, hm, E, 0.9, 1, spectrum)
        assert single == expected


def test_ns_threshold_scale_zero():
    assert ns_threshold(0.5, 0, 1, 1) == 1.0
    assert ns_threshold(0.5, 4, 1, 1) == pytest.approx(
        math.exp(-gamma(0.5, 4, 1, 1) * 4)
    )


# ---------------------------------------------------------------------------
# spectral-sum kernel against the factorized solve
# ---------------------------------------------------------------------------


def _lu_reference(cube, hm, energies, m, N, spectrum):
    """Verdicts with every off-resonance energy sent to the factorized solve."""
    threshold = ns_threshold(m, cube.radius, hm.n, N)
    gap_tol = GAP_RTOL * max(1.0, spectrum.norm_bound())
    center = hm.row_of(cube.center)
    boundary = np.array([hm.row_of(v) for v in internal_boundary(cube)], dtype=np.intp)
    out = []
    for E in energies:
        gap = spectrum.gap_to(E)
        if gap <= gap_tol:
            out.append(NsVerdict(False, math.inf, threshold, -math.inf, gap))
        else:
            out.append(spectral._lu_verdict(hm.dense(), center, boundary, float(E), threshold, gap))
    return out


def _column_error_bound(hm, spectrum, center, E):
    """|r| / dist of the spectral-sum column plus that of the refined LU column.

    Each |r| is widened by the round-off of computing (H - E) g itself.
    """
    rhs = np.eye(hm.size)[:, center]
    shifted = hm.dense() - E * np.eye(hm.size)
    dist = spectrum.gap_to(E) - math.sqrt(spectrum.size) * spectrum.residual_bound
    if dist <= 0:
        return math.inf
    vectors = spectrum.eigenvectors
    kernel = vectors @ (vectors[center] / (spectrum.eigenvalues - E))
    lu = sla.lu_factor(shifted)
    solved = sla.lu_solve(lu, rhs)
    solved = solved + sla.lu_solve(lu, rhs - shifted @ solved)
    residuals = np.linalg.norm(shifted @ kernel - rhs) + np.linalg.norm(shifted @ solved - rhs)
    rounding = (
        (hm.size + 1) * np.finfo(float).eps * np.linalg.norm(shifted, np.inf)
        * (np.linalg.norm(kernel) + np.linalg.norm(solved))
    )
    return (residuals + rounding) / dist


@st.composite
def _cube_cases(draw):
    """A random cube operator, its spectrum, (m, N), and probe energies."""
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        n, L, ispec, h = 1, draw(st.integers(0, 32)), None, 0.0
    else:
        n, L = 2, draw(st.integers(0, 3))
        ispec, h = InteractionSpec.sub_exponential(), draw(st.sampled_from([0.5, 1.0]))
    if draw(st.booleans()):
        spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, draw(st.sampled_from([1.0, 8.0])))
    else:
        spec = DisorderSpec.uniform(-1.0, 1.0, amplitude=draw(st.sampled_from([1.5, 4.0])))
    cube = Cube(ConfigPoint.origin(n, 1), L)
    hm = build(cube, sample(spec, single_particle_sites(cube), seed, 0), ispec, h)
    spectrum = eigensolve(hm)
    eigs = spectrum.eigenvalues
    energies = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["grid", "eigenvalue", "near"]))
        if kind == "grid":
            k = draw(st.integers(0, 1000))
            energies.append(float(eigs[0] - 1.0 + k * 1e-3 * (eigs[-1] - eigs[0] + 2.0)))
        else:
            E = float(eigs[draw(st.integers(0, len(eigs) - 1))])
            if kind == "near":
                E += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, -6.0))
            energies.append(E)
    m = draw(st.sampled_from([0.2, 0.5, 1.0]))
    return cube, hm, spectrum, m, n, energies


@settings(max_examples=80, deadline=None)
@given(case=_cube_cases(), data=st.data())
def test_kernel_matches_lu_path(case, data):
    cube, hm, spectrum, m, N, energies = case
    got = classify_cube_energies(cube, hm, energies, m, N, spectrum)
    want = _lu_reference(cube, hm, energies, m, N, spectrum)
    center = hm.row_of(cube.center)
    for E, a, b in zip(energies, got, want):
        assert a.nonsingular == b.nonsingular
        assert math.isfinite(a.max_boundary_green) == math.isfinite(b.max_boundary_green)
        assert a.threshold == b.threshold
        assert a.spectral_gap == b.spectral_gap
        if math.isfinite(b.max_boundary_green):
            delta = abs(a.max_boundary_green - b.max_boundary_green)
            assert delta <= _column_error_bound(hm, spectrum, center, E)
    # a verdict does not depend on which other energies share the call
    order = data.draw(st.permutations(range(len(energies))))
    chosen = order[: data.draw(st.integers(1, len(energies)))]
    again = classify_cube_energies(cube, hm, [energies[i] for i in chosen], m, N, spectrum)
    assert again == [got[i] for i in chosen]


def test_classify_verdicts_do_not_depend_on_block():
    cube, hm = _random_cube_instance(41, L=16)
    spectrum = eigensolve(hm)
    energies = np.concatenate(
        [np.linspace(-1.0, 7.0, 3 * spectral._PROBE_BLOCK + 5), spectrum.eigenvalues[::3]]
    )
    batch = classify_cube_energies(cube, hm, energies, 0.3, 1, spectrum)
    reversed_batch = classify_cube_energies(cube, hm, energies[::-1], 0.3, 1, spectrum)
    assert reversed_batch[::-1] == batch
    for k in range(0, len(energies), 7):
        assert classify_cube(cube, hm, energies[k], 0.3, 1, spectrum) == batch[k]


def test_large_columns_left_to_lu_certificate():
    # within ~1e-11 of an eigenvalue the centre column is ~1e11, (H - E) g
    # cancels to round-off, and only the factorized solve's own residual says
    # whether the verdict is certified
    for seed in range(100):
        cube = Cube(ConfigPoint.origin(1, 1), 1)
        spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0) if seed % 2 else DisorderSpec.uniform(-1, 1, 4.0)
        hm = build(cube, sample(spec, single_particle_sites(cube), seed, 0))
        spectrum = eigensolve(hm)
        energies = [
            float(E) + sign * 10.0**-k
            for E in spectrum.eigenvalues
            for k in (9, 10, 11)
            for sign in (-1.0, 1.0)
        ]
        got = classify_cube_energies(cube, hm, energies, 0.2, 1, spectrum)
        want = _lu_reference(cube, hm, energies, 0.2, 1, spectrum)
        for a, b in zip(got, want):
            assert a.nonsingular == b.nonsingular
            assert math.isfinite(a.max_boundary_green) == math.isfinite(b.max_boundary_green)


def test_fallback_to_lu_runs_and_agrees(monkeypatch):
    # at m = 0.5 and L = 32 the threshold exp(-gamma L) ~ 3.5e-12 lies near
    # the kernel's round-off, so some probes are left to the factorized solve
    cube = Cube(ConfigPoint.origin(1, 1), 32)
    spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0)
    hm = build(cube, sample(spec, single_particle_sites(cube), 3, 1))
    spectrum = eigensolve(hm)
    energies = np.arange(0.0, 1.0005, 1e-3)
    want = _lu_reference(cube, hm, energies, 0.5, 1, spectrum)

    calls = []
    helper = spectral._lu_verdict

    def counted(*args):
        calls.append(args[3])
        return helper(*args)

    monkeypatch.setattr(spectral, "_lu_verdict", counted)
    got = classify_cube_energies(cube, hm, energies, 0.5, 1, spectrum)
    assert 0 < len(calls) < len(energies)
    by_energy = dict(zip(energies.tolist(), want))
    for E in calls:
        assert got[int(round(E * 1000))] == by_energy[E]
    for a, b in zip(got, want):
        assert a.nonsingular == b.nonsingular
        assert math.isfinite(a.max_boundary_green) == math.isfinite(b.max_boundary_green)
