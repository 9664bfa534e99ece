"""The swap-sector eigensolve against the full dense solve."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from mpanderson import spectral
from mpanderson.disorder import DisorderSpec, sample
from mpanderson.geometry import ConfigPoint, Cube, Rectangle, single_particle_sites, sup_norm
from mpanderson.hamiltonian import InteractionSpec, assemble, build
from mpanderson.observables import EXACT_VERTEX, hs_moment, moment_matrix
from mpanderson.spectral import eigensolve


def _swapped(x: ConfigPoint) -> ConfigPoint:
    d = x.d
    return ConfigPoint(x.coords[d : 2 * d] + x.coords[:d] + x.coords[2 * d :], x.n, x.d)


def _partner(hm) -> np.ndarray:
    """Row of the swap of every site, looked up site by site."""
    return np.array([hm.index[_swapped(x)] for x in hm.site_list])


def _operator(region, seed, bernoulli, h):
    spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0) if bernoulli else DisorderSpec.uniform(-1, 1, 3.0)
    realization = sample(spec, single_particle_sites(region), seed, 0)
    ispec = InteractionSpec.sub_exponential() if h else None
    return build(region, realization, ispec, h)


def _bits(spectrum):
    return spectrum.eigenvalues.tobytes(), spectrum.eigenvectors.tobytes()


@st.composite
def _symmetric_cubes(draw):
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0 if n * d > 2 else 1, {2: 4, 3: 2, 4: 1, 6: 1}[n * d]))
    # particles 1 and 2 share their center, so the swap maps the cube onto itself
    shared = tuple(draw(st.integers(-2, 2)) for _ in range(d))
    rest = tuple(draw(st.integers(-2, 2)) for _ in range(d * (n - 2)))
    cube = Cube(ConfigPoint(shared + shared + rest, n, d), L)
    return cube, draw(st.integers(0, 2**31 - 1)), draw(st.booleans()), draw(st.sampled_from([0.0, 0.7]))


@settings(max_examples=40, deadline=None)
@given(case=_symmetric_cubes(), data=st.data())
def test_sector_solve_matches_the_full_solve(case, data):
    cube, seed, bernoulli, h = case
    hm = _operator(cube, seed, bernoulli, h)
    if hm.size == 1:
        assert spectral._swap_pairs(hm) is None  # nothing to split
        return
    sectors = eigensolve(hm, sectors=True)
    assert hm._dense is None  # the sector path never forms the dense H
    full = eigensolve(hm)
    assert spectral._swap_pairs(hm) is not None
    assert np.all(np.diff(sectors.eigenvalues) >= 0)

    # eigenvalues agree within the two certificates (|HV - VE|_2 <= sqrt(size)
    # residual_bound, |V^T V - 1|_2 <= size defect)
    scale = 1.0 + full.norm_bound()
    tol = np.sqrt(hm.size) * (full.residual_bound + sectors.residual_bound) + hm.size * scale * (
        full.orthonormality_defect + sectors.orthonormality_defect
    )
    assert np.max(np.abs(sectors.eigenvalues - full.eigenvalues)) <= tol

    # every eigenvector is even or odd under the swap
    partner = _partner(hm)
    V = sectors.eigenvectors
    parity = np.sign(np.einsum("ij,ij->j", V[partner], V))
    assert np.all(np.abs(parity) == 1.0)
    assert np.max(np.abs(V[partner] - parity * V)) <= 1e-12

    # the moment lies within the bench's basis-free bounds, and where the
    # eigenvalues in I are simple it is the full solve's
    E = full.eigenvalues
    first = data.draw(st.integers(0, hm.size - 1))
    last = data.draw(st.integers(first, min(first + 7, hm.size - 1)))
    lo = E[first] - 0.5 if first == 0 else 0.5 * (E[first - 1] + E[first])
    hi = E[last] + 0.5 if last == hm.size - 1 else 0.5 * (E[last] + E[last + 1])
    if min(np.abs(E - lo).min(), np.abs(E - hi).min()) < 1e-9:
        return  # multiplicity decided by round-off
    center = cube.center
    K = [x for x in hm.site_list if sup_norm(x, center) <= 1]
    s = data.draw(st.sampled_from([0.0, 1.0, 2.0]))
    value = hs_moment(sectors, (lo, hi), s, K, origin=center)
    reference = hs_moment(full, (lo, hi), s, K, origin=center)
    assert value.method == reference.method == EXACT_VERTEX
    assert value.multiplicity == reference.multiplicity == last - first + 1

    B = moment_matrix(full, (lo, hi), s, K, origin=center)
    dist = np.array([sup_norm(x, center) for x in hm.site_list], dtype=float)
    psi = full.eigenvectors[:, first : last + 1]
    phi = (dist ** (s / 2.0))[:, None] * psi
    chi = np.isin(np.arange(hm.size), [hm.index[k] for k in K])[:, None] * psi
    gram_phi, gram_chi = phi.T @ phi, chi.T @ chi
    lower = float(np.sum(B))
    upper = min(
        np.linalg.eigvalsh(gram_phi)[-1] * np.trace(gram_chi),
        np.trace(gram_phi) * np.linalg.eigvalsh(gram_chi)[-1],
    )
    assert lower * (1 - 1e-9) - 1e-12 <= value.value <= upper * (1 + 1e-9) + 1e-12
    if np.min(np.diff(E[first : last + 1]), initial=np.inf) >= 1e-6:
        assert value.value == pytest.approx(reference.value, rel=1e-9, abs=1e-12)


def test_sector_block_sizes_on_the_moment_cube():
    hm = _operator(Cube(ConfigPoint.origin(2, 1), 3), 1, True, 0.5)
    fixed, lo, hi = spectral._swap_pairs(hm)
    assert (len(fixed), len(lo)) == (7, 21)
    assert np.array_equal(_partner(hm)[lo], hi) and np.all(lo < hi)


@pytest.mark.parametrize(
    "region",
    [
        Cube(ConfigPoint.origin(1, 1), 6),  # n = 1
        Cube(ConfigPoint.origin(1, 2), 2),
        Rectangle(((0,), (0,)), (2, 3)),  # unequal radii
        Rectangle(((0,), (1,)), (2, 2)),  # unequal centers
        Cube(ConfigPoint((0, 1), 2, 1), 2),
        Rectangle(((0, 0), (0, 1), (0, 0)), (1, 1, 1)),
    ],
)
def test_full_path_where_the_swap_does_not_map_the_sites(region):
    hm = _operator(region, 3, False, 0.7 if region.n > 1 else 0.0)
    assert spectral._swap_pairs(hm) is None
    today = sla.eigh(hm.dense())  # the solve as it was before sectors existed
    for spectrum in (eigensolve(hm), eigensolve(hm, sectors=True)):
        assert _bits(spectrum) == (today[0].tobytes(), today[1].tobytes())


def test_sectors_off_is_the_full_solve_bit_for_bit():
    hm = _operator(Cube(ConfigPoint.origin(2, 1), 4), 5, True, 0.5)
    today = sla.eigh(hm.dense())
    assert _bits(eigensolve(hm)) == (today[0].tobytes(), today[1].tobytes())
    assert _bits(eigensolve(hm, sectors=True)) != _bits(eigensolve(hm))


def test_a_potential_that_breaks_the_swap_takes_the_full_path():
    cube = Cube(ConfigPoint.origin(2, 1), 2)
    site_list = _operator(cube, 0, False, 0.0).site_list
    # particle 1 alone feels a field, so H does not commute with the swap
    hm = assemble(site_list, lambda x: 0.3 * x.coords[0], None, 0.0)
    assert spectral._swap_pairs(hm) is None
    assert _bits(eigensolve(hm, sectors=True)) == _bits(eigensolve(hm))


def test_sector_map_does_not_depend_on_the_site_order():
    hm = _operator(Cube(ConfigPoint.origin(2, 1), 3), 7, True, 0.5)
    shuffled = list(hm.site_list)
    np.random.default_rng(0).shuffle(shuffled)
    dense = hm.dense()
    rows = [hm.index[x] for x in shuffled]
    values = {x: dense[r, r] - 4.0 for x, r in zip(shuffled, rows)}
    other = assemble(shuffled, values.__getitem__, None, 0.0)
    _, lo, hi = spectral._swap_pairs(other)
    assert np.array_equal(_partner(other)[lo], hi)
    want = eigensolve(hm, sectors=True).eigenvalues
    got = eigensolve(other, sectors=True).eigenvalues
    assert np.max(np.abs(got - want)) < 1e-12 * (1.0 + np.max(np.abs(want)))


def test_sector_solve_retries_both_blocks_with_dsyevd(monkeypatch):
    hm = _operator(Cube(ConfigPoint.origin(2, 1), 3), 2, True, 0.5)
    real_eigh = sla.eigh
    drivers = []

    def skewed_default(a, driver=None):
        drivers.append(driver)
        values, vectors = real_eigh(a, driver=driver)
        if driver is None:
            vectors[:, 0] *= 1.0 + 1e-9  # fails the orthonormality gate
        return values, vectors

    monkeypatch.setattr(spectral.sla, "eigh", skewed_default)
    spectrum = eigensolve(hm, sectors=True)
    assert drivers == [None, None, "evd", "evd"]
    assert spectrum.orthonormality_defect <= 1e-10
    assert hm._dense is None
