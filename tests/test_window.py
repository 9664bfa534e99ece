"""The window eigensolve of the moment task against the full solve."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpanderson import spectral
from mpanderson.disorder import DisorderSpec, sample
from mpanderson.geometry import ConfigPoint, Cube, single_particle_sites, sup_norm
from mpanderson.hamiltonian import InteractionSpec, build
from mpanderson.observables import EXACT_VERTEX, hs_moment, moment_samples
from mpanderson.spectral import SizeLimitError, eigensolve


def _operator(region, seed, bernoulli, h):
    spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0) if bernoulli else DisorderSpec.uniform(-1, 1, 3.0)
    realization = sample(spec, single_particle_sites(region), seed, 0)
    ispec = InteractionSpec.sub_exponential() if h else None
    return build(region, realization, ispec, h)


def _pad(hm):
    return spectral._WINDOW_PAD * (1.0 + abs(hm.matrix).sum(axis=1).max())


def _swapped_rows(hm):
    d = hm.d
    return np.array(
        [hm.index[ConfigPoint(x.coords[d : 2 * d] + x.coords[:d] + x.coords[2 * d :], x.n, d)] for x in hm.site_list]
    )


@st.composite
def _boxes(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0 if n * d > 1 else 1, {1: 6, 2: 4, 3: 2, 4: 1, 6: 0}[n * d]))
    center = [draw(st.integers(-2, 2)) for _ in range(n * d)]
    if n >= 2 and draw(st.booleans()):
        center[d : 2 * d] = center[:d]  # the swap maps the cube onto itself
    cube = Cube(ConfigPoint(tuple(center), n, d), L)
    h = draw(st.sampled_from([0.0, 0.7])) if n >= 2 else 0.0
    return cube, draw(st.integers(0, 2**31 - 1)), draw(st.booleans()), h


@settings(max_examples=60, deadline=None)
@given(case=_boxes(), kind=st.sampled_from(["random", "empty", "beside"]), data=st.data())
def test_window_solve_matches_the_full_solve(case, kind, data):
    cube, seed, bernoulli, h = case
    hm = _operator(cube, seed, bernoulli, h)
    full = eigensolve(hm, sectors=True)
    E = full.eigenvalues
    scale = 1.0 + full.norm_bound()
    if kind == "random":
        ends = sorted(data.draw(st.floats(E[0] - 1.0, E[-1] + 1.0)) for _ in range(2))
    elif kind == "empty":  # the middle third of a gap wider than the pads, or above the top
        k = data.draw(st.integers(0, hm.size - 1))
        gap = E[k + 1] - E[k] if k + 1 < hm.size else 0.0
        if gap <= 6.0 * _pad(hm):
            k, gap = hm.size - 1, 3.0
        ends = [E[k] + gap / 3.0, E[k] + 2.0 * gap / 3.0]
    else:  # one end just inside or just outside I, beside eigenvalue j
        j = data.draw(st.integers(0, hm.size - 1))
        offset = data.draw(st.sampled_from([-1e-10, 1e-10])) * scale
        other = data.draw(st.floats(E[0] - 1.0, E[-1] + 1.0))
        ends = sorted([E[j] + offset, other])
    lo, hi = ends
    window = spectral._window_eigensolve(hm, (lo, hi))
    assert window.site_list is hm.site_list
    assert window.eigenvectors.shape == (hm.size, window.size)
    assert hm._dense is None or spectral._swap_pairs(hm) is None  # no dense H where sectors split
    assert window.residual_bound <= spectral._residual_gate(window.eigenvalues)
    assert window.orthonormality_defect <= 1e-10
    assert np.all(np.diff(window.eigenvalues) >= 0)

    # the window holds the full solve's eigenvalues in (lo - pad, hi + pad]
    # within the two certificates, unless one lies within them of an end
    tol = np.sqrt(hm.size) * (full.residual_bound + window.residual_bound) + hm.size * scale * (
        full.orthonormality_defect + window.orthonormality_defect
    )
    pad = _pad(hm)
    if min(np.abs(E - (lo - pad)).min(), np.abs(E - (hi + pad)).min()) > tol:
        inside = E[(E > lo - pad) & (E <= hi + pad)]
        assert window.size == len(inside)
        assert np.max(np.abs(window.eigenvalues - inside), initial=0.0) <= tol
    if min(np.abs(E - lo).min(), np.abs(E - hi).min()) > tol:
        assert len(window.indices_in(lo, hi)) == len(full.indices_in(lo, hi))
    if kind == "empty":
        assert window.size == 0

    # every window eigenvector is even or odd under the swap where it splits H
    if spectral._swap_pairs(hm) is not None and window.size:
        V = window.eigenvectors
        parity = np.sign(np.einsum("ij,ij->j", V[_swapped_rows(hm)], V))
        assert np.all(np.abs(parity) == 1.0)
        assert np.max(np.abs(V[_swapped_rows(hm)] - parity * V)) <= 1e-12


def test_empty_window_gives_an_empty_spectrum_and_moment_zero(monkeypatch):
    hm = _operator(Cube(ConfigPoint.origin(2, 1), 3), 4, True, 0.5)
    top = eigensolve(hm, sectors=True).eigenvalues[-1]
    counts = []
    real_count = spectral._count_below

    def counted(block, x):
        counts.append(real_count(block, x))
        return counts[-1]

    monkeypatch.setattr(spectral, "_count_below", counted)
    window = spectral._window_eigensolve(hm, (top + 1.0, top + 2.0))
    assert window.size == 0 and window.eigenvectors.shape == (hm.size, 0)
    assert (window.residual_bound, window.orthonormality_defect) == (0.0, 0.0)
    # above the window's upper end, then its lower end, per block: the whole
    # even (28) and odd (21) blocks lie below both, an inertia count of 0
    assert counts == [28, 28, 21, 21]
    K = [x for x in hm.site_list if sup_norm(x, ConfigPoint.origin(2, 1)) <= 1]
    result = hs_moment(window, (top + 1.0, top + 2.0), 2.0, K)
    assert (result.value, result.method, result.multiplicity) == (0.0, EXACT_VERTEX, 0)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 40),
    diagonal=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**31 - 1),
    x=st.floats(-4.0, 4.0),
)
def test_inertia_count_matches_the_eigenvalues(size, diagonal, seed, x):
    # a weak diagonal makes Bunch-Kaufman choose 2x2 pivots
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, size))
    block = (a + a.T) / 2.0
    block[np.diag_indices(size)] *= diagonal
    values = np.linalg.eigvalsh(block)
    if np.min(np.abs(values - x)) < 1e-9:
        return  # the count at x is decided by round-off
    assert spectral._count_below(block, x) == np.count_nonzero(values < x)


def _fallback_case():
    region = Cube(ConfigPoint.origin(2, 1), 3)
    hm = _operator(region, 2, True, 0.5)
    E = eigensolve(hm, sectors=True).eigenvalues
    return region, hm, (float(E[10]) - 0.01, float(E[20]) + 0.01)


def _assert_the_moment_takes_the_full_solve(caplog, message):
    region, hm, interval = _fallback_case()
    with caplog.at_level(logging.INFO, logger="mpanderson.spectral"):
        assert spectral._window_eigensolve(hm, interval) is None
    assert message in caplog.text
    K = [x for x in hm.site_list if sup_norm(x, region.center) <= 1]
    spec = DisorderSpec.bernoulli(0.0, 1.0, 0.5, 8.0)
    [result] = moment_samples(region, spec, InteractionSpec.sub_exponential(), 0.5, interval, 2.0, K, 1, 2)
    assert result == hs_moment(eigensolve(hm, sectors=True), interval, 2.0, K, provenance=(2, 0))


def test_an_inertia_mismatch_takes_the_full_solve(monkeypatch, caplog):
    monkeypatch.setattr(spectral, "_count_below", lambda block, x: 0)
    _assert_the_moment_takes_the_full_solve(caplog, "2 block(s) miscounted")


def test_a_failed_certificate_takes_the_full_solve(monkeypatch, caplog):
    real_certify = spectral._certify

    def window_fails(operator, eigenvalues, eigenvectors):
        bound, defect, certified = real_certify(operator, eigenvalues, eigenvectors)
        return bound, defect, certified and len(eigenvalues) == len(eigenvectors)

    monkeypatch.setattr(spectral, "_certify", window_fails)
    _assert_the_moment_takes_the_full_solve(caplog, "0 block(s) miscounted")


def test_window_solve_keeps_the_dense_limit():
    _, hm, interval = _fallback_case()
    with pytest.raises(SizeLimitError):
        spectral._window_eigensolve(hm, interval, dense_limit=hm.size - 1)
    assert spectral._window_eigensolve(hm, interval, dense_limit=hm.size).size > 0
