"""Output checks, computed apart from the program.

Each check takes a workload, the master seed of one round and the CSV text
that round wrote, and returns (failures, stats).  The only program function
used is `disorder.sample`, for the potential values; matrices, spectra,
Green values, fits and moments are recomputed here with numpy and scipy.

Where round-off decides an outcome the checks do not demand agreement on it:
a probe whose Green margin lies within the error estimate of the threshold is
undecided, and moment rows with nearly degenerate eigenvalues in I are
checked against bounds that do not depend on the eigenbasis.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import scipy.linalg as sla

from mpanderson.disorder import DisorderSpec, sample

#: |E - eigenvalue| at or below this (times max(1, |H|)) is resonant: singular
RESONANT_RTOL = 1e-13
#: ... and up to this the program may call it resonant (its own tolerance is
#: 1e-12), so only a singular verdict is decided there
AMBIGUOUS_RTOL = 1e-10
#: relative half-width of the undecided band around the singularity threshold
THRESHOLD_RTOL = 1e-7
#: a Green solve whose expected residual exceeds this may fail the program's
#: certificate (1e-8), which it counts as singular
RESIDUAL_LIMIT = 1e-10
EPS = float(np.finfo(float).eps)
#: eigenvalues closer than this are not simple (decay fits, moment B)
SIMPLE_GAP = 1e-6
#: Wilson score quantile z_{0.975}, from statistics rather than the program
WILSON_Z = statistics.NormalDist().inv_cdf(0.975)


def _disorder(settings) -> DisorderSpec:
    a, b = settings["disorder.values"]
    return DisorderSpec.bernoulli(a, b, settings["disorder.q"], settings["disorder.amplitude"])


def _potential(settings, seed: int, index: int, lo: int, hi: int) -> np.ndarray:
    """V(x) for x = lo..hi on the chain, from the program's sampler."""
    region = [(x,) for x in range(lo, hi + 1)]
    values = sample(_disorder(settings), region, seed, index).values
    return np.array([values[site] for site in region])


def _path_hamiltonian(diagonal: np.ndarray) -> np.ndarray:
    n = len(diagonal)
    return np.diag(diagonal) - np.eye(n, k=1) - np.eye(n, k=-1)


def _data_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_round(workload, seed: int, text: str) -> tuple[list[str], dict]:
    task = workload.task
    if task == "msa":
        return check_msa(workload.settings, seed, text)
    if task == "decay":
        return check_decay(workload.settings, seed, text)
    return check_moment(workload.settings, seed, text)


# ---------------------------------------------------------------------------
# msa
# ---------------------------------------------------------------------------


def wilson(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def singular_states(energies, vectors, probes, threshold: float) -> np.ndarray:
    """Per probe: 1 singular, -1 nonsingular, 0 undecided, for a path cube.

    G(c, b; E) = sum_j psi_j(c) psi_j(b) / (E_j - E) from the centre c to the
    two end sites b; singular when max_b |G| exceeds the threshold.  The error
    of the sum is bounded by the eigenvector round-off over each gap.
    """
    size = len(energies)
    scale = max(1.0, float(np.max(np.abs(energies))))
    centre = vectors[size // 2, :]
    weights = vectors[[0, size - 1], :] * centre
    diff = energies[None, :] - probes[:, None]
    gap = np.min(np.abs(diff), axis=1)
    resonant = gap <= RESONANT_RTOL * scale
    diff[resonant] = 1.0
    inverse = np.abs(1.0 / diff)
    green = np.max(np.abs((1.0 / diff) @ weights.T), axis=1)
    error = 1e-13 * np.max(inverse @ np.abs(weights).T, axis=1) + 1e-14 * inverse.sum(axis=1)
    singular = green - error > threshold * (1 + THRESHOLD_RTOL)
    nonsingular = green + error < threshold * (1 - THRESHOLD_RTOL)
    # where the program may have called the probe resonant or uncertified
    residual = EPS * (scale + 2.0) * np.sqrt((inverse**2) @ centre**2)
    nonsingular &= (gap > AMBIGUOUS_RTOL * scale) & (residual <= RESIDUAL_LIMIT)
    state = np.where(singular, 1, np.where(nonsingular, -1, 0))
    state[resonant] = 1
    return state


def independent_events(settings, seed: int, L: int) -> dict:
    """Pair events of one scale, re-derived from the sampled potential."""
    lo, hi = settings["task.E_lo"], settings["task.E_hi"]
    step = settings["task.energy_grid_step"]
    m = settings["task.m"]
    threshold = math.exp(-m * (1.0 + L ** -0.125) * L)  # gamma with N - n + 1 = 1
    count = int(math.floor((hi - lo) / step + 1e-9))
    grid = lo + step * np.arange(count + 1)
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid = np.append(grid, hi)
    centers = (0, 7 * L + 1)  # the canonical separable pair for n = N = d = 1
    out = {"lower": 0, "upper": 0, "max_probes": 0, "probe_slack": 0}
    for index in range(settings["run.realizations"]):
        spectra = []
        for c in centers:
            V = _potential(settings, seed, index, c - L, c + L)
            spectra.append(np.linalg.eigh(_path_hamiltonian(2.0 + V)))
        inside = np.concatenate([E[(E >= lo) & (E <= hi)] for E, _ in spectra])
        probes = np.unique(np.concatenate([grid, inside]))
        out["max_probes"] = max(out["max_probes"], len(probes))
        # eigenvalues within round-off of an end of I or of another probe
        everything = np.sort(np.concatenate([grid] + [E for E, _ in spectra]))
        near_end = sum(int(np.sum(np.abs(E - edge) < 1e-9)) for E, _ in spectra for edge in (lo, hi))
        out["probe_slack"] = max(out["probe_slack"], near_end + int(np.sum(np.diff(everything) < 1e-9)))
        su, sv = (singular_states(E, Q, probes, threshold) for E, Q in spectra)
        if np.any((su == 1) & (sv == 1)):
            out["lower"] += 1
            out["upper"] += 1
        elif np.any((su >= 0) & (sv >= 0)):
            out["upper"] += 1
    return out


def check_msa(settings, seed: int, text: str) -> tuple[list[str], dict]:
    failures: list[str] = []
    stats = {"undecided": 0, "events": 0}
    R = settings["run.realizations"]
    L_values = settings["task.L_values"]
    rows = _data_rows(text)
    if [int(row[0]) for row in rows] != list(L_values):
        return [f"msa: rows for L = {[row[0] for row in rows]}, expected {list(L_values)}"], stats
    p = settings["task.p"]
    for row in rows:
        L, n, N = (int(v) for v in row[:3])
        estimate, ci_low, ci_high, target = (float(v) for v in row[3:7])
        samples, points, row_seed = (int(v) for v in row[7:10])
        where = f"msa L={L}"
        if (n, N, samples, row_seed) != (1, 1, R, seed):
            failures.append(f"{where}: n, N, samples, seed = {n, N, samples, row_seed}, expected {1, 1, R, seed}")
            continue
        hits = round(estimate * R)
        if abs(hits - estimate * R) > 1e-9:
            failures.append(f"{where}: estimate {estimate} is not a multiple of 1/{R}")
        lo, hi = wilson(hits, R)
        if not (_close(ci_low, lo, 1e-12, 1e-15) and _close(ci_high, hi, 1e-12, 1e-15)):
            failures.append(f"{where}: Wilson interval [{ci_low}, {ci_high}], recomputed [{lo}, {hi}]")
        expected_target = float(L) ** (-2.0 * p)
        if not _close(target, expected_target, 1e-12):
            failures.append(f"{where}: target {target}, recomputed L^(-2p) = {expected_target}")
        events = independent_events(settings, seed, L)
        stats["undecided"] += events["upper"] - events["lower"]
        stats["events"] += hits
        if not events["lower"] <= hits <= events["upper"]:
            failures.append(
                f"{where}: {hits} events, re-derived {events['lower']}"
                + (f" to {events['upper']}" if events["upper"] > events["lower"] else "")
            )
        if abs(points - events["max_probes"]) > events["probe_slack"]:
            failures.append(f"{where}: {points} probe energies, re-derived {events['max_probes']}")
    return failures, stats


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------


def shell_fits(vectors: np.ndarray, floor: float, min_shells: int):
    """Shell-maximum exponential fit of every column: (ok, rate, r2, shells)."""
    amplitude = np.abs(vectors)
    size, count = amplitude.shape
    centers = np.argmax(amplitude, axis=0)
    radius = np.abs(np.arange(size)[:, None] - centers[None, :])
    maxima = np.zeros((size, count))
    np.maximum.at(maxima, (radius, np.broadcast_to(np.arange(count), radius.shape)), amplitude)
    used = maxima > floor
    shells = used.sum(axis=0)
    r = np.arange(size, dtype=float)[:, None] * used
    y = np.where(used, np.log(np.where(used, maxima, 1.0)), 0.0)
    n = np.maximum(shells, 1)
    r_mean, y_mean = r.sum(axis=0) / n, y.sum(axis=0) / n
    dr = np.where(used, r - r_mean, 0.0)
    dy = np.where(used, y - y_mean, 0.0)
    sxx = (dr * dr).sum(axis=0)
    slope = (dr * dy).sum(axis=0) / np.where(sxx > 0, sxx, 1.0)
    ss_res = (np.where(used, dy - slope * dr, 0.0) ** 2).sum(axis=0)
    ss_tot = (dy * dy).sum(axis=0)
    r2 = np.where(ss_tot <= 1e-30, 0.0, np.maximum(0.0, 1.0 - ss_res / np.where(ss_tot > 0, ss_tot, 1.0)))
    return shells >= min_shells, -slope, r2, shells


def check_decay(settings, seed: int, text: str) -> tuple[list[str], dict]:
    failures: list[str] = []
    L, R = settings["task.L"], settings["run.realizations"]
    floor = settings.get("task.shell_floor", 1e-14)
    min_shells = settings.get("task.min_shells", 3)
    size = 2 * L + 1
    rows = _data_rows(text)
    stats = {"fits_compared": 0}
    if len(rows) != R * size:
        return [f"decay: {len(rows)} rows, expected R (2L + 1) = {R * size}"], stats
    rates, r2s = [], []
    for index in range(R):
        block = rows[index * size : (index + 1) * size]
        where = f"decay realization {index}"
        if [(int(r[0]), int(r[1])) for r in block] != [(index, j) for j in range(size)]:
            failures.append(f"{where}: rows out of order")
            continue
        energies = np.array([float(r[2]) for r in block])
        V = _potential(settings, seed, index, -L, L)
        H = _path_hamiltonian(2.0 + V)
        scale = 1.0 + np.max(np.abs(energies))
        if abs(energies.sum() - np.trace(H)) > 1e-10 * size * scale:
            failures.append(f"{where}: eigenvalue sum {energies.sum()} != trace {np.trace(H)}")
        if energies.min() < V.min() - 1e-9 * scale or energies.max() > V.max() + 4.0 + 1e-9 * scale:
            failures.append(f"{where}: eigenvalues outside [min V, max V + 4]")
        if np.max(np.abs(np.linalg.eigvalsh(H) - energies)) > 1e-10 * scale:
            failures.append(f"{where}: eigenvalues differ from numpy's eigvalsh")
        # The fits read amplitudes down to the 1e-14 floor, where round-off of
        # the eigensolver decides them, so they are re-derived from the same
        # LAPACK driver (dsyevr) on the matrix assembled here.
        E, Q = sla.eigh(H, driver="evr")
        ok, rate, r2, shells = shell_fits(Q, floor, min_shells)
        gaps = np.minimum(np.diff(E, prepend=-np.inf), np.diff(E, append=np.inf))
        for j, r in enumerate(block):
            status = r[6]
            if status == "ok":
                rates.append(float(r[3]))
                r2s.append(float(r[4]))
            if gaps[j] < SIMPLE_GAP:
                continue
            stats["fits_compared"] += 1
            if (status == "ok") != bool(ok[j]):
                failures.append(f"{where} vector {j}: status {status}, recomputed {'ok' if ok[j] else 'skip'}")
            elif ok[j] and not (
                _close(float(r[3]), rate[j], 1e-9, 1e-9)
                and _close(float(r[4]), r2[j], 1e-9, 1e-9)
                and int(r[5]) == shells[j]
            ):
                failures.append(
                    f"{where} vector {j}: rate, r2, shells = {r[3]}, {r[4]}, {r[5]}; "
                    f"recomputed {rate[j]:.12g}, {r2[j]:.12g}, {shells[j]}"
                )
    if rates:
        median_rate, median_r2 = statistics.median(rates), statistics.median(r2s)
        stats.update(median_rate=median_rate, median_r2=median_r2)
        if not (median_rate >= 0.2 and median_r2 >= 0.9):
            failures.append(f"decay: median rate {median_rate:.3f} (>= 0.2), median r2 {median_r2:.3f} (>= 0.9)")
    else:
        failures.append("decay: no successful fit")
    return failures, stats


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def two_particle_hamiltonian(settings, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense H on the (2L+1)^2 box of two particles on a chain, and sup|x|."""
    L = settings["task.L"]
    side = 2 * L + 1
    x = np.arange(-L, L + 1)
    x1, x2 = np.repeat(x, side), np.tile(x, side)  # lexicographic (x1, x2)
    r = np.abs(x1 - x2).astype(float)
    kernel = settings["interaction.C"] * np.exp(-settings["interaction.c"] * r ** settings["interaction.tau"])
    diagonal = 4.0 + V[x1 + L] + V[x2 + L] + settings["model.h"] * kernel
    hop = -(np.eye(side, k=1) + np.eye(side, k=-1))
    H = np.kron(hop, np.eye(side)) + np.kron(np.eye(side), hop) + np.diag(diagonal)
    return H, np.maximum(np.abs(x1), np.abs(x2)).astype(float)


def vertex_maximum(B: np.ndarray) -> float:
    """max of c^T B c over all 2^m sign vectors c, by brute force."""
    m = B.shape[0]
    best = -math.inf
    chunk = 1 << 14
    bits = np.arange(m, dtype=np.int64)
    for start in range(0, 1 << m, chunk):
        codes = np.arange(start, min(start + chunk, 1 << m), dtype=np.int64)
        signs = 1.0 - 2.0 * ((codes[:, None] >> bits[None, :]) & 1)
        best = max(best, float(np.max(np.sum((signs @ B) * signs, axis=1))))
    return best


def check_moment(settings, seed: int, text: str) -> tuple[list[str], dict]:
    failures: list[str] = []
    stats = {"exact_compared": 0}
    L, R = settings["task.L"], settings["run.realizations"]
    lo, hi = settings["task.E_lo"], settings["task.E_hi"]
    limit = settings["task.vertex_limit"]
    rows = _data_rows(text)
    if len(rows) != R or [int(r[0]) for r in rows] != list(range(R)):
        return [f"moment: realizations {[r[0] for r in rows]}, expected 0..{R - 1}"], stats
    values = [float(r[2]) for r in rows]
    mean_lines = [line for line in text.splitlines() if line.startswith("# disorder-averaged mean = ")]
    if len(mean_lines) != 1 or not _close(float(mean_lines[0].rsplit("=", 1)[1]), sum(values) / R, 1e-12):
        failures.append(f"moment: header mean {mean_lines} != mean of rows {sum(values) / R}")
    pad = 0.05
    for index, (row, value) in enumerate(zip(rows, values)):
        where = f"moment realization {index}"
        method = row[3]
        if int(row[1]) != seed:
            failures.append(f"{where}: seed {row[1]}, expected {seed}")
        if not value >= 0.0:
            failures.append(f"{where}: value {value} < 0")
        V = _potential(settings, seed, index, -L, L)
        H, dist = two_particle_hamiltonian(settings, V)
        E, Q = sla.eigh(H, subset_by_value=(lo - pad, hi + pad))
        inside = (E >= lo) & (E <= hi)
        m = int(inside.sum())
        if np.any(np.abs(E - lo) < 1e-9) or np.any(np.abs(E - hi) < 1e-9):
            continue  # multiplicity decided by round-off
        expected = "ExactVertex" if m <= limit else "UpperBound"
        if method != expected:
            failures.append(f"{where}: method {method} at multiplicity {m}, expected {expected}")
            continue
        psi = Q[:, inside]
        phi = (dist ** (settings["task.s"] / 2.0))[:, None] * psi
        chi = (dist <= settings["task.K_radius"])[:, None] * psi
        gram_phi, gram_chi = phi.T @ phi, chi.T @ chi
        B = gram_phi * gram_chi
        # c = (1, ..., 1) gives ||W P_I 1_K||_HS^2, the same in every eigenbasis
        lower = float(np.sum(B))
        if method == "ExactVertex":
            upper = min(
                np.linalg.eigvalsh(gram_phi)[-1] * np.trace(gram_chi) if m else 0.0,
                np.trace(gram_phi) * np.linalg.eigvalsh(gram_chi)[-1] if m else 0.0,
            )
        else:
            upper = float(np.linalg.norm(gram_phi) * np.linalg.norm(gram_chi))
        if not lower * (1 - 1e-9) - 1e-12 <= value <= upper * (1 + 1e-9) + 1e-12:
            failures.append(f"{where}: value {value} outside basis-free bounds [{lower}, {upper}]")
        if m and (len(E) < 2 or np.min(np.diff(E)) >= SIMPLE_GAP):
            stats["exact_compared"] += 1
            recomputed = vertex_maximum(B) if method == "ExactVertex" else float(np.sum(np.abs(B)))
            if not _close(value, recomputed, 1e-6, 1e-12):
                failures.append(f"{where}: value {value}, recomputed {method} {recomputed}")
    return failures, stats
