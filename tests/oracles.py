"""Dense reference computations that the tests check the library against.

Each oracle takes the slow, literal route on purpose: it shares no fast
path with the code under test, so it is only usable at small D.
"""

import math

import numpy as np

from dvconv import experiments
from dvconv.conv import (ConvolutionSpec, beam_splitter_spec, convolve,
                         convolve_characteristic, default_spec, holevo_bounds,
                         holevo_weyl_ensemble, partner_stabilizer_group)
from dvconv.entropy import (FULL_RANK_TOL, fisher_fd_oracle, fisher_information,
                            relative_entropy, renyi_entropy,
                            sandwiched_relative_entropy, total_fisher)
from dvconv.errors import InvalidGroup
from dvconv.experiments import clt_run
from dvconv.linalg import herm_eig
from dvconv.magic import (clifford_words, draw_clifford_t, log_magic_gap, make_zero_mean,
                          mean_state)
from dvconv.states import (UNIT_TOL, DensityMatrix, StabilizerGroup, enumerate_groups,
                           ket_state, msps_states, msps_table, random_density,
                           unit_phases)
from dvconv.weyl import (SUPPORT_TOL, CharFunction, char_function, char_table, phase_points,
                         point_index, weyl_op, xi)
from dvconv.zmod import rref_mod

UNITARY_TOL = 1e-10
CLIFFORD_TOL = 1e-9


def enumerate_msps(d: int, n: int = 1, mixed: bool = True) -> list[DensityMatrix]:
    """The members of ``msps_states(enumerate_groups(d, n, mixed))`` as a list."""
    stack = msps_states(enumerate_groups(d, n, mixed))
    return [stack[i] for i in range(len(stack.mat))]


def schatten2_norm(A: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(A) ** 2)))


def is_clifford(U: np.ndarray, d: int, n: int) -> bool:
    """True iff U maps every Weyl generator to a phase times a Weyl operator.

    Checking the 2n generators suffices by the group structure.  A matrix
    of the wrong shape, or one that is not unitary, is a ValueError.
    """
    D = d**n
    if U.shape != (D, D):
        raise ValueError(f"U has shape {U.shape}, expected {(D, D)}")
    if np.max(np.abs(U @ U.conj().T - np.eye(D))) > UNITARY_TOL:
        raise ValueError(f"U is not unitary within {UNITARY_TOL:.0e}")
    for k in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[k] = 1
        zero = np.zeros(n, dtype=np.int64)
        for p, q in ((e, zero), (zero, e)):
            B = U @ weyl_op(d, n, p, q) @ U.conj().T
            coeffs = np.abs(char_table(B, d, n)) / D
            top = np.max(coeffs)
            rest = np.partition(coeffs, -2)[-2]
            if abs(top - 1.0) > CLIFFORD_TOL or rest > CLIFFORD_TOL:
                return False
    return True


def ginibre_state(seed, d: int, n: int, rank=None) -> np.ndarray:
    """The Ginibre matrix A A^dag / Tr of one seed, drawn and multiplied on
    its own: A is the (D, rank) real draw plus i times the next one."""
    D = d**n
    r = D if rank is None else int(rank)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((D, r)) + 1j * rng.standard_normal((D, r))
    M = A @ A.conj().T
    return M / np.trace(M).real


def msps_from_group(group: StabilizerGroup) -> DensityMatrix:
    """rho = (1/d^{n-r}) prod_i E_k [xi^{x_i} w(p_i, q_i)]^k, from d r dense
    Weyl products."""
    d, n = group.d, group.n
    D = d**n
    P = np.eye(D, dtype=complex)
    w = xi(d)
    for label, x in zip(group.generators, group.phases):
        g = np.asarray(label, dtype=np.int64)
        W = weyl_op(d, n, g[:n], g[n:])
        avg = np.zeros((D, D), dtype=complex)
        term = np.eye(D, dtype=complex)
        for k in range(d):
            avg += (w**x) ** k * term
            term = term @ W
        P = P @ (avg / d)
    scale = d ** (n - group.r)
    tr = np.trace(P).real
    if abs(tr - scale) > 1e-8 * scale:
        raise InvalidGroup(f"projector trace {tr:.6f}, expected {scale}")
    return DensityMatrix(d, n, (P + P.conj().T) / (2 * scale))


def scalar_is_msps(table: CharFunction) -> tuple[bool, StabilizerGroup | None]:
    """MSPS test of one table, one step at a time: every |Xi| 1 or at most
    SUPPORT_TOL, a unit support of d^r points whose row-echelon generators
    commute, and the table within UNIT_TOL of the msps_table of those
    generators with the phases read off them.  Returns the recovered group
    on success."""
    d, n = table.d, table.n
    phases = unit_phases(table.values)
    unit = phases != 0
    if not np.all(unit | (np.abs(table.values) <= SUPPORT_TOL)):
        return False, None
    R, pivots = rref_mod(phase_points(d, n)[unit], d)
    if np.count_nonzero(unit) != d ** len(pivots):
        return False, None
    gens = tuple(tuple(row) for row in R[:len(pivots)].tolist())
    ks = tuple(int(round(d * np.angle(phases[point_index(g, d)]) / (2 * np.pi))) % d
               for g in gens)
    try:
        group = StabilizerGroup(d, n, gens, ks)
    except InvalidGroup:  # the generators do not commute
        return False, None
    if np.max(np.abs(msps_table(group).values - phases)) > UNIT_TOL:
        return False, None
    return True, group


def weyl_orbit_holevo(spec: ConvolutionSpec, sigma: DensityMatrix,
                      rho0: DensityMatrix) -> tuple[float, float, float]:
    """The full-orbit Holevo sweep: (Holevo quantity, average deviation, spread).

    The Holevo quantity is H(avg) - mean H(outputs) over the uniform Weyl orbit
    of rho0; the average deviation is max |avg - I/d^n|; the spread is the
    largest difference between two orbit output entropies.
    """
    d, n = spec.d, spec.n
    outputs = []
    for label in phase_points(d, n):
        W = weyl_op(d, n, label[:n], label[n:])
        displaced = DensityMatrix(d, n, W @ rho0.mat @ W.conj().T)
        outputs.append(convolve(displaced, sigma, spec))
    D = d**n
    avg = sum(out.mat for out in outputs) / len(outputs)
    entropies = np.array([renyi_entropy(out, 1) for out in outputs])
    holevo = renyi_entropy(DensityMatrix(d, n, (avg + avg.conj().T) / 2), 1) \
        - np.mean(entropies)
    dev = float(np.max(np.abs(avg - np.eye(D) / D)))
    return float(holevo), dev, float(np.ptp(entropies))


def dense_clt(rho: DensityMatrix, spec: ConvolutionSpec, n_max: int,
              alphas) -> tuple[list[float], list[dict]]:
    """The CLT iteration on dense matrices: rho_N = rho_{N-1} boxtimes rho_0
    by the matrix-side ``convolve``, from rho_0 = w(x) rho w(x)^dag built
    with ``weyl_op``, where x is the zero-mean displacement of rho.  Returns
    ||rho_N - M||_2 and {alpha: H_alpha(rho_N)} for N = 0..n_max, with M the
    mean state of rho_0.
    """
    d, n = rho.d, rho.n
    x, _ = make_zero_mean(char_function(rho))
    W = weyl_op(d, n, x[:n], x[n:])
    rho0 = DensityMatrix(d, n, W @ rho.mat @ W.conj().T)
    M = mean_state(char_function(rho0))
    norms, entropies = [], []
    cur = rho0
    for N in range(n_max + 1):
        if N > 0:
            cur = convolve(cur, rho0, spec)
        norms.append(schatten2_norm(cur.mat - M.mat))
        entropies.append({a: renyi_entropy(cur, a) for a in alphas})
    return norms, entropies


def scalar_renyi(lam: np.ndarray, alpha: float) -> float:
    """H_alpha in bits of one descending spectrum, one case at a time: the
    alpha rules written per state, with the eigenvalues each rule cuts
    removed rather than replaced."""
    if alpha == 1:
        pos = lam[lam > FULL_RANK_TOL]
        return float(-np.sum(pos * np.log2(pos)))
    if alpha == 0:
        return float(np.log2(np.sum(lam > SUPPORT_TOL)))
    if alpha == math.inf:
        return float(-np.log2(lam[0]))
    if alpha < 0:
        if lam[-1] <= FULL_RANK_TOL:
            return math.inf
        if alpha == -math.inf:
            return float(np.log2(lam[-1]))
        return float(-np.log2(np.sum(lam**alpha)) / (1 - alpha))
    pos = lam[lam > FULL_RANK_TOL] if alpha < 1 else lam
    return float(np.log2(np.sum(pos**alpha)) / (1 - alpha))


def _support_projector(sigma: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    vals, vecs = sigma.eigenvalues(), sigma.eigenvectors
    keep = vals > SUPPORT_TOL
    return vals[keep], vecs[:, keep], vecs[:, ~keep]


def _outside_support_weight(rho: DensityMatrix, kernel_vecs: np.ndarray) -> float:
    if kernel_vecs.shape[1] == 0:
        return 0.0
    return float(np.real(np.trace(kernel_vecs.conj().T @ rho.mat @ kernel_vecs)))


def scalar_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Umegaki D(rho||sigma) in bits of one pair, on sigma's support columns
    only; +inf when rho's weight off that support exceeds SUPPORT_TOL."""
    svals, svecs, skern = _support_projector(sigma)
    if _outside_support_weight(rho, skern) > SUPPORT_TOL:
        return math.inf
    rvals = rho.eigenvalues()
    rpos = rvals[rvals > FULL_RANK_TOL]
    s1 = float(np.sum(rpos * np.log2(rpos)))
    log_sigma = (svecs * np.log2(svals)) @ svecs.conj().T
    s2 = float(np.real(np.trace(rho.mat @ log_sigma)))
    return s1 - s2


def scalar_sandwiched_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix,
                                       alpha: float) -> float:
    """Sandwiched Renyi divergence D_alpha of one pair, alpha in [1/2, inf],
    one case at a time on sigma's support columns."""
    if alpha == 1:
        return scalar_relative_entropy(rho, sigma)
    if not (0.5 <= alpha):
        raise ValueError("alpha must be in [1/2, inf]")
    svals, svecs, skern = _support_projector(sigma)
    if alpha > 1 and _outside_support_weight(rho, skern) > SUPPORT_TOL:
        return math.inf
    if alpha == math.inf:
        inv_sqrt = (svecs * svals**-0.5) @ svecs.conj().T
        mid = inv_sqrt @ rho.mat @ inv_sqrt
        vals, _ = herm_eig((mid + mid.conj().T) / 2)
        return float(np.log2(vals[0]))
    e = (1 - alpha) / (2 * alpha)
    sig_e = (svecs * svals**e) @ svecs.conj().T
    mid = sig_e @ rho.mat @ sig_e
    vals, _ = herm_eig((mid + mid.conj().T) / 2)
    # below 1 the power lifts eigensolver noise: the noise is removed, as in scalar_renyi
    vals = vals[vals > FULL_RANK_TOL] if alpha < 1 else np.clip(vals, 0.0, None)
    return float(np.log2(np.sum(vals**alpha)) / (alpha - 1))


def per_trial_records(name: str, seed: int, trials: int, **params) -> list[tuple]:
    """(index, metric, value) of every record of the sampled suite ``name``
    (duality, entropy, fisher, monotonicity, holevo, stability, min-output,
    synthesis, extremality or clt, at its default steps), in report order,
    rebuilt one trial at a time from single-state calls: the suites' draws
    and checks written as a loop over trials, with no stack.  ``params``
    are the suite's other parameters (fisher's oracle_cases).  Stability
    and min-output sample nothing and ignore seed and trials.

    The draw rule is restated here, not imported: ``_rngs(seed, count)``
    spawns one generator per trial from ``default_rng(seed)``, and a suite
    of blocks spawns one child per block, then one grandchild per trial.
    Each trial draws its discrete choices first, then its states in the
    order the suite names them, then any circuits, all from its own
    generator."""
    return _PER_TRIAL[name](seed, trials, **params)


def _rngs(seed, count):
    return np.random.default_rng(seed).spawn(count)


def _spec(d, n):
    return beam_splitter_spec(d, n) if d >= 7 else default_spec(d, n)


def _duality(seed, trials):
    configs = [(3, 1), (3, 2), (7, 1)]
    out = []
    for i, rng in enumerate(_rngs(seed, trials)):
        d, n = configs[i % len(configs)]
        spec = _spec(d, n)
        ranks = rng.integers(1, d**n + 1, size=2)
        a = random_density(rng, d, n, int(ranks[0]))
        b = random_density(rng, d, n, int(ranks[1]))
        lhs = char_function(convolve(a, b, spec)).values
        rhs = convolve_characteristic(char_function(a), char_function(b), spec).values
        out.append((i, f"duality_dev_d{d}n{n}", float(np.max(np.abs(lhs - rhs)))))
    return out


def _entropy(seed, trials):
    out = []
    for (d, n), block in zip([(3, 1), (7, 1)], _rngs(seed, 2)):
        spec = _spec(d, n)
        D = d**n
        for i, rng in enumerate(block.spawn(trials)):
            full_rank = i % 2 == 0
            ranks = (D, D) if full_rank else rng.integers(1, D + 1, size=2)
            a = random_density(rng, d, n, int(ranks[0]))
            b = random_density(rng, d, n, int(ranks[1]))
            c = convolve(a, b, spec)
            alphas = experiments.ALPHAS_NONNEG + (experiments.ALPHAS_NEG if full_rank else ())
            for alpha in alphas:
                gap = max(renyi_entropy(a, alpha), renyi_entropy(b, alpha)) \
                    - renyi_entropy(c, alpha)
                out.append((i, f"entropy_gap_d{d}n{n}_a{alpha}", gap))
    return out


def _fisher(seed, trials, oracle_cases=20):
    out = []
    *config_blocks, case_block = _rngs(seed, 3)
    for (d, n), block in zip([(3, 1), (7, 1)], config_blocks):
        spec = _spec(d, n)
        for i, rng in enumerate(block.spawn(trials)):
            a = random_density(rng, d, n)
            b = random_density(rng, d, n)
            gap = total_fisher(convolve(a, b, spec)) - min(total_fisher(a), total_fisher(b))
            out.append((i, f"fisher_gap_d{d}n{n}", gap))
    for i, rng in enumerate(case_block.spawn(oracle_cases)):
        d = 3 if i % 2 == 0 else 7
        j = int(rng.integers(d))
        rho = random_density(rng, d, 1)
        H = np.zeros((d, d), dtype=complex)
        H[j, j] = 1.0
        dev = abs(fisher_information(rho, H) - fisher_fd_oracle(rho, H))
        out.append((i, f"fisher_fd_dev_d{d}", dev))
    return out


def _monotonicity(seed, trials):
    d, n = 3, 1
    spec = _spec(d, n)
    out = []
    for i, rng in enumerate(_rngs(seed, trials)):
        rank = int(rng.integers(1, d**n + 1))
        rho = random_density(rng, d, n)
        sigma = random_density(rng, d, n)
        tau = random_density(rng, d, n, rank)
        rc, sc = convolve(rho, tau, spec), convolve(sigma, tau, spec)
        after, before = (np.abs(np.linalg.eigvalsh(A)).sum(axis=-1)
                         for A in (rc.mat - sc.mat, rho.mat - sigma.mat))
        out.append((i, "trace_norm_gap", after - before))
        out.append((i, "rel_entropy_gap",
                    relative_entropy(rc, sc) - relative_entropy(rho, sigma)))
    return out


def _holevo(seed, trials):
    out = []
    for i, rng in enumerate(_rngs(seed, trials)):
        d = 3 if i % 2 == 0 else 7
        spec = _spec(d, 1)
        rank = int(rng.integers(1, d + 1))
        sigma = random_density(rng, d, 1, rank)
        lower, upper = holevo_bounds(spec, sigma)
        out.append((i, f"sandwich_order_d{d}", lower - upper))
        rho0 = random_density(rng, d, 1, 1)
        out.append((i, f"ensemble_below_upper_d{d}",
                    holevo_weyl_ensemble(spec, sigma, rho0) - upper))
    spec = default_spec(3, 1)
    candidates = enumerate_msps(3)
    for j, sigma in enumerate(candidates):
        _, upper = holevo_bounds(spec, sigma)
        best = max(holevo_weyl_ensemble(spec, sigma, rho0) for rho0 in candidates)
        out.append((j, "msps_equality_gap", upper - best))
    cap = np.log2(3)
    for j, sigma in enumerate(enumerate_msps(3, mixed=False)):
        lower, upper = holevo_bounds(spec, sigma)
        out.append((j, "stab_bounds_collapse", max(abs(lower - cap), abs(upper - cap))))
    return out


def _synthesis(seed, trials):
    out = []
    for i, rng in enumerate(_rngs(seed, trials)):
        n = 1 + i % 2
        n_t = int(rng.integers(0, 4))
        V = clifford_words(draw_clifford_t(rng, n, n_t), 2, n)
        ket = ket_state(2, n, [0] * n)
        rho = DensityMatrix(2, n, V @ ket.mat @ V.conj().T)
        out.append((i, f"lmg_minus_halfN_n{n}", log_magic_gap(char_function(rho)) - n_t / 2))
    return out


def _stability(seed, trials):
    d = 3
    spec = default_spec(d, 1)
    pure = enumerate_msps(d, mixed=False)
    out = []
    for a in pure:
        for b in pure:
            ok, _ = scalar_is_msps(char_function(convolve(a, b, spec)))
            out.append((len(out), "is_msps", 0.0 if ok else 1.0))
    return out


def _min_output(seed, trials):
    d = 3
    spec = default_spec(d, 1)
    groups = enumerate_groups(d, mixed=False)
    pure = enumerate_msps(d, mixed=False)
    partners = tuple(partner_stabilizer_group(g, spec) for g in groups)
    partner_states = msps_states(partners)
    out = []
    # one line per phase-0 group: its partner's state convolved with its own
    for i, j in enumerate(range(0, len(groups), d)):
        h = renyi_entropy(convolve(partner_states[j], pure[j], spec), 1)
        out.append((i, "partner_output_entropy", h))
    for ia, a in enumerate(pure):
        for ib, b in enumerate(pure):
            h = renyi_entropy(convolve(a, b, spec), 1)
            gens = rref_mod(np.array(partners[ib].generators), d)[0]
            is_partner = groups[ia].generators == tuple(map(tuple, gens.tolist()))
            idx = ia * len(pure) + ib
            out.append((idx, "zero_entropy_iff_partner",
                        0.0 if (h < experiments.PURE_OUT_TOL) == is_partner else 1.0))
            if not is_partner:
                out.append((idx, "mismatch_entropy_floor", 0.1))
    return out


def _extremality(seed, trials):
    d = 3
    msps_set = enumerate_msps(d)
    out = []
    for i, rng in enumerate(_rngs(seed, trials)):
        if i % 5 == 4:
            rho = msps_set[i % len(msps_set)]
        else:
            rank = int(rng.integers(1, d + 1))
            rho = random_density(rng, d, 1, rank)
        # M(rho) built densely, then found among the enumeration by its matrix
        M = mean_state(char_function(rho))
        k = int(np.argmin([np.max(np.abs(sigma.mat - M.mat)) for sigma in msps_set]))
        for alpha in experiments.ALPHAS_EXTREMALITY:
            d_mean = sandwiched_relative_entropy(rho, msps_set[k], alpha)
            h_mean = renyi_entropy(msps_set[k], alpha)
            out.append((i, f"identity_dev_a{alpha}",
                        abs(d_mean - (h_mean - renyi_entropy(rho, alpha)))))
            for j, sigma in enumerate(msps_set):
                d_other = sandwiched_relative_entropy(rho, sigma, alpha)
                if j != k and d_other != math.inf:
                    out.append((i, f"uniqueness_margin_a{alpha}_s{j}",
                                d_mean + experiments.EXTREMALITY_TOL - d_other))
    return out


def _clt(seed, trials, steps=experiments.CLT_STEPS):
    d = 7
    spec = beam_splitter_spec(d, 1)
    out = []
    for i, rng in enumerate(_rngs(seed, trials)):
        rank = 1 if i % 2 == 0 else int(rng.integers(1, d + 1))
        series = clt_run(random_density(rng, d, 1, rank), spec, steps)
        out.append((i, "norm_bound_gap", np.max(series.norms - series.bounds)))
        slope = experiments.log_slope(series.norms)
        if slope is not None and series.mg < 1:
            out.append((i, "log_slope_gap", slope - math.log(1 - series.mg)))
        for alpha, hs in series.entropies.items():
            out.append((i, f"second_law_drop_a{alpha}", np.max(hs[:-1] - hs[1:])))
    return out


_PER_TRIAL = {"duality": _duality, "entropy": _entropy, "fisher": _fisher,
              "monotonicity": _monotonicity, "holevo": _holevo,
              "stability": _stability, "min-output": _min_output, "synthesis": _synthesis,
              "extremality": _extremality, "clt": _clt}
