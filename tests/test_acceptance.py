"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Two criteria check bounds whose constants are derived here rather than
picked:

* Criterion 5 squeezes each word's residual uncertainty between
  pi_min * ratio and (1 - pi_min)/pi_min * ratio.  The upper constant
  follows from bounding the posterior mass of every start state whose
  endpoint differs from that of the most likely start state; for two
  states it equals pi_max/pi_min.
* Criterion 10 checks that sampled length-L log-likelihood averages on
  M_NE cover the drift at the 95% level with the window the central limit
  theorem gives, z * sigma / sqrt(L), where sigma**2 is the asymptotic
  variance of the per-step log-likelihood ratio, autocorrelation
  included, computed from the machine tables.

See the README's "Acceptance gate" section for the derivations.
"""

import math
import time
from statistics import NormalDist

import numpy as np

from emsync import (
    classify,
    deadlock_analysis,
    edge_machine_stats,
    escape_rate,
    exact_word_stats,
    nonreset_profile,
    nsyn_bounds,
    pair_matrix,
    build_pair_automaton,
    prediction_rate,
    rate_report,
    reset_threshold,
    simulate_beliefs,
    spectral_radius,
    stationary_distribution,
    sync_rate,
)

E_NE = 0.186538595978474
SIGMA2_NE = 0.340233889498511


def drift_chain_moments(m, start_pair):
    """Drift and asymptotic variance of the per-step log-likelihood ratio.

    The chain runs on the ordered state pairs (x, y) reachable from
    start_pair: x emits symbol j with probability probs[x, j], both
    coordinates move on j, and the step contributes
    f = log(probs[x, j] / probs[y, j]).  The drift E is the stationary mean
    of f.  The asymptotic variance of the L-step average, times L, is
    Var(f) + 2 * sum_{k>=1} Cov(f_0, f_k); the covariance sum equals
    E[(f_0 - E) u(next pair)], where u solves the Poisson equation
    (I - P) u = g - E with g the per-pair mean of f.  Uses only m.probs and
    m.delta, so it is independent of the rates module.
    """
    pairs, index, steps = [start_pair], {start_pair: 0}, []
    for x, y in pairs:  # the list grows while it is walked
        for j in range(m.k):
            if m.probs[x, j] > 0.0:
                nxt = (int(m.delta[x, j]), int(m.delta[y, j]))
                if nxt not in index:
                    index[nxt] = len(pairs)
                    pairs.append(nxt)
                f = math.log(m.probs[x, j] / m.probs[y, j])
                steps.append((index[(x, y)], index[nxt], m.probs[x, j], f))
    a, b, p, f = (np.array(col) for col in zip(*steps))
    size = len(pairs)
    P = np.zeros((size, size))
    np.add.at(P, (a, b), p)
    system = np.vstack([P.T - np.eye(size), np.ones(size)])
    rho = np.linalg.lstsq(system, np.r_[np.zeros(size), 1.0], rcond=None)[0]
    weight = rho[a] * p
    drift = float(weight @ f)
    g = np.bincount(a, weights=p * f, minlength=size) - drift
    u = np.linalg.solve(np.eye(size) - P + np.outer(np.ones(size), rho), g)
    sigma2 = float(weight @ ((f - drift) ** 2 + 2.0 * (f - drift) * u[b]))
    return drift, sigma2


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_sync_rate_of_reference_machine(ref_ex):
    start = time.monotonic()
    src = sync_rate(ref_ex)
    _, at_stationary = nonreset_profile(ref_ex, 16)
    estimate = at_stationary[16] ** (1.0 / 16.0)
    elapsed = time.monotonic() - start
    ok = (
        abs(src - 0.353553391) <= 1e-6
        and abs(estimate - src) <= 1e-6
        and elapsed < 1.0
    )
    report(1, ok, f"src={src:.9g} profile_estimate={estimate:.9g} elapsed={elapsed:.2f}s")


def test_criterion_02_drift_and_prediction_rate_of_reference_machine(ref_ne):
    start = time.monotonic()
    pa, da = deadlock_analysis(ref_ne)
    drift = edge_machine_stats(da.components[0], pa).expectation
    prc = prediction_rate(ref_ne)
    elapsed = time.monotonic() - start
    ok = abs(drift - 0.186538596) <= 1e-6 and abs(prc - 0.829832) <= 1e-5 and elapsed < 1.0
    report(2, ok, f"E_M={drift:.9g} prc={prc:.9g} elapsed={elapsed:.2f}s")


def test_criterion_03_per_state_sandwich_on_exact_corpus(exact_corpus):
    start = time.monotonic()
    worst = 0.0
    ok = True
    for m in exact_corpus:
        by_state, _ = nonreset_profile(m, 10)
        for L in range(11):
            b = nsyn_bounds(m, L)
            lo = by_state[L] - b.state_maxima
            hi = b.state_totals - by_state[L]
            worst = max(worst, float(-lo.min()), float(-hi.min()))
            if (lo < -1e-9).any() or (hi < -1e-9).any():
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(3, ok, f"machines={len(exact_corpus)} L<=10 worst_violation={worst:.3g} elapsed={elapsed:.1f}s")


def test_criterion_04_stationary_sandwich_on_exact_corpus(exact_corpus):
    worst = 0.0
    ok = True
    for m in exact_corpus:
        _, at_stationary = nonreset_profile(m, 10)
        for L in range(11):
            b = nsyn_bounds(m, L)
            lo = at_stationary[L] - b.lower
            hi = b.upper - at_stationary[L]
            worst = max(worst, -lo, -hi)
            if lo < -1e-9 or hi < -1e-9:
                ok = False
    report(4, ok, f"machines={len(exact_corpus)} L<=10 worst_violation={worst:.3g}")


def test_criterion_05_belief_sandwich_per_word(mixed_corpus):
    checked = 0
    violations = 0
    worst = 0.0
    tightest = 0.0
    for m in mixed_corpus:
        pi = stationary_distribution(m)
        # Let f be the most likely start state and D the live start states
        # whose endpoint differs from f's; each t in D has P(w|t) <= P(w|s).
        # Then q_l <= sum_D pi(t) P(w|t) / (pi(f) P(w|f))
        #          <= (1 - pi(f))/pi(f) * ratio <= (1 - pi_min)/pi_min * ratio.
        # For n = 2 this is pi_max/pi_min.
        c1 = pi.pi_min
        c2 = (1.0 - pi.pi_min) / pi.pi_min
        for L in range(1, 9):
            stats = exact_word_stats(m, L, keep_words=True)
            for rec in stats.records:
                if rec.q_l <= 0.0:
                    continue
                checked += 1
                lo = rec.q_l - c1 * rec.ratio
                hi = c2 * rec.ratio - rec.q_l
                worst = max(worst, -lo, -hi)
                tightest = max(tightest, rec.q_l / (c2 * rec.ratio))
                if lo < -1e-9 or hi < -1e-9:
                    violations += 1
    ok = violations == 0
    detail = (
        f"machines={len(mixed_corpus)} words_checked={checked} worst_violation={worst:.3g}"
        f" max_q_over_upper={tightest:.3f}"
    )
    if not ok:
        detail += f"; {violations} words fall outside [pi_min, (1 - pi_min)/pi_min] * ratio"
    report(5, ok, detail)


def test_criterion_06_drift_positive_on_nonexact_corpus(nonexact_corpus):
    smallest = math.inf
    components = 0
    ok = True
    for m in nonexact_corpus:
        pa, da = deadlock_analysis(m)
        for comp in da.components:
            drift = edge_machine_stats(comp, pa).expectation
            components += 1
            smallest = min(smallest, drift)
            if drift <= 1e-12:
                ok = False
    report(6, ok, f"machines={len(nonexact_corpus)} components={components} min_E_M={smallest:.3g}")


def test_criterion_07_uncertainty_decay_slope(ref_ne):
    start = time.monotonic()
    checkpoints = list(range(50, 401, 50))
    sim = simulate_beliefs(ref_ne, 400, 10**4, seed=7, record_at=checkpoints)
    xs = np.array(checkpoints, dtype=float)
    ys = np.array([math.log(float(np.median(sim.q_at[L]))) for L in checkpoints])
    slope = float(np.polyfit(xs, ys, 1)[0])
    elapsed = time.monotonic() - start
    target = -0.186539
    ok = abs(slope - target) <= 0.1 * abs(target) and elapsed < 120.0
    report(7, ok, f"slope={slope:.6f} target={target} elapsed={elapsed:.1f}s")


def test_criterion_08_classification_cross_checks(
    exact_corpus, nonexact_corpus, mixed_corpus, ref_ex, ref_ne, ref_gm, ref_1
):
    machines = (
        list(exact_corpus)
        + list(nonexact_corpus)
        + list(mixed_corpus)
        + [ref_ex, ref_ne, ref_gm, ref_1]
    )
    ok = True
    for m in machines:
        exact = classify(m) == "exact"
        if exact != (reset_threshold(m) is not None):
            ok = False
        T = pair_matrix(build_pair_automaton(m))
        rho = spectral_radius(T) if T.size else 0.0
        if (not exact) != (abs(rho - 1.0) <= 1e-6):
            ok = False
    report(8, ok, f"machines={len(machines)} (reset-word oracle and pair-chain radius)")


def test_criterion_09_degenerate_machines(exact_corpus, ref_ex, ref_gm, ref_1):
    ok = sync_rate(ref_gm) == 0.0
    for m in list(exact_corpus) + [ref_ex, ref_gm, ref_1]:
        if prediction_rate(m) != 0.0:
            ok = False
    r1 = rate_report(ref_1)
    if not (r1.src == 0.0 and r1.prc == 0.0 and r1.escape == 0.0):
        ok = False
    report(9, ok, "src(M_GM)=0, prc=0 on every exact machine, M_1 all zero")


def test_criterion_10_drift_average_concentration(ref_ne):
    length, runs, level = 400, 10**4, 0.95
    drift, sigma2 = drift_chain_moments(ref_ne, (0, 1))
    window = NormalDist().inv_cdf((1.0 + level) / 2.0) * math.sqrt(sigma2 / length)
    y = simulate_beliefs(ref_ne, length, runs, seed=10).y_values
    coverage = float((np.abs(y - E_NE) <= window).mean())
    bias = float(y.mean()) - E_NE
    # four binomial / CLT standard errors of the coverage and of the mean
    coverage_tol = 4.0 * math.sqrt(level * (1.0 - level) / y.size)
    bias_tol = 4.0 * math.sqrt(sigma2 / (length * y.size))
    ok = (
        abs(drift - E_NE) <= 1e-9
        and abs(sigma2 - SIGMA2_NE) <= 1e-9
        and abs(coverage - level) <= coverage_tol
        and abs(bias) <= bias_tol
    )
    report(
        10,
        ok,
        f"sigma2={sigma2:.9g} window={window:.6f} coverage={coverage:.4f}"
        f" (target {level} +- {coverage_tol:.4f}) mean_bias={bias:.2g} (limit {bias_tol:.2g})",
    )
