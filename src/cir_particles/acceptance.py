"""Acceptance suite: ten oracle-backed criteria, one pass/fail line each.

Every tolerance and sample size is pinned here.  Seeds are fixed for
reproducibility; the statistical margins (KS significance 0.01, 4-5 standard
errors, binomial intervals) leave comfortable headroom so the checks are not
seed-lotteries.  Criterion 6 aggregates the same-step double-event monitors
collected by the simulation runs of criteria 1-5, so those always run first.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc

from .cirprocess import (
    CirParams,
    exact_step,
    integrated_laplace,
    integrated_sum_paths,
    sum_process,
)
from .integrators import (
    Scheme,
    SimConfig,
    Terminated,
    contraction_curve,
    simulate_batch,
    simulate_coupled_cir,
)
from .model import ModelParams, drift_lambda, grad_potential, potential_value
from .randomness import rng_streams
from .stats import (
    empirical_laplace,
    finite_diff_gradient,
    ks_test,
    ks_test_two_sample,
    z_score,
)
from .stationary import gamma_sum_law, mh_sampler

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]

_DOUBLE_SCAN_LEVEL = 1e-4


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    seconds: float | None = None  # wall time, set by run_acceptance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = "; ".join(self.details)
        took = "" if self.seconds is None else f" ({self.seconds:.1f} s)"
        return f"{status}  [{self.index}] {self.name}{took}: {detail}"


class _DoubleEventRegistry:
    """Same-step double events at 1e-4, harvested from criteria 1-5 runs."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, run: str, result) -> None:
        mon = result.monitors.get(_DOUBLE_SCAN_LEVEL)
        if mon is not None:
            self.counts[run] = int(np.count_nonzero(~np.isnan(mon["double"])))

    def total(self) -> int:
        return sum(self.counts.values())


def criterion_1_sum_is_cir(registry: _DoubleEventRegistry) -> CriterionResult:
    """Coordinate sum at t=1 matches the exact CIR transition; KS shrinks with dt."""
    t0 = time.time()
    params = ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3)
    start = np.array([1.0, 2.0, 3.0])
    oracle = exact_step(
        sum_process(params), np.full(100_000, start.sum()), 1.0, rng_streams(2024, 0)
    )
    distances = {}
    p_fine = None
    for dt, refine in ((4e-3, 4), (2e-3, 2), (1e-3, 1)):
        config = SimConfig(dt=dt, horizon=1.0, seed=2024, paths=10_000)
        res = simulate_batch(
            params,
            config,
            initial=start,
            noise_refine=refine,
            event_levels=[_DOUBLE_SCAN_LEVEL],
        )
        registry.add(f"c1(dt={dt:g})", res)
        d, p = ks_test_two_sample(res.final_lambda.sum(axis=1), oracle)
        distances[dt] = d
        if dt == 1e-3:
            p_fine = p
    decreasing = distances[4e-3] > distances[2e-3] > distances[1e-3]
    fast = time.time() - t0 < 120.0
    passed = p_fine >= 0.01 and decreasing and fast
    details = [
        f"KS p={p_fine:.3f} at dt=1e-3 (need >= 0.01)",
        "D by dt: " + ", ".join(f"{dt:g}:{d:.4f}" for dt, d in distances.items()),
        f"monotone decrease={decreasing}",
        f"runtime < 120s={fast}",
    ]
    return CriterionResult(1, "sum_is_cir_transition", passed, details)


def criterion_2_stationary_gamma(registry: _DoubleEventRegistry) -> CriterionResult:
    """Endpoint sum at horizon 20 and the MH sum both match Gamma(2, 1)."""
    params = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
    config = SimConfig(
        scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=20.0, seed=31, paths=10_000
    )
    res = simulate_batch(params, config, event_levels=[_DOUBLE_SCAN_LEVEL])
    registry.add("c2", res)
    shape, rate = gamma_sum_law(params)
    cdf = lambda x: gammainc(shape, rate * np.asarray(x))  # noqa: E731
    d_sim, p_sim = ks_test(res.final_lambda.sum(axis=1), cdf)
    mh = mh_sampler(params, 10_000, np.random.default_rng(1234), thin=25)
    d_mh, p_mh = ks_test(mh.sums, cdf)
    passed = p_sim >= 0.01 and p_mh >= 0.01
    details = [
        f"simulated sum KS p={p_sim:.3f} (D={d_sim:.4f})",
        f"MH sum KS p={p_mh:.3f} (D={d_mh:.4f}); both need >= 0.01 vs Gamma(2,1)",
    ]
    return CriterionResult(2, "stationary_gamma_sum", passed, details)


def criterion_3_contraction(registry: _DoubleEventRegistry) -> CriterionResult:
    """Coupled mean L1 gap sits under exp(-2 gamma t) times the initial gap.

    Run in the collision-free global regime (beta >= 1, kappa >= 2): across
    collisions the clamped Euler coupling carries a discretization excess that
    does not vanish with dt, so the clean inequality is asserted where the
    coupled scheme is faithful.
    """
    params = ModelParams(alpha=3.2, beta=1.2, gamma=1.0, n=2)
    config = SimConfig(dt=1e-3, horizon=2.0, seed=47, paths=4_000)
    initial_a = np.array([1.0, 2.0])
    initial_b = np.array([0.5, 2.5])
    gap0 = float(np.abs(initial_a - initial_b).sum())
    curve = contraction_curve(params, config, initial_a, initial_b, (0.5, 1.0, 2.0))
    details = []
    passed = True
    for t, s in curve.items():
        bound = math.exp(-2.0 * params.gamma * t) * gap0
        margin = bound * (1.0 + 3.0 * s.stderr / max(s.estimate, 1e-300))
        ok = s.estimate <= margin
        passed &= ok
        details.append(
            f"t={t:g}: gap {s.estimate:.5f}+-{s.stderr:.5f} <= e^-2t bound {bound:.5f} ({'ok' if ok else 'FAIL'})"
        )
    return CriterionResult(3, "coupling_contraction", passed, details)


def criterion_4_phase_diagram(registry: _DoubleEventRegistry) -> CriterionResult:
    """Table-regime behaviour: no collisions at beta>=1; certain collision at
    beta<1; certain stop at S_eps for kappa<0."""
    details = []

    # (a) beta = 1.2: no pair events at delta = 1e-4 over 1000 paths.
    params_a = ModelParams(alpha=3.0, beta=1.2, gamma=1.0, n=3)
    config_a = SimConfig(
        scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=10.0,
        seed=101, paths=1_000, collision_tol=1e-4,
    )
    res_a = simulate_batch(params_a, config_a, event_levels=[1e-4])
    registry.add("c4a", res_a)
    events_a = int((~np.isnan(res_a.monitors[1e-4]["gap"])).any(axis=1).sum())
    ok_a = events_a == 0
    details.append(f"(a) beta=1.2: {events_a} paths with a 1e-4 gap event (need 0)")

    # (b) kappa = 1.1, gamma = 1: collision by horizon 100 in >= 99% of paths.
    params_b = ModelParams(alpha=1.6, beta=0.5, gamma=1.0, n=2)
    config_b = SimConfig(dt=1e-3, horizon=100.0, seed=102, paths=1_000)
    res_b = simulate_batch(
        params_b, config_b,
        event_levels=[1e-3, _DOUBLE_SCAN_LEVEL],
        stop_on=("gap_any", 1e-3),
    )
    registry.add("c4b", res_b)
    frac_b = float((~np.isnan(res_b.monitors[1e-3]["gap"][:, 0])).mean())
    ok_b = frac_b >= 0.99
    details.append(f"(b) kappa=1.1: collision fraction {frac_b:.3f} (need >= 0.99)")

    # (c) kappa = -0.1, gamma = 0: stop at S_eps in >= 99% of paths.
    params_c = ModelParams(alpha=0.4, beta=0.5, gamma=0.0, n=2)
    config_c = SimConfig(
        scheme=Scheme.C_EPSILON, dt=1e-3, horizon=100.0,
        seed=103, paths=1_000, epsilon=1e-2,
    )
    res_c = simulate_batch(params_c, config_c, event_levels=[_DOUBLE_SCAN_LEVEL])
    registry.add("c4c", res_c)
    stopped = [res_c.terminated(i) == Terminated.STOPPED_AT_S_EPS for i in range(res_c.n_paths)]
    frac_c = float(np.mean(stopped))
    ok_c = frac_c >= 0.99
    details.append(f"(c) kappa=-0.1: stopped_at_S_eps fraction {frac_c:.3f} (need >= 0.99)")

    return CriterionResult(
        4, "collision_phase_diagram", ok_a and ok_b and ok_c, details
    )


def criterion_5_multiple_collision(registry: _DoubleEventRegistry) -> CriterionResult:
    """Partial-sum zero hit for threshold < 2; none for threshold >= 2."""
    details = []

    # (a) alpha = 1: threshold 1.2 < 2, hit by horizon 200 in >= 95% of paths.
    params_a = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
    config_a = SimConfig(
        scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=200.0,
        seed=104, paths=1_000,
    )
    res_a = simulate_batch(
        params_a, config_a,
        event_levels=[1e-3, _DOUBLE_SCAN_LEVEL],
        stop_on=("psum", 2, 1e-3),
    )
    registry.add("c5a", res_a)
    frac_a = float((~np.isnan(res_a.monitors[1e-3]["psum"][:, 1])).mean())
    ok_a = frac_a >= 0.95
    details.append(f"(a) threshold 1.2: hit fraction {frac_a:.3f} (need >= 0.95)")

    # (b) alpha = 2: threshold 3.2 >= 2.  The hit fraction at delta = 1e-3
    # must stay below 0.01 at every refinement level, and must decrease in
    # delta toward zero along the ladder, with the tightest level (1e-4,
    # where genuine transient excursions are too brief for any grid) showing
    # no events at all.  A nonzero 1e-4 rate is the signature of a scheme
    # artifact; the exact-boundary splitting scheme produces none.
    params_b = ModelParams(alpha=2.0, beta=0.4, gamma=0.0, n=3)
    ok_b = True
    for dt in (2e-3, 1e-3):
        config_b = SimConfig(
            scheme=Scheme.EXACT_CIR_SPLITTING, dt=dt, horizon=50.0,
            seed=105, paths=1_000,
        )
        res_b = simulate_batch(
            params_b, config_b,
            event_levels=[1e-2, 1e-3, 1e-4, _DOUBLE_SCAN_LEVEL],
            stop_on=("psum", 2, 1e-4),
        )
        registry.add(f"c5b(dt={dt:g})", res_b)
        ladder = {
            lev: float((~np.isnan(res_b.monitors[lev]["psum"][:, 1])).mean())
            for lev in (1e-2, 1e-3, 1e-4)
        }
        ok_b &= ladder[1e-3] <= 0.01
        ok_b &= ladder[1e-2] >= ladder[1e-3] >= ladder[1e-4]
        ok_b &= ladder[1e-4] == 0.0
        details.append(
            f"(b) dt={dt:g} ladder 1e-2/1e-3/1e-4: "
            f"{ladder[1e-2]:.3f}/{ladder[1e-3]:.4f}/{ladder[1e-4]:.4f} "
            f"(need <= 0.01 at 1e-3, decreasing in delta, 0 at 1e-4)"
        )
    return CriterionResult(
        5, "multiple_collision_in_zero", ok_a and ok_b, details
    )


def criterion_6_no_double_events(registry: _DoubleEventRegistry) -> CriterionResult:
    """No same-step double events at 1e-4 anywhere in the criteria 1-5 runs."""
    total = registry.total()
    passed = total == 0 and len(registry.counts) > 0
    details = [
        f"{total} double events across {len(registry.counts)} monitored runs",
        "runs: " + ", ".join(sorted(registry.counts)),
    ]
    return CriterionResult(6, "no_multiple_collisions", passed, details)


def criterion_7_laplace(registry: _DoubleEventRegistry) -> CriterionResult:
    """Closed-form integrated-CIR Laplace transform vs 1e5 exact paths."""
    params = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
    sum0 = 3.0
    probes = integrated_sum_paths(
        params, sum0, 100_000, 2.5e-3, (0.5, 1.0, 2.0), rng_streams(777, 0)
    )
    details = []
    zs = []
    for tp in (0.5, 1.0, 2.0):
        for mu in (0.5, 1.0):
            emp = empirical_laplace(probes[tp], mu)
            zs.append(z_score(emp, integrated_laplace(params, sum0, mu, tp).value))
            if math.isnan(zs[-1]):
                details.append(f"mu={mu:g}, t={tp:g}: z is NaN, the Monte Carlo stderr is 0")
    worst = float(np.max(np.abs(zs)))  # a NaN z stays NaN, as max() would not keep it
    passed = worst <= 4.0
    details.append(f"worst |z| over (mu,t) grid = {worst:.2f} (need <= 4)")
    limit = 1.0 / (math.sqrt(3.0) + 1.0)
    psi_err = abs(
        integrated_laplace(ModelParams(1.0, 0.5, 1.0, 2), 1.0, 1.0, 1e3).psi - limit
    )
    passed &= psi_err <= 1e-9
    details.append(f"psi large-t limit error = {psi_err:.1e} (need <= 1e-9)")
    return CriterionResult(7, "integrated_cir_laplace", passed, details)


def criterion_8_gradient_consistency(registry: _DoubleEventRegistry) -> CriterionResult:
    """Finite differences match grad V; drift sum identity to 8 ulps."""
    params = ModelParams(alpha=2.0, beta=0.4, gamma=0.7, n=3)
    rng = np.random.default_rng(4242)
    worst_rel = 0.0
    for _ in range(100):
        x = np.sort(rng.uniform(0.3, 4.0, params.n))
        while np.min(np.diff(x)) < 0.05:
            x = np.sort(rng.uniform(0.3, 4.0, params.n))
        grad = grad_potential(params, x)
        fd = finite_diff_gradient(lambda y: potential_value(params, y), x, 1e-5)
        rel = float(np.max(np.abs(fd - grad) / np.maximum(np.abs(grad), 1.0)))
        worst_rel = max(worst_rel, rel)
    ok_grad = worst_rel <= 1e-6

    eps = np.finfo(float).eps
    worst_ulps = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        p = ModelParams(
            alpha=float(rng.uniform(0.0, 4.0)),
            beta=float(rng.uniform(0.1, 2.0)),
            gamma=float(rng.uniform(-1.0, 2.0)),
            n=n,
        )
        lam = np.sort(rng.gamma(2.0, 1.0, n))
        while np.unique(lam).size < n:
            lam = np.sort(rng.gamma(2.0, 1.0, n))
        b = drift_lambda(p, lam)
        target = n * p.alpha - 2.0 * p.gamma * lam.sum()
        diff = lam[:, None] - lam[None, :]
        np.fill_diagonal(diff, 1.0)
        ratio = np.abs((lam[:, None] + lam[None, :]) / diff)
        np.fill_diagonal(ratio, 0.0)
        scale = (
            n * abs(p.alpha)
            + 2.0 * abs(p.gamma) * lam.sum()
            + p.beta * ratio.sum()
        )
        ulps = abs(b.sum() - target) / (eps * max(scale, 1.0))
        worst_ulps = max(worst_ulps, ulps)
    ok_sum = worst_ulps <= 8.0
    details = [
        f"worst finite-difference relative error {worst_rel:.2e} (need <= 1e-6)",
        f"worst drift-sum error {worst_ulps:.2f} ulps-equivalent (need <= 8)",
    ]
    return CriterionResult(8, "gradient_and_sum_identity", ok_grad and ok_sum, details)


def criterion_9_coupled_cir(registry: _DoubleEventRegistry) -> CriterionResult:
    """Pathwise ordering of drift-dominated coupled CIR runs."""
    out = simulate_coupled_cir(
        CirParams(a=3.0, b=1.0, sigma=1.0),
        CirParams(a=2.5, b=1.0, sigma=1.0),
        r0_a=1.0, r0_b=1.0, dt=1e-3, horizon=10.0, seed=888, n_paths=1_000,
    )
    passed = out["ordering_violations"] == 0
    details = [
        f"{out['ordering_violations']} ordering violations over "
        f"{out['n_steps']} steps x 1000 paths (need 0)",
        f"min margin {out['min_margin']:.2e}",
    ]
    return CriterionResult(9, "coupled_cir_ordering", passed, details)


def criterion_10_determinism(registry: _DoubleEventRegistry) -> CriterionResult:
    """Byte-identical artifacts when a command reruns with the same seed."""
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    details = []
    passed = True
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for tag in ("a", "b"):
            out = Path(tmp) / tag
            rc = cli_main(
                [
                    "simulate", "--alpha", "2", "--beta", "0.5", "--gamma", "1",
                    "--n", "2", "--paths", "3", "--dt", "1e-3", "--horizon", "0.5",
                    "--seed", "99", "--record-stride", "10", "--out", str(out),
                ]
            )
            passed &= rc == 0
            runs.append(out)
        for name in ("trajectories.csv", "events.csv"):
            same = (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
            passed &= same
            details.append(f"simulate {name} byte-identical: {same}")
        outs = []
        for tag in ("c", "d"):
            out = Path(tmp) / tag
            rc = cli_main(
                [
                    "laplace-check", "--alpha", "2", "--beta", "0.5", "--gamma", "1",
                    "--n", "2", "--paths", "2000", "--dt", "5e-3", "--seed", "7",
                    "--out", str(out),
                ]
            )
            passed &= rc == 0
            outs.append(out)
        same = (outs[0] / "laplace.csv").read_bytes() == (outs[1] / "laplace.csv").read_bytes()
        passed &= same
        details.append(f"laplace-check laplace.csv byte-identical: {same}")
    return CriterionResult(10, "determinism", passed, details)


CRITERIA = [
    (1, criterion_1_sum_is_cir),
    (2, criterion_2_stationary_gamma),
    (3, criterion_3_contraction),
    (4, criterion_4_phase_diagram),
    (5, criterion_5_multiple_collision),
    (6, criterion_6_no_double_events),
    (7, criterion_7_laplace),
    (8, criterion_8_gradient_consistency),
    (9, criterion_9_coupled_cir),
    (10, criterion_10_determinism),
]


def run_acceptance(only=None) -> list[CriterionResult]:
    """Run the acceptance criteria, printing one pass/fail line per criterion.

    Each result carries its wall time in ``seconds``.  Criterion 6 consumes
    the double-event monitors of criteria 1-5, so requesting 6 pulls those
    in as well.
    """
    wanted = set(only) if only else {idx for idx, _ in CRITERIA}
    if 6 in wanted:
        wanted |= {1, 2, 3, 4, 5}
    registry = _DoubleEventRegistry()
    results = []
    for idx, fn in CRITERIA:
        if idx not in wanted:
            continue
        start = time.perf_counter()
        result = fn(registry)
        result.seconds = time.perf_counter() - start
        if only is None or idx in set(only):
            results.append(result)
        print(result.line(), flush=True)
    return results
