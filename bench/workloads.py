"""The four benchmark workloads: inputs from a seed, one pass, oracle checks.

Each workload is a scaled-down copy of one of the costliest acceptance
criteria and keeps an exact oracle: the noncentral chi-square transition of
the coordinate-sum CIR process, the Gamma stationary law of the sum, the
exact n = 2 rejection sampler and two independent log-normalizer estimates.

Every call into the package goes through a module attribute looked up at
call time (``integrators.simulate_batch(...)``), so the traced run sees the
spans it installs by rebinding those names.

Margins are fixed before any run and wide enough that a correct program
passes on any seed.  Judging one commit takes about ninety runs, a few
hundred KS tests, so a KS check passes at p >= 1e-5 (a 1e-3 cut would fail
a correct program roughly one time in three), a z-score at |z| <= 5 and a
hit fraction at >= 0.9 where the expected fraction is about 0.97.  Each
check records its statistic beside its pass flag, so a loss of statistical
quality shows before a check flips.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import chndtr, gammainc, kolmogorov

from cir_particles import cirprocess, cli, integrators, model, stationary, stats

KS_MIN_P = 1e-5
Z_MAX = 5.0
HIT_MIN = 0.9

# BatchResult.terminated_code of a path that ended in numerical_failure.
NUMERICAL_FAILURE_CODE = 3


def pass_seed(seed: int, pass_index: int, stream: int = 0) -> int:
    """Package seed for one pass: a pure function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, pass_index, stream]).generate_state(1)[0])


def pass_rng(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, pass_index, stream]))


@dataclass
class Outcome:
    """What one pass did, computed from the package's returned values only."""

    checks: list[dict] = field(default_factory=list)
    paths: int = 0
    failed_paths: int = 0
    path_steps: int = 0
    ess: float = 0.0

    def check(self, name: str, passed: bool, **statistics) -> None:
        self.checks.append({"name": name, "passed": bool(passed), **statistics})

    def add_batch(self, res) -> None:
        self.paths += res.n_paths
        self.failed_paths += int(
            np.count_nonzero(res.terminated_code == NUMERICAL_FAILURE_CODE)
        )
        self.path_steps += int(np.rint(res.stop_time / res.config.dt).sum())


def geyer_ess(chain) -> float:
    """Effective sample size by Geyer's initial monotone sequence estimator.

    Sums of adjacent autocovariance pairs are kept while positive and forced
    to be nonincreasing (Geyer, Stat. Sci. 1992).
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    x = x - x.mean()
    spectrum = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spectrum * np.conj(spectrum))[:n] / n
    if acov[0] <= 0.0:
        return float(n)
    pairs = acov[: n - n % 2].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    keep = pairs[: nonpositive[0] if nonpositive.size else pairs.size]
    variance = -acov[0] + 2.0 * np.minimum.accumulate(keep).sum()
    return float(min(n * acov[0] / variance, n)) if variance > 0 else float(n)


def ks_p(d: float, n_eff: float) -> float:
    """Asymptotic KS p-value with the finite-n correction used by the package."""
    root = math.sqrt(n_eff)
    return float(kolmogorov((root + 0.12 + 0.11 / root) * d))


def _ks_check(out: Outcome, name: str, d: float, p: float, **extra) -> None:
    out.check(name, p >= KS_MIN_P, D=d, p=p, **extra)


def _no_failure_check(out: Outcome) -> None:
    out.check("no_numerical_failure", out.failed_paths == 0,
              failed_paths=out.failed_paths, paths=out.paths)


# ---------------------------------------------------------------------------
# euler_sum_law
# ---------------------------------------------------------------------------

EULER_POINT = dict(alpha=2.0, beta=0.4, gamma=1.0, n=3)
EULER_START = (1.0, 2.0, 3.0)
EULER_LADDER = ((4e-3, 4), (2e-3, 2), (1e-3, 1))  # (dt, noise_refine)
EULER_HORIZON = 1.0
EULER_MONITOR = 1e-4


def build_euler(seed, pass_index, sizes, workdir):
    params = model.ModelParams(**EULER_POINT)
    s = pass_seed(seed, pass_index)
    runs = [
        (integrators.SimConfig(dt=dt, horizon=EULER_HORIZON, seed=s,
                               paths=sizes["paths"]), refine)
        for dt, refine in EULER_LADDER
    ]
    return params, np.array(EULER_START), runs


def sum_law_cdf(cir, r0: float, t: float) -> Callable:
    """CDF of the exact CIR transition r0 -> r_t: a scaled noncentral chi-square."""
    c = cir.sigma**2 * -math.expm1(-cir.b * t) / (4.0 * cir.b)
    dof = 4.0 * cir.a / cir.sigma**2
    noncentrality = r0 * math.exp(-cir.b * t) / c
    return lambda x: chndtr(np.asarray(x) / c, dof, noncentrality)


def run_euler(inputs) -> Outcome:
    params, start, runs = inputs
    out = Outcome()
    cdf = sum_law_cdf(cirprocess.sum_process(params), float(start.sum()), EULER_HORIZON)
    for config, refine in runs:
        res = integrators.simulate_batch(
            params, config, initial=start, noise_refine=refine,
            event_levels=[EULER_MONITOR],
        )
        out.add_batch(res)
        d, p = stats.ks_test(res.final_lambda.sum(axis=1), cdf)
        _ks_check(out, f"ks_sum_vs_ncx2(dt={config.dt:g})", d, p, n=res.n_paths)
    _no_failure_check(out)
    out.ess = float(out.paths)  # independent endpoint sums
    return out


# ---------------------------------------------------------------------------
# exact_first_passage
# ---------------------------------------------------------------------------

FP_POINT = dict(alpha=1.0, beta=0.4, gamma=0.5, n=3)
FP_START = (1.0, 2.0, 3.0)
FP_DT = 1e-3
FP_LEVELS = (1e-2, 1e-3, 1e-4)
FP_K = 2
FP_STOP_LEVEL = 1e-3


def build_first_passage(seed, pass_index, sizes, workdir):
    params = model.ModelParams(**FP_POINT)
    config = integrators.SimConfig(
        scheme=integrators.Scheme.EXACT_CIR_SPLITTING, dt=FP_DT,
        horizon=sizes["horizon"], seed=pass_seed(seed, pass_index),
        paths=sizes["paths"],
    )
    return params, config, np.array(FP_START)


def run_first_passage(inputs) -> Outcome:
    params, config, start = inputs
    out = Outcome()
    res = integrators.simulate_batch(
        params, config, initial=start, event_levels=FP_LEVELS,
        stop_on=("psum", FP_K, FP_STOP_LEVEL),
    )
    out.add_batch(res)
    frac = {
        lev: float(np.mean(~np.isnan(res.monitors[lev]["psum"][:, FP_K - 1])))
        for lev in FP_LEVELS
    }
    hit = frac[FP_STOP_LEVEL]
    out.check("hit_fraction", hit >= HIT_MIN, hit_fraction=hit, need=HIT_MIN)
    ladder = [frac[lev] for lev in FP_LEVELS]
    out.check("delta_ladder_monotone", ladder[0] >= ladder[1] >= ladder[2],
              **{f"hit({lev:g})": frac[lev] for lev in FP_LEVELS})
    verdict = model.classify_regime(params).multiple_collision_k[FP_K]
    almost_sure = verdict == model.CollisionVerdict.ALMOST_SURE_ZERO_HIT
    out.check("regime_agrees", almost_sure and hit >= HIT_MIN,
              verdict=verdict.value, hit_fraction=hit)
    _no_failure_check(out)
    out.ess = float(out.paths)  # independent first-passage outcomes
    return out


# ---------------------------------------------------------------------------
# stationary_oracles
# ---------------------------------------------------------------------------

MH_POINTS = (dict(alpha=2.0, beta=0.5, gamma=1.0, n=2),
             dict(alpha=3.0, beta=0.6, gamma=1.0, n=3))
MH_THIN = 25
QUAD_DEGREE = 80
IMPORTANCE_SAMPLES = 200_000
LOGZ_MAX_STDERR = 5.0


def mh_burn_in(steps: int) -> int:
    """mh_sampler's default burn-in, passed explicitly."""
    return max(1000, steps // 5)


def build_stationary(seed, pass_index, sizes, workdir):
    points = [model.ModelParams(**p) for p in MH_POINTS]
    return {
        "points": points,
        "mh_steps": sizes["mh_steps"],
        "mh_initial": [np.arange(1.0, p.n + 1.0) / p.gamma for p in points],
        "mh_rng": [pass_rng(seed, pass_index, k) for k in range(len(points))],
        "rejection_samples": sizes["rejection_samples"],
        "rejection_rng": pass_rng(seed, pass_index, 10),
        "importance_rng": [pass_rng(seed, pass_index, 20 + k) for k in range(len(points))],
    }


def gamma_sum_cdf(params) -> Callable:
    """CDF of the stationary sum law Gamma(n*alpha/2, rate gamma)."""
    shape, rate = params.n * params.alpha / 2.0, params.gamma
    return lambda x: gammainc(shape, rate * np.asarray(x))


def run_stationary(inputs) -> Outcome:
    out = Outcome()
    steps = inputs["mh_steps"]
    chains = []
    for params, init, rng in zip(inputs["points"], inputs["mh_initial"], inputs["mh_rng"]):
        mh = stationary.mh_sampler(params, steps, rng, initial=init,
                                   burn_in=mh_burn_in(steps), thin=MH_THIN)
        chains.append(mh)
        ess = geyer_ess(mh.sums)
        out.ess += ess
        out.path_steps += mh_burn_in(steps) + steps * MH_THIN
        d, _ = stats.ks_test(mh.sums, gamma_sum_cdf(params))
        _ks_check(out, f"ks_mh_sum_vs_gamma(n={params.n})", d, ks_p(d, ess),
                  ess=ess, n=steps)

    pair = inputs["points"][0]
    rej = stationary.rejection_sample_pair(pair, inputs["rejection_samples"],
                                           inputs["rejection_rng"])
    d, p = stats.ks_test(rej.sum(axis=1), gamma_sum_cdf(pair))
    _ks_check(out, "ks_rejection_sum_vs_gamma(n=2)", d, p, n=rej.shape[0])
    for i in range(pair.n):
        marginal = chains[0].points[:, i]
        ess = geyer_ess(marginal)
        d, _ = stats.ks_test_two_sample(marginal, rej[:, i])
        n_eff = ess * rej.shape[0] / (ess + rej.shape[0])
        _ks_check(out, f"ks2_mh_vs_rejection_marginal_{i + 1}", d, ks_p(d, n_eff),
                  ess=ess)

    for params, rng in zip(inputs["points"], inputs["importance_rng"]):
        quad = stationary.estimate_log_normalizer(params, "quadrature",
                                                  degree=QUAD_DEGREE)
        imp = stationary.estimate_log_normalizer(
            params, "importance", n_samples=IMPORTANCE_SAMPLES, rng=rng)
        gap = abs(quad.estimate - imp.estimate) / imp.stderr
        out.check(f"logZ_quadrature_vs_importance(n={params.n})",
                  gap <= LOGZ_MAX_STDERR, gap_in_stderr=gap,
                  logZ_quad=quad.estimate, logZ_imp=imp.estimate,
                  imp_stderr=imp.stderr)
    return out


# ---------------------------------------------------------------------------
# cli_small_batches
# ---------------------------------------------------------------------------

SIMULATE_DT = 1e-3
LAPLACE_DT = 2.5e-3
LAPLACE_MUS = ("0.5", "1")
LAPLACE_TIMES = ("0.5", "1", "2")
SCAN_LEVELS = (1e-2, 1e-3, 1e-4)  # first_passage_partial_sum's default ladder


def build_cli(seed, pass_index, sizes, workdir):
    s = str(pass_seed(seed, pass_index))
    base = Path(workdir)
    commands = {
        "simulate": [
            "simulate", "--alpha", "2", "--beta", "0.5", "--gamma", "1", "--n", "2",
            "--x0", "1,2", "--paths", str(sizes["simulate_paths"]),
            "--dt", f"{SIMULATE_DT:g}", "--horizon", f"{sizes['simulate_horizon']:g}",
            "--seed", s, "--out", str(base / "simulate"),
        ],
        "laplace-check": [
            "laplace-check", "--alpha", "2", "--beta", "0.5", "--gamma", "1", "--n", "2",
            "--paths", str(sizes["laplace_paths"]), "--dt", f"{LAPLACE_DT:g}",
            *[a for mu in LAPLACE_MUS for a in ("--mu", mu)],
            *[a for t in LAPLACE_TIMES for a in ("--t", t)],
            "--seed", s, "--out", str(base / "laplace"),
        ],
        "collision-scan": [
            "collision-scan", "--alpha", "1", "--beta", "0.4", "--gamma", "0.5",
            "--n", "3", "--k", "2", "--scheme", "exact_cir_splitting",
            "--paths", str(sizes["scan_paths"]), "--horizon", f"{sizes['scan_horizon']:g}",
            "--seed", s, "--out", str(base / "scan"),
        ],
        "phase-diagram": [
            "phase-diagram", "--sweep", "alpha=0.4,0.7,1.2,2.6;beta=0.5;gamma=0",
            "--n", "2", "--paths", "0", "--out", str(base / "phase"),
        ],
        "regime": ["regime", "--alpha", "2.6", "--beta", "0.5", "--gamma", "0", "--n", "2"],
    }
    return base, commands, sizes


def _csv_rows(path: Path) -> list[dict]:
    """Rows of a CLI artifact: a '#' provenance line, then a CSV table.

    A missing artifact has no rows, so the checks that read it fail.
    """
    if not path.is_file():
        return []
    lines = path.read_text().splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def run_cli(inputs) -> Outcome:
    base, commands, sizes = inputs
    out = Outcome()
    for name, argv in commands.items():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        out.check(f"exit_code({name})", rc == 0, exit_code=rc)

    horizon = sizes["simulate_horizon"]
    rows = _csv_rows(base / "simulate" / "trajectories.csv")
    last_t: dict[str, float] = {}
    ordered = True
    for row in rows:
        lam = [float(row["lambda_1"]), float(row["lambda_2"])]
        t = float(row["t"])
        ordered &= 0.0 <= lam[0] <= lam[1] and t > last_t.get(row["path_id"], -1.0)
        last_t[row["path_id"]] = t
    out.check("trajectories_ordered_nonnegative",
              ordered and len(last_t) == sizes["simulate_paths"],
              rows=len(rows), paths=len(last_t))
    # truncated_euler has no stopping rule: a path cut short failed numerically.
    out.paths += len(last_t)
    out.failed_paths += sum(t < horizon - SIMULATE_DT / 2 for t in last_t.values())
    out.path_steps += sum(round(t / SIMULATE_DT) for t in last_t.values())

    z = [float(r["z_score"]) for r in _csv_rows(base / "laplace" / "laplace.csv")]
    worst = max((abs(v) for v in z), default=None)
    out.check("laplace_z", len(z) == len(LAPLACE_MUS) * len(LAPLACE_TIMES)
              and worst <= Z_MAX, worst_abs_z=worst, need=Z_MAX)

    scan = {float(r["delta"]): float(r["hit_fraction"])
            for r in _csv_rows(base / "scan" / "first_passage.csv")}
    ladder = [scan.get(lev) for lev in SCAN_LEVELS]
    out.check("collision_scan_ladder_monotone",
              None not in ladder and ladder[0] >= ladder[1] >= ladder[2],
              **{f"hit({lev:g})": scan.get(lev) for lev in SCAN_LEVELS})
    _no_failure_check(out)
    out.ess = float(sizes["simulate_paths"] + sizes["laplace_paths"] + sizes["scan_paths"])
    return out


@dataclass(frozen=True)
class Workload:
    build: Callable
    run: Callable
    sizes: dict


WORKLOADS = {
    "euler_sum_law": Workload(
        build_euler, run_euler,
        {"full": {"paths": 5_000}, "tiny": {"paths": 200}},
    ),
    "exact_first_passage": Workload(
        build_first_passage, run_first_passage,
        {"full": {"paths": 500, "horizon": 6.0},
         "tiny": {"paths": 40, "horizon": 6.0}},
    ),
    "stationary_oracles": Workload(
        build_stationary, run_stationary,
        {"full": {"mh_steps": 1_000, "rejection_samples": 200_000},
         "tiny": {"mh_steps": 200, "rejection_samples": 2_000}},
    ),
    "cli_small_batches": Workload(
        build_cli, run_cli,
        {"full": {"simulate_paths": 20, "simulate_horizon": 1.0,
                  "laplace_paths": 20_000, "scan_paths": 200, "scan_horizon": 3.0},
         "tiny": {"simulate_paths": 3, "simulate_horizon": 0.1,
                  "laplace_paths": 500, "scan_paths": 20, "scan_horizon": 3.0}},
    ),
}
