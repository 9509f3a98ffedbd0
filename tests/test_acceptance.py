"""Acceptance gate: every criterion at its stated tolerance, one line each.

The whole suite runs once per session (criterion 6 consumes the double-event
monitors of criteria 1-5); each criterion then gets its own test so failures
are reported individually.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from cir_particles import acceptance
from cir_particles.acceptance import CRITERIA, run_acceptance

_NAMES = {
    1: "sum_is_cir_transition",
    2: "stationary_gamma_sum",
    3: "coupling_contraction",
    4: "collision_phase_diagram",
    5: "multiple_collision_in_zero",
    6: "no_multiple_collisions",
    7: "integrated_cir_laplace",
    8: "gradient_and_sum_identity",
    9: "coupled_cir_ordering",
    10: "determinism",
}


@pytest.fixture(scope="session")
def acceptance_results():
    results = run_acceptance()
    return {r.index: r for r in results}


def test_every_criterion_present(acceptance_results):
    assert sorted(acceptance_results) == [idx for idx, _ in CRITERIA]


@pytest.mark.parametrize("index", sorted(_NAMES))
def test_criterion(acceptance_results, index):
    result = acceptance_results[index]
    assert result.name == _NAMES[index]
    assert result.passed, f"criterion {index} ({result.name}): " + "; ".join(result.details)


def test_laplace_criterion_fails_on_a_zero_stderr(monkeypatch):
    # Equal samples: every exp(-mu I) is 1, so the stderr is 0 and z is NaN.
    monkeypatch.setattr(acceptance, "integrated_sum_paths",
                        lambda *args: {t: np.zeros(10) for t in args[4]})
    result = acceptance.criterion_7_laplace(acceptance._DoubleEventRegistry())
    assert not result.passed
    assert any("z is NaN" in line and "stderr is 0" in line for line in result.details)
    assert "worst |z| over (mu,t) grid = nan" in result.details[-2]


def test_sum_criterion_details_do_not_read_the_clock(monkeypatch):
    # Stubbed draws: the endpoint sums are the oracle shifted by 10*dt, so the
    # KS distance shrinks with dt and only the runtime check depends on the clock.
    oracle = np.random.default_rng(0).normal(size=2000)
    monkeypatch.setattr(acceptance, "exact_step", lambda *args: oracle)

    def simulate(params, config, **kwargs):
        lam = np.zeros((oracle.size, params.n))
        lam[:, 0] = oracle + 10.0 * config.dt
        return SimpleNamespace(final_lambda=lam, monitors={})

    monkeypatch.setattr(acceptance, "simulate_batch", simulate)
    results = {}
    for took in (3.0, 7.0, 500.0):
        clock = iter([0.0, took])
        monkeypatch.setattr(acceptance, "time", SimpleNamespace(time=lambda: next(clock)))
        results[took] = acceptance.criterion_1_sum_is_cir(acceptance._DoubleEventRegistry())
    assert results[3.0].passed and results[7.0].passed and not results[500.0].passed
    assert results[3.0].details == results[7.0].details
