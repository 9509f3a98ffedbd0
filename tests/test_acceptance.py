"""Acceptance gate: every criterion at its stated tolerance, one line each.

The whole suite runs once per session (criterion 6 consumes the double-event
monitors of criteria 1-5); each criterion then gets its own test so failures
are reported individually.
"""

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
