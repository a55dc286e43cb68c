import pytest

import pwafit.experiments as experiments


def test_coverage_summaries_leave_failed_reps_out(monkeypatch):
    baseline = experiments.coverage_study(reps=2, pool=2, seed=4)
    assert baseline["failures"] == 0
    plugin_covariance = experiments.plugin_covariance
    calls = []

    def fail_on_third_call(model, data):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("a piece has no assigned data points")
        return plugin_covariance(model, data)

    with monkeypatch.context() as m:
        m.setattr(experiments, "plugin_covariance", fail_on_third_call)
        result = experiments.coverage_study(reps=3, pool=2, seed=4)
    # rep 2 fails, so every summary is the one of reps 0 and 1
    assert result["failures"] == 1
    assert result["reps"] == 3
    for key in ("coverage", "simultaneous_coverage"):
        assert result[key] == baseline[key]
    assert result["length_mean"] == pytest.approx(baseline["length_mean"], rel=1e-12)
