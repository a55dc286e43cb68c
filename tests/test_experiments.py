from types import SimpleNamespace

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


def test_compare_fits_the_preset_model_class(monkeypatch):
    shapes = []

    def record(data, k1, k2, prox, config, method="anneal"):
        shapes.append((k1, k2))
        return SimpleNamespace(empirical_norm=0.0)

    monkeypatch.setattr(experiments, "fit_pool", record)
    # three lines minus two lines keeps k2 = 2; the convex stick's trivial
    # part2 is affine, so it is fitted with k2 = 0
    for name, shape in (("broken-stick-500", (3, 2)), ("broken-stick-200", (2, 0))):
        shapes.clear()
        experiments.compare_methods(name, reps=1, pool=1)
        assert shapes == [shape, shape]  # the smoothed fit and Nelder-Mead


# Study numbers recorded with PINNED_FITS in test_optimizer.py (2-core x86_64
# VM, numpy 2.4 with OpenBLAS); the studies must reproduce them.
def test_three_planes_numbers_are_pinned():
    result = experiments.three_planes(pool=2, seed=4)
    assert repr(result["empirical_norm"]) == "0.01104912640407123"
    assert repr(result["deviation"]) == "0.055346526989400624"
    assert result["n"] == 1000


def test_restart_ecdf_numbers_are_pinned():
    result = experiments.restart_ecdf(n_fits=3, seed=4)
    assert [repr(dev) for dev in result["deviations"]] == [
        "0.0676911971020433", "0.06325933120570515", "0.065251479699248",
    ]
    assert result["threshold"] == 0.1


def test_coverage_study_numbers_are_pinned():
    result = experiments.coverage_study(reps=2, pool=2, seed=4)
    assert result["coverage"] == [1.0, 1.0, 1.0, 1.0]
    assert [repr(length) for length in result["length_mean"]] == [
        "0.2324273243111176", "0.14251762597780498",
        "0.17844825429161915", "0.09569778152523256",
    ]
    assert result["level"] == 0.95


def test_mu_sweep_numbers_are_pinned():
    rows = experiments.mu_sweep(reps=1, pool=1, seed=4)
    assert [(row["e"], repr(row["deviation_mean"])) for row in rows] == [
        (0.1, "0.15274571603228065"), (0.2, "0.08497083170651035"),
        (0.3, "0.04927697921279454"), (0.4, "0.0330507784432695"),
        (0.5, "0.027293951418253692"), (0.6, "0.025982491810928182"),
        (0.7, "0.025922548796652768"), (0.8, "0.026093714232661887"),
        (0.9, "0.02598920084238641"), (1.0, "0.025976551272726158"),
    ]
    assert [row["mu"] for row in rows] == [1000.0 ** -row["e"] for row in rows]
