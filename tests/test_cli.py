import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pwafit
from pwafit.cli import main
from pwafit.inference import confidence_intervals, line_parameters, plugin_covariance
from pwafit.model import MaxAffine, PwaModel, convex_model, model_from_json_dict, model_to_json_dict
from pwafit.optimizer import FitConfig, fit_pool
from pwafit.simulate import dataset_from_csv, generate, preset


def run(*args):
    return main([str(a) for a in args])


def write_plane_csv(path, n=60, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 1))
    y = 0.8 * x[:, 0] - 0.3 + noise * rng.standard_normal(n)
    with open(path, "w", newline="\n") as fh:
        fh.write("x1,y\n")
        for xi, yi in zip(x[:, 0], y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "data.csv"
    assert run("simulate", "--preset", "broken-stick-200", "--seed", 7, "--out", out) == 0
    data = dataset_from_csv(out)
    assert data.n == 200 and data.d == 1
    manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
    assert manifest["schema"] == "pwafit/v1"
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["outputs"] == [str(out)]


def test_simulate_same_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--preset", "planes-d2", "--seed", 3, "--out", a) == 0
    assert run("simulate", "--preset", "planes-d2", "--seed", 3, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_unknown_preset_exits_2(tmp_path, capsys):
    assert run("simulate", "--preset", "nope", "--out", tmp_path / "x.csv") == 2
    assert "error" in capsys.readouterr().err


def test_fit_noiseless_plane(tmp_path):
    data = tmp_path / "plane.csv"
    write_plane_csv(data)
    out = tmp_path / "fit.json"
    code = run(
        "fit", "--in", data, "--k1", 1, "--k2", 0, "--mu", 0.1,
        "--pool", 2, "--seed", 1, "--out", out,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "pwafit/v1"
    assert payload["empirical_norm"] < 1e-8
    assert payload["converged"] is True
    mus = [stage[0] for stage in payload["anneal_trace"]]
    assert mus == [1.6, 0.8, 0.4, 0.2, 0.1]
    model = model_from_json_dict(payload["model"])
    assert model.part1.coeffs[0, 0] == pytest.approx(0.8, abs=1e-4)
    assert model.part1.coeffs[0, 1] == pytest.approx(-0.3, abs=1e-4)


def test_fit_writes_fitted_csv(tmp_path):
    data = tmp_path / "plane.csv"
    write_plane_csv(data, noise=0.05)
    out = tmp_path / "fit.json"
    fitted = tmp_path / "fitted.csv"
    code = run(
        "fit", "--in", data, "--k1", 1, "--pool", 1, "--out", out, "--fitted-csv", fitted,
    )
    assert code == 0
    lines = fitted.read_text().splitlines()
    assert lines[0] == "x1,y,fitted"
    assert len(lines) == 61


def test_fit_rejects_bad_prox(tmp_path, capsys):
    data = tmp_path / "plane.csv"
    write_plane_csv(data)
    code = run("fit", "--in", data, "--k1", 1, "--prox", "huber", "--out", tmp_path / "f.json")
    assert code == 2


def test_fit_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n1.0\n")
    assert run("fit", "--in", bad, "--k1", 1, "--out", tmp_path / "f.json") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, where",
    [
        ("x1,y\n1.0,2.0\n1.0\n", ":3: expected 2 columns"),
        ("x1,y\n1.0,2.0\n\n3.0,huh\n", ":4: non-numeric"),
        ("x1,y\n1.0,2.0\n# note\n", ":3: expected 2 columns"),
        ("x1,y\n# x,y\n", ":2: non-numeric"),
        ("x1,y\n1.0,2.0,3.0\n", ":2: expected 2 columns, got 3"),
        # float() takes these two spellings, numpy's reader does not
        ("x1,y\n1.0,2.0\n   \n3.0,1_000\n", ":4: non-numeric"),
        ("x1,y\n\u0661,2.0\n", ":2: non-numeric"),
        (b"x1,y\n1.0,2.0\n\xff\xfe,3.0\n", ":3: non-numeric"),
        ("x1,y\n1.0,nan\n", ": data must be finite"),
        ("x1,y\n", ": no data rows"),
    ],
)
def test_fit_bad_csv_exits_2_naming_file_and_row(tmp_path, capsys, body, where):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body if isinstance(body, bytes) else body.encode())
    out = tmp_path / "f.json"
    assert run("fit", "--in", bad, "--k1", 1, "--out", out, "--fitted-csv", tmp_path / "g.csv") == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}{where}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


@pytest.mark.parametrize(
    "flag, value", [("--pool", 0), ("--mu", 0), ("--tol", -1), ("--tol", "nan"), ("--mu", "inf")]
)
def test_fit_bad_config_exits_2(tmp_path, capsys, flag, value):
    data = tmp_path / "plane.csv"
    write_plane_csv(data)
    out = tmp_path / "fit.json"
    assert run("fit", "--in", data, "--k1", 1, flag, value, "--out", out) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_fit_nonconvergence_exits_3_with_output(tmp_path, capsys):
    data = tmp_path / "stick.csv"
    assert run("simulate", "--preset", "broken-stick-200", "--seed", 2, "--out", data) == 0
    out = tmp_path / "fit.json"
    code = run(
        "fit", "--in", data, "--k1", 2, "--tol", "5e-324", "--pool", 1,
        "--seed", 2, "--out", out,
    )
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["converged"] is False
    assert "warning" in capsys.readouterr().err


def test_ci_pipeline(tmp_path):
    data = tmp_path / "stick.csv"
    assert run("simulate", "--preset", "broken-stick-200", "--seed", 5, "--out", data) == 0
    fit_out = tmp_path / "fit.json"
    assert run(
        "fit", "--in", data, "--k1", 2, "--mu", 0.01, "--pool", 5, "--seed", 5, "--out", fit_out
    ) == 0
    ci_out = tmp_path / "ci.json"
    assert run("ci", "--in", data, "--fit", fit_out, "--out", ci_out) == 0
    payload = json.loads(ci_out.read_text())
    assert payload["level"] == 0.95
    assert set(payload) == {
        "schema", "level", "lower", "upper", "sigma2_hat", "segment_counts", "V", "W", "C"
    }
    lower, upper = np.array(payload["lower"]), np.array(payload["upper"])
    assert lower.shape == (4,) and np.all(lower <= upper)
    assert sum(payload["segment_counts"]) == 200
    # the CLI must agree with the library on the same model, centres included
    model = model_from_json_dict(json.loads(fit_out.read_text())["model"])
    lib = confidence_intervals(
        line_parameters(model), plugin_covariance(model, dataset_from_csv(data)), 0.95
    )
    assert np.allclose(lower, lib.lower, rtol=0, atol=1e-12)
    assert np.allclose(upper, lib.upper, rtol=0, atol=1e-12)
    theta = line_parameters(model)
    assert np.all(lower <= theta) and np.all(theta <= upper)


def test_ci_near_point_intervals_on_noiseless_data(tmp_path):
    data = tmp_path / "plane.csv"
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 80)
    y = np.abs(x + 0.2)
    with open(data, "w", newline="\n") as fh:
        fh.write("x1,y\n")
        for xi, yi in zip(x, y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")
    fit_out = tmp_path / "fit.json"
    assert run(
        "fit", "--in", data, "--k1", 2, "--mu", "1e-4", "--pool", 5, "--seed", 11, "--out", fit_out
    ) == 0
    ci_out = tmp_path / "ci.json"
    assert run("ci", "--in", data, "--fit", fit_out, "--out", ci_out) == 0
    payload = json.loads(ci_out.read_text())
    widths = np.array(payload["upper"]) - np.array(payload["lower"])
    assert np.all(widths < 1e-3)
    assert payload["sigma2_hat"] < 1e-8


def test_ci_missing_fit_file_exits_2(tmp_path, capsys):
    data = tmp_path / "stick.csv"
    assert run("simulate", "--preset", "broken-stick-200", "--seed", 1, "--out", data) == 0
    code = run("ci", "--in", data, "--fit", tmp_path / "missing.json", "--out", tmp_path / "c.json")
    assert code == 2


def run_ci(tmp_path, model, level=0.95):
    data = tmp_path / "plane.csv"
    write_plane_csv(data, noise=0.05)
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({"model": model_to_json_dict(model)}))
    out = tmp_path / "ci.json"
    code = run("ci", "--in", data, "--fit", fit, "--level", level, "--out", out)
    return code, out


def test_ci_bad_level_exits_2(tmp_path, capsys):
    # a valid model, and the empty-piece model that exits 3 at a valid level
    for i, coeffs in enumerate([[[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [-1.0, -10.0]]]):
        (tmp_path / str(i)).mkdir()
        code, out = run_ci(tmp_path / str(i), convex_model(coeffs), level=1.5)
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()


def test_ci_level_too_close_to_one_exits_2(tmp_path, capsys):
    # 0.5 + level / 2 rounds to 1 here, so the quantile would be infinite
    code, out = run_ci(tmp_path, convex_model([[1.0, 0.0], [-1.0, 0.0]]), "0.9999999999999999")
    assert code == 2
    assert "too close to 1" in capsys.readouterr().err
    assert not out.exists()
    code, out = run_ci(tmp_path, convex_model([[1.0, 0.0], [-1.0, 0.0]]), "0.9999999999999998")
    assert code == 0
    payload = strict_json(out)
    assert np.all(np.isfinite(payload["lower"])) and np.all(np.isfinite(payload["upper"]))


def test_ci_non_numeric_level_message(tmp_path, capsys):
    code, out = run_ci(tmp_path, convex_model([[1.0, 0.0], [-1.0, 0.0]]), level="abc")
    assert code == 2
    err = capsys.readouterr().err
    assert "argument --level: not a number: 'abc'" in err
    assert "_level" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "broken-stick-200", "--out", "{tmp}/data.csv"],
        ["fit", "--in", "{tmp}/plane.csv", "--k1", 1, "--out", "{tmp}/f.json"],
        ["compare", "--preset", "broken-stick-200", "--out", "{tmp}/compare.csv"],
        ["experiment", "three-planes", "--outdir", "{tmp}/ex"],
    ],
    ids=["simulate", "fit", "compare", "experiment"],
)
def test_negative_seed_error_names_the_flag(tmp_path, capsys, argv):
    assert run(*[str(a).format(tmp=tmp_path) for a in argv], "--seed", -1) == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == []


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("fit", "--k1", "0", "must be at least 1, got 0"),
        ("fit", "--k1", "1.5", "not an integer: '1.5'"),
        ("fit", "--k2", "-1", "must be at least 0, got -1"),
        ("fit", "--mu", "0", "must be positive and finite, got 0"),
        ("fit", "--mu", "inf", "must be positive and finite, got inf"),
        ("fit", "--tol", "-1", "must be positive and finite, got -1"),
        ("fit", "--tol", "nan", "must be positive and finite, got nan"),
        ("compare", "--mu", "-0.1", "must be positive and finite, got -0.1"),
        ("compare", "--mu", "abc", "not a number: 'abc'"),
    ],
)
def test_bad_flag_value_is_named_before_any_input_is_read(
    tmp_path, capsys, command, flag, value, message
):
    # the input does not exist: parsing rejects the flag before it is read
    source = {
        "fit": ["--in", tmp_path / "missing.csv", "--k1", 1],
        "compare": ["--preset", "no-such-preset"],
    }[command]
    assert run(command, *source, flag, value, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "missing.csv" not in err and "no-such-preset" not in err
    assert sorted(tmp_path.rglob("*")) == []


def test_ci_fit_json_without_model_exits_2(tmp_path, capsys):
    data = tmp_path / "plane.csv"
    write_plane_csv(data)
    fit = tmp_path / "fit.json"
    fit.write_text("{}")
    out = tmp_path / "ci.json"
    assert run("ci", "--in", data, "--fit", fit, "--out", out) == 2
    assert "missing key 'model'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", ['[]', '"x"', '{"model": "x"}', '{"model": []}'])
def test_ci_fit_json_of_wrong_shape_exits_2(tmp_path, capsys, payload):
    data = tmp_path / "plane.csv"
    write_plane_csv(data)
    fit = tmp_path / "fit.json"
    fit.write_text(payload)
    out = tmp_path / "ci.json"
    assert run("ci", "--in", data, "--fit", fit, "--out", out) == 2
    assert "error: the fit JSON must be an object" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "ci.json.manifest.json").exists()


@pytest.mark.parametrize(
    "key,coeffs,entry",
    [
        ("coeffs1", "[[{}, 0.0], [-1.0, 0.0]]", "coeffs1[0][0]"),
        ("coeffs1", '[["1.0", 0.0], [-1.0, 0.0]]', "coeffs1[0][0]"),
        ("coeffs2", "[[0.0, true]]", "coeffs2[0][1]"),
        ("coeffs2", "[[0.0, 1" + "0" * 400 + "]]", "coeffs2[0][1]"),
        ("coeffs1", "{}", "coeffs1"),
        ("coeffs1", "5", "coeffs1"),
        ("coeffs1", "[1.0, 0.0]", "coeffs1"),
        ("coeffs2", "[[0.0, 0.0], 1.0]", "coeffs2"),
        # equal to the model's d = 1 and k1 = 2, but not JSON integers
        ("d", "true", "d"),
        ("k1", "2.0", "k1"),
    ],
    ids=["object", "string", "bool", "10**400", "object-part", "number-part", "flat", "ragged",
         "bool-d", "float-k1"],
)
def test_ci_coefficients_not_json_number_rows_exit_2(tmp_path, capsys, key, coeffs, entry):
    data = tmp_path / "plane.csv"
    write_plane_csv(data)
    model = model_to_json_dict(convex_model([[1.0, 0.0], [-1.0, 0.0]]))
    model[key] = "@"
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({"model": model}).replace('"@"', coeffs))
    out = tmp_path / "ci.json"
    assert run("ci", "--in", data, "--fit", fit, "--out", out) == 2
    assert f"error: model entry {entry} must be" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "ci.json.manifest.json").exists()


def test_ci_non_two_piece_fit_exits_2(tmp_path, capsys):
    # the shape of a --k1 3 --k2 1 fit
    model = PwaModel(
        MaxAffine([[1.0, 0.0], [-1.0, 0.0], [0.2, 0.3]]), MaxAffine([[0.5, 0.1]])
    )
    code, out = run_ci(tmp_path, model)
    assert code == 2
    assert "two-piece" in capsys.readouterr().err
    assert not out.exists()


def test_ci_dimension_mismatch_exits_2(tmp_path, capsys):
    # a two-plane fit of d = 2 data, given the d = 1 data of run_ci
    code, out = run_ci(tmp_path, convex_model([[1.0, 0.5, 0.0], [-1.0, 0.2, 0.1]]))
    assert code == 2
    assert "the fit has dimension 2, but the data have dimension 1" in capsys.readouterr().err
    assert not out.exists()


def test_ci_empty_piece_exits_3(tmp_path, capsys):
    # the second line lies below the first on all of [-1, 1]
    code, out = run_ci(tmp_path, convex_model([[1.0, 0.0], [-1.0, -10.0]]))
    assert code == 3
    assert "no assigned data points" in capsys.readouterr().err
    assert not out.exists()


def write_huge_csv(path):
    # the squared residuals of any fit overflow, so no value is finite
    x = np.linspace(-1, 1, 50)
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), (1e200 * np.abs(x)).tolist()))
    path.write_text("x1,y\n" + rows)


def strict_json(path):
    def reject(token):
        raise ValueError(f"{path} holds {token}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_non_finite_fit_writes_strict_json(tmp_path):
    data, out = tmp_path / "huge.csv", tmp_path / "huge.json"
    write_huge_csv(data)
    # no numpy warning reaches the user
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("fit", "--in", data, "--k1", 2, "--pool", 1, "--out", out) == 3
    payload = strict_json(out)
    assert payload["empirical_norm"] is None and payload["objective_value"] is None
    assert strict_json(tmp_path / "huge.json.manifest.json")["command"] == "fit"


def test_ci_non_finite_covariance_exits_3(tmp_path, capsys):
    data, fit_out, out = tmp_path / "huge.csv", tmp_path / "huge.json", tmp_path / "hci.json"
    write_huge_csv(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run("fit", "--in", data, "--k1", 2, "--pool", 1, "--out", fit_out)
        assert run("ci", "--in", data, "--fit", fit_out, "--out", out) == 3
    assert "non-finite covariance" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "hci.json.manifest.json").exists()


# `ci` output on the seed-7 fits of the CI smoke test, recorded with
# PINNED_FITS in test_optimizer.py and on its platform (OpenBLAS 0.3.31 on
# its SkylakeX kernel); another BLAS kernel or libm build may round
# differently, so the CI step "Bit references under a second BLAS kernel"
# deselects these pins.
@pytest.mark.parametrize(
    "name,sigma2_repr,counts,c_digest",
    [
        ("broken-stick-200", "0.010704188353869297", [86, 114], "c14d9295b1497d29"),
        ("planes-d2", "0.010320437464180597", [44, 56], "51af21d8fba3e67c"),
    ],
    ids=["broken-stick-200", "planes-d2"],
)
def test_ci_numbers_are_pinned(tmp_path, name, sigma2_repr, counts, c_digest):
    data, fit_out, out = tmp_path / "data.csv", tmp_path / "fit.json", tmp_path / "ci.json"
    assert run("simulate", "--preset", name, "--seed", 7, "--out", data) == 0
    assert run(
        "fit", "--in", data, "--k1", 2, "--mu", 0.01, "--pool", 5, "--seed", 7, "--out", fit_out
    ) == 0
    assert run("ci", "--in", data, "--fit", fit_out, "--out", out) == 0
    payload = strict_json(out)
    assert repr(payload["sigma2_hat"]) == sigma2_repr
    assert payload["segment_counts"] == counts
    C = np.asarray(payload["C"], dtype="<f8")
    assert hashlib.sha256(C.tobytes()).hexdigest()[:16] == c_digest


def test_compare_table_shape(tmp_path):
    out = tmp_path / "compare.csv"
    code = run(
        "compare", "--preset", "broken-stick-200", "--reps", 2, "--pool", 2,
        "--seed", 1, "--out", out,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,R_mean,reps"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"smoothed", "nelder-mead"}
    # the wall times are in the manifest, not the table
    times = strict_json(tmp_path / "compare.csv.manifest.json")["timings"]["time_mean_s"]
    assert set(times) == methods
    assert all(t > 0.0 for t in times.values())


def test_experiment_mu_sweep_reruns_identical_with_times_in_manifest(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for outdir in runs:
        argv = ["experiment", "mu-sweep", "--reps", 1, "--pool", 1, "--seed", 5]
        assert run(*argv, "--outdir", outdir) == 0
    a, b = runs
    for name in ("mu_sweep.csv", "mu_sweep_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    with open(a / "mu_sweep.csv", newline="") as fh:
        levels = [row["e"] for row in csv.DictReader(fh)]
    assert len(levels) == 10
    times = strict_json(a / "mu_sweep_summary.json.manifest.json")["timings"]["time_mean_s"]
    assert list(times) == levels
    assert all(t > 0.0 for t in times.values())


def test_experiment_three_planes(tmp_path):
    outdir = tmp_path / "results"
    code = run("experiment", "three-planes", "--pool", 3, "--seed", 1, "--outdir", outdir)
    assert code == 0
    summary = json.loads((outdir / "three_planes_summary.json").read_text())
    assert summary["experiment"] == "three-planes"
    assert summary["empirical_norm"] > 0.0
    assert (outdir / "three_planes_summary.json.manifest.json").exists()


def test_experiment_unknown_name_exits_2(tmp_path):
    assert run("experiment", "no-such-study", "--outdir", tmp_path) == 2


@pytest.mark.parametrize(
    "study, used, unused", [("restart-ecdf", "--reps", "--pool"), ("three-planes", "--pool", "--reps")]
)
def test_experiment_takes_only_the_options_its_study_uses(tmp_path, capsys, study, used, unused):
    # restart-ecdf runs single fits and three-planes one pool: the option
    # neither uses exits 2 and writes nothing
    ignored = tmp_path / "ignored"
    assert run("experiment", study, used, 1, unused, 7, "--outdir", ignored) == 2
    assert f"unrecognized arguments: {unused} 7" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == []
    assert run("experiment", study, used, 1, "--outdir", tmp_path / "run") == 0
    base = study.replace("-", "_")
    args = strict_json(tmp_path / "run" / f"{base}_summary.json.manifest.json")["args"]
    assert sorted(args) == sorted(["command", "name", used[2:], "seed", "outdir"])


def test_version_flag():
    assert run("--version") == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "coverage", "--reps", 1, "--pool", 0, "--outdir", "{tmp}/results"],
        ["experiment", "mu-sweep", "--reps", 0, "--pool", 1, "--outdir", "{tmp}/results"],
        ["compare", "--preset", "broken-stick-200", "--reps", 0, "--out", "{tmp}/compare.csv"],
        ["simulate", "--preset", "broken-stick-200", "--out", "{tmp}/missing/data.csv"],
        ["fit", "--in", "{tmp}/plane.csv", "--k1", 1, "--pool", 1, "--out", "{tmp}/missing/f.json"],
        [
            "fit", "--in", "{tmp}/plane.csv", "--k1", 1, "--pool", 1, "--out", "{tmp}/f.json",
            "--fitted-csv", "{tmp}/missing/fitted.csv",
        ],
        ["fit", "--in", "{tmp}/plane.csv", "--k1", 1, "--seed", -1, "--out", "{tmp}/f.json"],
        ["experiment", "three-planes", "--seed", -2, "--outdir", "{tmp}/ex"],
        ["fit", "--in", "{tmp}/plane.csv", "--k1", 0, "--out", "{tmp}/f.json"],
        ["fit", "--in", "{tmp}/plane.csv", "--k1", 1, "--k2", -1, "--out", "{tmp}/f.json"],
        ["fit", "--in", "{tmp}/plane.csv", "--k1", 1, "--mu", 0, "--out", "{tmp}/f.json"],
        ["fit", "--in", "{tmp}/plane.csv", "--k1", 1, "--tol", -1, "--out", "{tmp}/f.json"],
        ["compare", "--preset", "broken-stick-200", "--mu", 0, "--out", "{tmp}/compare.csv"],
    ],
    ids=[
        "experiment-pool-0", "experiment-reps-0", "compare-reps-0", "simulate-no-dir", "fit-no-dir",
        "fit-csv-no-dir", "fit-seed-negative", "experiment-seed-negative", "fit-k1-0",
        "fit-k2-negative", "fit-mu-0", "fit-tol-negative", "compare-mu-0",
    ],
)
def test_invalid_input_exits_2_without_output(tmp_path, capsys, argv):
    write_plane_csv(tmp_path / "plane.csv")
    before = sorted(tmp_path.rglob("*"))
    assert run(*[str(a).format(tmp=tmp_path) for a in argv]) == 2
    assert "error" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def fresh_env():
    """Environment for a fresh interpreter that imports this pwafit."""
    paths = [str(Path(pwafit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def fresh_python(code):
    """Stdout of ``code`` run by a fresh interpreter, which must exit 0."""
    res = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_module_entry_exit_status(tmp_path):
    # runs console_entry's sys.exit(main()) in a fresh interpreter
    env = fresh_env()

    def status(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pwafit.cli", *map(str, argv)],
            env=env, capture_output=True, timeout=120,
        ).returncode

    assert status("--version") == 0
    write_plane_csv(tmp_path / "plane.csv")
    out = tmp_path / "f.json"
    assert status("fit", "--in", tmp_path / "plane.csv", "--k1", 1, "--pool", 0, "--out", out) == 2
    assert not out.exists()


def test_import_leaves_scipy_out():
    # scipy serves only Nelder-Mead, which imports it where it runs
    code = (
        "import sys, pwafit, pwafit.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_python(code).strip() == "[]"


def test_intervals_load_no_scipy(tmp_path):
    data, fit_out, out = tmp_path / "stick.csv", tmp_path / "fit.json", tmp_path / "ci.json"
    assert run("simulate", "--preset", "broken-stick-200", "--seed", 7, "--out", data) == 0
    assert run(
        "fit", "--in", data, "--k1", 2, "--mu", 0.01, "--pool", 1, "--seed", 7, "--out", fit_out
    ) == 0
    code = f"""
import json, sys
from pwafit import confidence_intervals, dataset_from_csv, line_parameters, plugin_covariance
from pwafit import model_from_json_dict
from pwafit.cli import main
model = model_from_json_dict(json.load(open({str(fit_out)!r}))["model"])
ci = confidence_intervals(line_parameters(model), plugin_covariance(model, dataset_from_csv({str(data)!r})))
assert main(["ci", "--in", {str(data)!r}, "--fit", {str(fit_out)!r}, "--out", {str(out)!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(ci.lower.tobytes().hex(), ci.upper.tobytes().hex())
"""
    loaded, hexes = fresh_python(code).strip().split("\n")
    assert loaded == "[]"
    model = model_from_json_dict(json.loads(fit_out.read_text())["model"])
    ci = confidence_intervals(
        line_parameters(model), plugin_covariance(model, dataset_from_csv(data))
    )
    assert hexes.split() == [ci.lower.tobytes().hex(), ci.upper.tobytes().hex()]
    payload = strict_json(out)
    assert np.array(payload["lower"]).tobytes() == ci.lower.tobytes()
    assert np.array(payload["upper"]).tobytes() == ci.upper.tobytes()


def test_lazy_nelder_mead_runs():
    # the deferred scipy import runs only in an interpreter that has not
    # loaded scipy yet, which this one may have
    code = """
import sys
from pwafit import FitConfig, fit_pool, generate, preset
data = generate(preset("broken-stick-200", seed=7))
assert "scipy" not in sys.modules
res = fit_pool(data, 2, 0, "sqerr", FitConfig(restarts_pool=1, seed=7), method="nelder-mead")
print(repr(res.empirical_norm))
"""
    data = generate(preset("broken-stick-200", seed=7))
    res = fit_pool(data, 2, 0, "sqerr", FitConfig(restarts_pool=1, seed=7), method="nelder-mead")
    assert fresh_python(code).strip() == repr(res.empirical_norm)


def test_run_all_experiments_script_writes_every_output(tmp_path, monkeypatch):
    # the script is the only caller of `experiment mu-sweep` and
    # `experiment coverage`; one rep of each study, into a new directory
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for key in script.SCALES["desk"]:
        monkeypatch.setitem(script.SCALES["desk"], key, 1)
    outdir = tmp_path / "results"
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", "--outdir", str(outdir)])
    script.main()
    tables = ["compare_broken-stick-200.csv", "compare_planes-d2.csv", "mu_sweep.csv",
              "restart_ecdf.csv", "coverage.csv"]
    summaries = [f"{name}_summary.json"
                 for name in ("mu_sweep", "restart_ecdf", "coverage", "three_planes")]
    manifests = [f"{name}.manifest.json" for name in tables[:2] + summaries]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(tables + summaries + manifests)
    for name in summaries + manifests:
        strict_json(outdir / name)

    def rows(name):
        with open(outdir / name, newline="") as fh:
            return list(csv.DictReader(fh))

    assert len(rows("mu_sweep.csv")) == 10
    assert [row["parameter"] for row in rows("coverage.csv")] == ["a1", "b1", "a2", "b2"]
    for name in tables[:2]:
        assert [row["method"] for row in rows(name)] == ["smoothed", "nelder-mead"]
