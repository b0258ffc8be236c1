"""Simulation drivers: test functions, result files, reduced-size runs."""

import json

import numpy as np
import pytest

import dpm.experiments.example2 as example2_module
from dpm.experiments import (
    ExperimentResult,
    run_example1,
    run_example2,
    run_table1,
    run_table2,
    write_result_files,
)
from dpm.classes import fit_linear_ols
from dpm.core import Dataset
from dpm.experiments.testfuncs import gramacy1d, sine_linear, sun5d
from dpm.kernels import MaternSpec, matern_gram
from dpm.kernels import matern as matern_module
from dpm.kernels import ridge as ridge_module
from dpm.numerics import cholesky_solve, halton, maximin_lhs
from dpm.separability import psi
from test_numerics import maximin_lhs_full_rescore


class TestFunctions:
    def test_gramacy_pins(self):
        assert gramacy1d(0.55) == pytest.approx(-0.86808465909090909, rel=1e-14)
        # sin(10 pi) = 0 and (x-1)^4 = 0 at x = 1
        assert abs(gramacy1d(1.0)) < 1e-14

    def test_sun5d_pins(self):
        center = np.full(5, 0.5)
        assert sun5d(center)[0] == pytest.approx(2.3454915028125263, rel=1e-14)
        batch = sun5d(np.vstack([center, np.zeros(5)]))
        assert batch.shape == (2,)

    def test_sine_linear(self):
        x = np.array([0.0, 0.25, 1.0])
        np.testing.assert_allclose(sine_linear(3.0, 1.0, 3.0, x),
                                   x + 3.0 * np.sin(3.0 * x), atol=0)
        assert sine_linear(3.0, 1.0, 3.0, 0.0) == 0.0
        assert sine_linear(3.0, 1.0, 3.0, 0.5) == pytest.approx(
            0.5 + 3.0 * np.sin(1.5), rel=1e-14)


class TestResultFiles:
    def _result(self):
        return ExperimentResult(
            name="demo", seed=9, config={"reps": 2, "theta": 3.0},
            columns=("a", "b"), rows=((1, 0.5), (2, 0.125)),
            wall_time_s=12.5, notes=("note one",),
        )

    def test_column_accessor(self):
        res = self._result()
        assert tuple(res.column("b")) == (0.5, 0.125)
        with pytest.raises(ValueError):
            res.column("missing")

    def test_files_round_trip(self, tmp_path):
        res = self._result()
        paths = write_result_files(res, tmp_path)
        csv_path = tmp_path / "demo_seed9.csv"
        json_path = tmp_path / "demo_seed9.json"
        assert set(paths) == {csv_path, json_path}
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "demo"
        assert payload["seed"] == 9
        assert payload["rows"] == [[1, 0.5], [2, 0.125]]
        assert "wall_time_s" not in payload

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        first = ExperimentResult("demo", 1, {}, ("v",), ((0.1,),), wall_time_s=1.0)
        second = ExperimentResult("demo", 1, {}, ("v",), ((0.1,),), wall_time_s=99.0)
        write_result_files(first, a)
        write_result_files(second, b)
        for name in ("demo_seed1.csv", "demo_seed1.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTableRuns:
    def test_table1_reduced(self):
        res = run_table1(reps=4, seed=5)
        assert res.name == "table1"
        assert res.columns[:3] == ("theta", "psi", "two_log_psi")
        assert res.column("theta") == [2.0, 3.0, 3.5, 4.0]
        vals = dict(zip(res.columns, res.rows[1]))
        assert vals["theta"] == 3.0
        assert vals["psi"] == pytest.approx(psi(3.0), rel=1e-12)
        assert vals["two_log_psi"] == pytest.approx(2 * np.log(psi(3.0)), rel=1e-12)
        # theta = 3 contracts at roughly psi^2 per cycle
        assert -0.6 < vals["mean_slope"] < -0.2
        assert vals["mean_iterations"] > 10
        assert vals["reps_with_slope"] == 4

    def test_table1_deterministic(self):
        a = run_table1(reps=3, seed=1)
        b = run_table1(reps=3, seed=1)
        assert a.rows == b.rows
        c = run_table1(reps=3, seed=2)
        assert c.rows != a.rows

    def test_table2_reduced(self):
        res = run_table2(reps=4, seed=3)
        assert res.name == "table2"
        assert res.column("n") == [20, 50, 100, 150, 200]
        for r in res.rows:
            vals = dict(zip(res.columns, r))
            assert vals["reps_with_slope"] >= 1
            assert vals["mean_slope"] < 0


@pytest.mark.parametrize("run, kwargs, message", [
    (run_table1, {"reps": 0}, "reps must be at least 1, got 0"),
    # one point cannot separate the two coefficients: every rep ran to MAX_CYCLES
    (run_table1, {"n": 1}, "n must be at least 2, got 1"),
    (run_table2, {"reps": -3}, "reps must be at least 1, got -3"),
    (run_example1, {"reps": 0}, "reps must be at least 1, got 0"),
    (run_example1, {"n": 0}, "n must be at least 1, got 0"),
    (run_example2, {"reps": 0}, "reps must be at least 1, got 0"),
    (run_example2, {"n": -1}, "n must be at least 1, got -1"),
])
def test_studies_reject_counts_below_their_minimum(run, kwargs, message):
    with pytest.raises(ValueError, match=message):     # and no RuntimeWarning first
        run(**kwargs)


class TestRecordedSettings:
    """Each study's fixed settings, read back from the written config."""

    @staticmethod
    def _config(result, tmp_path):
        _, json_path = write_result_files(result, tmp_path)
        return json.loads(json_path.read_text())["config"]

    def test_table1_thetas(self, tmp_path):
        config = self._config(run_table1(reps=1), tmp_path)
        assert config["thetas"] == [2.0, 3.0, 3.5, 4.0]

    def test_table2_sizes(self, tmp_path):
        config = self._config(run_table2(reps=1), tmp_path)
        assert config["sizes"] == [20, 50, 100, 150, 200]

    def test_example1_noise_and_change_tol(self, tmp_path):
        config = self._config(run_example1(reps=1), tmp_path)
        assert config["noise_var"] == 0.1
        assert config["change_tol"] == 1e-6

    def test_example2_ladder_and_iterations(self, tmp_path):
        result = run_example2(noise_sds=(0.1,), reps=1)
        config = self._config(result, tmp_path)
        assert config["nlambdas"] == [1.0, 0.1, 0.001, 1e-9]
        assert config["iters"] == 5
        assert result.column("iteration")[:6] == [1, 2, 3, 4, 5, 1]


class TestExampleRuns:
    def test_example1_reduced(self):
        res = run_example1(reps=3, seed=2)
        assert res.name == "example1"
        assert len(res.rows) == 3
        for r in res.rows:
            vals = dict(zip(res.columns, r))
            assert vals["mspe"] > 0
            assert vals["iterations"] >= 1
            assert vals["n_lambda"] > 0
        assert any(n.startswith("mean_mspe") for n in res.notes)

    @pytest.mark.parametrize("seed", range(20))
    def test_example1_two_points(self, seed):
        # the projected Gram of two points is about 0, and alpha^T K alpha
        # read as low as -3.9e-11 before the penalty was clamped at 0
        res = run_example1(n=2, reps=10, seed=seed)
        assert all(np.isfinite(res.column("mspe")))

    def test_example1_one_point_is_rejected(self):
        with pytest.raises(ValueError, match="1 points in dimension 1"):
            run_example1(n=1, reps=1)

    def test_example1_large_clean_sample_improves_mspe(self):
        # same pipeline and noise, ten times the data: prediction error must
        # drop (0.913 at n = 20 against 0.0557 at n = 200)
        noisy = run_example1(reps=3, seed=4)
        clean = run_example1(n=200, reps=3, seed=4)
        m_noisy = float(np.mean(noisy.column("mspe")))
        m_clean = float(np.mean(clean.column("mspe")))
        assert m_clean < 0.5 * m_noisy

    def test_example2_reduced(self):
        res = run_example2(noise_sds=(0.1,), reps=2, seed=6)
        assert res.name == "example2"
        assert len(res.rows) == 4 * 5        # four n*lambda levels, five iterations each
        vals = [dict(zip(res.columns, r)) for r in res.rows]
        for v in vals:
            assert v["noise_sd"] == 0.1
            assert v["training"] > 0 and v["prediction"] > 0
            assert v["linear_l2"] > 0 and v["nonlinear_l2"] > 0
        # smaller penalty drives the training error toward zero
        tight = [v for v in vals if v["n_lambda"] == 1e-9]
        loose = [v for v in vals if v["n_lambda"] == 1.0]
        assert min(t["training"] for t in tight) < min(l["training"] for l in loose)

    def test_example2_deterministic(self):
        kw = dict(noise_sds=(0.1,), reps=2, seed=8)
        assert run_example2(**kw).rows == run_example2(**kw).rows

    def test_example2_rows_equal_with_full_rescoring_designs(self, monkeypatch):
        fast = run_example2(noise_sds=(0.1,), reps=3).rows
        monkeypatch.setattr(example2_module, "maximin_lhs", maximin_lhs_full_rescore)
        assert run_example2(noise_sds=(0.1,), reps=3).rows == fast


def _example2_reference(nlambdas, noise_sds, iters, n, reps, seed):
    """The 5-D study with its alternation written out by hand."""
    spec = MaternSpec(nu=6.0, p=5, phi=1.0 / (2.0 * np.sqrt(3.5)))
    x_test = np.array([halton(i, 5) for i in range(1, 1001)])
    h_test = sun5d(x_test)
    rows = []
    for level, noise_sd in enumerate(noise_sds):
        rng = np.random.default_rng(seed + level)
        sums = np.zeros((len(nlambdas), iters, 4))
        for _ in range(reps):
            X = maximin_lhs(n, 5, rng)
            y = sun5d(X) + rng.normal(0.0, noise_sd, n)
            data = Dataset(X, y, omega_bounds=[(0.0, 1.0)] * 5)
            K = matern_gram(spec, X)
            K_test = matern_gram(spec, x_test, X)
            for i, nl in enumerate(nlambdas):
                f_vals = fit_linear_ols(data, y)(X)
                for it in range(iters):
                    alpha = cholesky_solve(K + nl * np.eye(n), y - f_vals).solution
                    g_vals = K @ alpha
                    f_member = fit_linear_ols(data, y - g_vals)
                    f_vals = f_member(X)
                    f_test = f_member(x_test)
                    g_test = K_test @ alpha
                    sums[i, it] += (np.mean((y - f_vals - g_vals) ** 2),
                                    np.mean((h_test - f_test - g_test) ** 2),
                                    np.sqrt(np.mean(f_test ** 2)),
                                    np.sqrt(np.mean(g_test ** 2)))
        for i, nl in enumerate(nlambdas):
            for it in range(iters):
                rows.append((noise_sd, nl, it + 1, *(sums[i, it] / reps)))
    return np.array(rows)


class TestExample2Alternation:
    def test_matches_hand_written_alternation(self):
        kw = dict(noise_sds=(0.1, 0.01), reps=3)
        res = run_example2(**kw)
        expected = _example2_reference(example2_module._NLAMBDAS, iters=example2_module._ITERS,
                                       n=50, seed=0, **kw)
        np.testing.assert_allclose(np.array(res.rows), expected, rtol=1e-9, atol=1e-11)

    def test_one_factorization_per_ridge_system(self, monkeypatch):
        calls = []
        original = ridge_module.cholesky_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ridge_module, "cholesky_solve", counted)
        reps = 2
        run_example2(noise_sds=(0.1,), reps=reps)
        assert len(calls) == reps * len(example2_module._NLAMBDAS)

    def test_one_gram_per_rep(self, monkeypatch):
        # every n*lambda of a rep shares the training Gram
        calls = []
        original = matern_module.matern_gram

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(matern_module, "matern_gram", counted)
        reps = 2
        run_example2(noise_sds=(0.1, 0.01), reps=reps)
        assert len(calls) == 2 * reps
