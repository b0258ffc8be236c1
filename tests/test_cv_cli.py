"""CSV loading, cross-validation plumbing, transect sweeps, and the CLI."""

import json
import math
import warnings

import numpy as np
import pytest

import dpm.classes.lasso as lasso_module
import dpm.classes.linear as linear_module
import dpm.classes.stumps as stumps_module
import dpm.cli as cli_module
import dpm.cv as cv_module
import dpm.kernels.matern as matern_module
import dpm.transect as transect_module
from dpm.classes import LinearFitter
from dpm.cli import _parse_log_grid, main
from dpm.core import Dataset, to_unit
from dpm.cv import (
    CvCellError,
    CvConfig,
    LearnerPair,
    cross_validated_predictions,
    fold_indices,
)
from dpm.data_io import CsvFormatError, load_csv
from dpm.experiments import run_example1
from dpm.kernels import MaternSpec, gcv_select_lambda, matern_gram
from dpm.kernels.ridge import CrossBlock
from dpm.transect import DiagnosticRow, grid_sweep, pearson, transect_sweep


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _toy_frame(n=30, seed=0, p=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 3.0, (n, p))
    y = 1.5 * X[:, 0] + np.sin(2.0 * X[:, 1]) + rng.normal(0, 0.2, n)
    header = ["y"] + [f"x{j + 1}" for j in range(p)]
    rows = [[y[i]] + list(X[i]) for i in range(n)]
    return header, rows, X, y


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        header, rows, X, y = _toy_frame()
        path = _write_csv(tmp_path / "toy.csv", header, rows)
        loaded = load_csv(path, "y")
        assert loaded.feature_names == ("x1", "x2")
        assert loaded.data.n == 30 and loaded.data.p == 2
        np.testing.assert_allclose(loaded.data.y, y, rtol=1e-12)
        # features keep their units, and their ranges are the domain
        np.testing.assert_array_equal(loaded.data.X, X)
        assert loaded.data.omega_bounds == tuple(zip(X.min(axis=0), X.max(axis=0)))
        np.testing.assert_array_equal(loaded.data.unit_X.min(axis=0), [0.0, 0.0])
        np.testing.assert_array_equal(loaded.data.unit_X.max(axis=0), [1.0, 1.0])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        header, rows, _, _ = _toy_frame(n=8)
        rows[5][2] = "oops"  # header is line 1, so data row 6 is line 7
        path = _write_csv(tmp_path / "bad.csv", header, rows)
        with pytest.raises(CsvFormatError, match=r"row 7, column x2"):
            load_csv(path, "y")

    def test_constant_feature_dropped_with_warning(self, tmp_path):
        header, rows, _, _ = _toy_frame()
        for r in rows:
            r[1] = 4.0
        path = _write_csv(tmp_path / "const.csv", header, rows)
        with pytest.warns(UserWarning, match="x1"):
            loaded = load_csv(path, "y")
        assert loaded.feature_names == ("x2",)
        assert loaded.dropped_columns == ("x1",)
        assert loaded.data.p == 1

    def test_constant_response_rejected(self, tmp_path):
        header, rows, _, _ = _toy_frame()
        for r in rows:
            r[0] = 2.5
        path = _write_csv(tmp_path / "flat.csv", header, rows)
        with pytest.raises(CsvFormatError, match="constant"):
            load_csv(path, "y")

    def test_missing_response_column(self, tmp_path):
        header, rows, _, _ = _toy_frame()
        path = _write_csv(tmp_path / "toy.csv", header, rows)
        with pytest.raises(CsvFormatError, match="z"):
            load_csv(path, "z")

    def test_duplicated_header_rejected(self, tmp_path):
        # a repeated name would read the first such column twice
        path = _write_csv(tmp_path / "dup.csv", ["a", "a", "b", "b", "y"],
                          [[1.0, 5.0, 2.0, 3.0, 0.5], [2.0, 6.0, 1.0, 4.0, 1.5],
                           [3.0, 4.0, 0.0, 5.0, 2.5]])
        with pytest.raises(CsvFormatError, match=r"\['a', 'b'\]"):
            load_csv(path, "y")
        code = main(["fit", "--data", str(path), "--response", "y", "--lambda-f", "0.5",
                     "--lambda-g", "0.1", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_too_few_rows(self, tmp_path):
        path = _write_csv(tmp_path / "tiny.csv", ["y", "x1"], [[1.0, 2.0]])
        with pytest.raises(CsvFormatError):
            load_csv(path, "y")


class TestPearson:
    def test_perfect_correlation(self):
        a = np.array([1.0, 2.0, 5.0, -1.0])
        assert pearson(a, 3.0 * a - 2.0) == pytest.approx(1.0, abs=1e-14)
        assert pearson(a, -0.5 * a + 4.0) == pytest.approx(-1.0, abs=1e-14)

    def test_hand_computed_value(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 4.0])
        # centered dot 3, norms sqrt(2) and sqrt(14/3)
        expected = 3.0 / (np.sqrt(2.0) * np.sqrt(14.0 / 3.0))
        assert pearson(a, b) == pytest.approx(expected, abs=1e-14)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson(np.ones(5), np.arange(5.0))


class TestFolds:
    def test_partition_is_exact(self):
        cv = CvConfig(folds=4, repeats=3, seed=2)
        splits = fold_indices(23, cv)
        assert len(splits) == 3
        for folds in splits:
            assert len(folds) == 4
            merged = np.sort(np.concatenate(folds))
            np.testing.assert_array_equal(merged, np.arange(23))

    def test_seed_controls_partitions(self):
        a = fold_indices(15, CvConfig(folds=3, repeats=2, seed=1))
        b = fold_indices(15, CvConfig(folds=3, repeats=2, seed=1))
        c = fold_indices(15, CvConfig(folds=3, repeats=2, seed=9))
        for fa, fb in zip(a, b):
            for xa, xb in zip(fa, fb):
                np.testing.assert_array_equal(xa, xb)
        assert any(not np.array_equal(xa, xc)
                   for fa, fc in zip(a, c) for xa, xc in zip(fa, fc))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CvConfig(folds=1)
        with pytest.raises(ValueError):
            CvConfig(repeats=0)
        with pytest.raises(ValueError, match="seed"):
            CvConfig(seed=-1)

    def test_more_folds_than_points_raises(self):
        with pytest.raises(ValueError, match="n=3 is smaller than folds=5"):
            fold_indices(3, CvConfig(folds=5, repeats=1))


def _cv_dataset(n=36, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 2))
    y = 2.0 * X[:, 0] + np.sin(2 * np.pi * X[:, 1]) + rng.normal(0, 0.15, n)
    return Dataset(X, y, ((0.0, 1.0), (0.0, 1.0)))


class TestCrossValidation:
    def test_single_repeat_is_plain_oof(self):
        # repeats=1: the average is just the one out-of-fold pass
        data = _cv_dataset()
        pair = LearnerPair("lasso", "stumps")
        kw = dict(lambda_f=0.01, lambda_g=0.1)
        f1, g1 = cross_validated_predictions(data, pair,
                                             cv=CvConfig(folds=3, repeats=1, seed=4),
                                             **kw)
        f1b, g1b = cross_validated_predictions(data, pair,
                                               cv=CvConfig(folds=3, repeats=1, seed=4),
                                               **kw)
        np.testing.assert_array_equal(f1, f1b)
        np.testing.assert_array_equal(g1, g1b)
        assert f1.shape == g1.shape == (data.n,)
        assert np.ptp(f1) > 0

    def test_poisoned_point_cannot_see_itself(self):
        # the OOF prediction at one index never uses that row, so poisoning
        # the row leaves its own prediction bit-for-bit unchanged
        data = _cv_dataset(seed=5)
        pair = LearnerPair("lasso", "stumps")
        cv = CvConfig(folds=3, repeats=1, seed=7)
        kw = dict(lambda_f=0.01, lambda_g=0.1, cv=cv)
        f_clean, g_clean = cross_validated_predictions(data, pair, **kw)
        y_poison = data.y.copy()
        y_poison[11] += 1000.0
        poisoned = Dataset(data.X, y_poison, data.omega_bounds)
        f_p, g_p = cross_validated_predictions(poisoned, pair, **kw)
        assert f_p[11] == f_clean[11]
        assert g_p[11] == g_clean[11]
        others = np.delete(np.arange(data.n), 11)
        assert np.max(np.abs((f_p + g_p)[others] - (f_clean + g_clean)[others])) > 1.0


class TestFoldsSharedAcrossCells:
    """Every cell of a sweep fits on the same fold objects."""

    def test_kernel_transect_builds_one_gram_per_fold(self, monkeypatch):
        fit_grams = []
        solve_matrices = []
        original = matern_module.matern_gram
        original_solve = linear_module.least_squares_matrix

        def counted(spec, A, B=None):
            if B is None:
                fit_grams.append(A.shape)
            return original(spec, A, B)

        def counted_solve(design):
            solve_matrices.append(design.shape)
            return original_solve(design)

        monkeypatch.setattr(matern_module, "matern_gram", counted)
        monkeypatch.setattr(linear_module, "least_squares_matrix", counted_solve)
        rows = transect_sweep(_cv_dataset(), (1e-3, 1e-2, 1e-1, 1.0), -2.0,
                              CvConfig(folds=3, repeats=1, seed=1), LearnerPair("linear", "kernel"))
        assert len(rows) == 4
        # 3 folds, not 4 cells x 3 folds, nor once per linear fit
        assert fit_grams == [(24, 2)] * 3
        assert solve_matrices == [(24, 3)] * 3

    def test_kernel_transect_builds_each_held_out_block_once_per_fold(self, monkeypatch):
        grams, fits, g_by_cell = [], [], []
        original_gram = matern_module.matern_gram
        original_fit = cv_module.fit_double_penalty
        original_cell = transect_module.cross_validated_predictions

        def counted_gram(spec, A, B=None):
            grams.append("fold gram" if B is None else "held-out block")
            return original_gram(spec, A, B)

        def recorded_fit(train, *args):
            fits.append((train, original_fit(train, *args)))
            return fits[-1][1]

        def recorded_cell(*args):
            f, g = original_cell(*args)
            g_by_cell.append(g)
            return f, g

        monkeypatch.setattr(matern_module, "matern_gram", counted_gram)
        monkeypatch.setattr(cv_module, "fit_double_penalty", recorded_fit)
        monkeypatch.setattr(transect_module, "cross_validated_predictions", recorded_cell)
        data, cv = _cv_dataset(n=60), CvConfig(folds=5, repeats=1, seed=1)
        rows = transect_sweep(data, tuple(np.logspace(-3, 1, 10)), -2.0, cv,
                              LearnerPair("linear", "kernel"))
        assert len(rows) == 10
        # 5 fold Grams and 5 held-out blocks, not 5 + 10 cells x 5 folds
        assert sorted(grams) == ["fold gram"] * 5 + ["held-out block"] * 5
        test_folds = fold_indices(data.n, cv)[0]
        for cell, g in enumerate(g_by_cell):
            for fold, test_idx in enumerate(test_folds):
                # one repeat: the out-of-fold g is the fold member's, and it
                # equals a fresh evaluation of that member's block bit for bit
                model = fits[5 * cell + fold][1].g_hat.coefficients
                unit = to_unit(data.X[test_idx], model.lo, model.hi)
                fresh = original_gram(model.kernel, unit, model.centers) @ model.alpha
                assert g[test_idx].tobytes() == fresh.tobytes()
        # every cell fits on the same 5 fold objects; each keeps one block,
        # the one at its held-out points
        assert len({id(train) for train, _ in fits}) == 5
        for (train, _), test_idx in zip(fits[:5], test_folds):
            blocks = [v for v in train._derived.values() if isinstance(v, CrossBlock)]
            assert len(blocks) == 1
            kept_points, _ = blocks[0]._cached
            assert np.array_equal(kept_points, to_unit(data.X[test_idx], train.lo, train.hi))

    def test_grid_builds_each_table_once_per_fold(self, monkeypatch):
        built = []
        for module, name in ((stumps_module, "split_table"), (lasso_module, "lasso_design")):
            def counted(X, *args, _name=name, _original=getattr(module, name)):
                built.append((_name, id(X)) + args)
                return _original(X, *args)
            monkeypatch.setattr(module, name, counted)
        lg_grid = (0.01, 0.1)
        result = grid_sweep(_cv_dataset(seed=4), (0.1, 1.0), lg_grid,
                            CvConfig(folds=3, repeats=1, seed=2), transect_c=-2.0)
        assert len(result.rows) == 4 and len(result.transect_rows) == 2
        assert len(built) == len(set(built)) == 3 + 3 * len(lg_grid)
        designs = [b for b in built if b[0] == "lasso_design"]
        tables = [b for b in built if b[0] == "split_table"]
        assert len(designs) == 3
        assert sorted(tables) == sorted(("split_table", x, lg)
                                        for _, x in designs for lg in lg_grid)


def _stub_cells(monkeypatch):
    """Replace each cell's cross-validation by a cheap stand-in; returns the
    (lambda_f, lambda_g) of every cell cross-validated."""
    cells = []

    def stub(data, pair, lf, lg, cv):
        cells.append((lf, lg))
        return data.X[:, 0], data.X[:, 1] + math.log(lg) * data.y

    monkeypatch.setattr(transect_module, "cross_validated_predictions", stub)
    return cells


_DEFAULT_LF = _parse_log_grid(cli_module._DEFAULT_GRID)


class TestTransect:
    def test_default_grid(self, tmp_path, monkeypatch):
        # `dpm transect` without --lf-grid sweeps 25 points from 1e-4 to 1e2
        cells = _stub_cells(monkeypatch)
        header, rows, _, _ = _toy_frame(n=12)
        path = _write_csv(tmp_path / "d.csv", header, rows)
        assert main(["transect", "--data", str(path), "--response", "y",
                     "--out", str(tmp_path / "t.csv")]) == 0
        grid = [lf for lf, _ in cells]
        assert len(grid) == 25
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e2)

    def test_lambda_identity(self, monkeypatch):
        _stub_cells(monkeypatch)
        rows = transect_sweep(_cv_dataset(), _DEFAULT_LF, -1.0, CvConfig())
        assert [row.lambda_f for row in rows] == list(_DEFAULT_LF)
        for row in rows:
            assert np.log10(row.lambda_f) + np.log10(row.lambda_g) == pytest.approx(-1.0, abs=1e-12)

    def test_row_validation(self, monkeypatch):
        cells = _stub_cells(monkeypatch)
        with pytest.raises(ValueError):
            DiagnosticRow(0.1, 0.1, 1.5, 0.0, 0.0)
        for grid in ((0.1, 0.1), (-1.0, 1.0), ()):
            with pytest.raises(ValueError):
                transect_sweep(_cv_dataset(), grid, 0.0, CvConfig())
        assert cells == []

    @pytest.mark.parametrize("c", [400.0, -400.0, 306.0, -330.0])
    def test_offsets_whose_lambda_g_leaves_float_range_are_rejected(self, c, monkeypatch):
        # 10**(c - log10(lambda_f)) overflows (c > 0) or underflows to 0 (c < 0)
        # at some point of the default grid, 1e-4 .. 1e2, before any cell runs
        cells = _stub_cells(monkeypatch)
        with pytest.raises(ValueError, match=r"transect cell \(.*positive and finite"):
            transect_sweep(_cv_dataset(), _DEFAULT_LF, c, CvConfig())
        assert cells == []

    def test_extreme_offsets_inside_float_range_are_kept(self, monkeypatch):
        _stub_cells(monkeypatch)
        for c in (300.0, -300.0):
            rows = transect_sweep(_cv_dataset(), _DEFAULT_LF, c, CvConfig())
            assert len(rows) == 25
            assert all(0.0 < row.lambda_g < math.inf for row in rows)

    def test_sweep_rows_live_on_the_transect(self):
        data = _cv_dataset(seed=6)
        cv = CvConfig(folds=3, repeats=1, seed=1)
        rows = transect_sweep(data, (0.01, 0.1, 1.0), -1.0, cv)
        assert len(rows) == 3
        for row in rows:
            assert np.log10(row.lambda_f) + np.log10(row.lambda_g) == pytest.approx(
                -1.0, abs=1e-12)
            for c in (row.cor_f, row.cor_g, row.cor_total):
                assert -1.0 <= c <= 1.0

    def test_single_cell_grid_matches_transect(self):
        # same cell through both code paths, same CV seed: zero gap
        data = _cv_dataset(seed=8)
        cv = CvConfig(folds=3, repeats=1, seed=2)
        lf = 0.1
        lg = 10.0 ** (-1.0 - np.log10(lf))
        result = grid_sweep(data, (lf,), (lg,), cv, transect_c=-1.0)
        assert len(result.rows) == 1
        assert result.gap == 0.0
        assert result.grid_max == result.transect_max

    def test_grid_cells_on_the_transect_are_cross_validated_once(self, monkeypatch):
        cells = []
        original = transect_module.cross_validated_predictions

        def counted(*args, **kwargs):
            cells.append(args[2:4])
            return original(*args, **kwargs)

        monkeypatch.setattr(transect_module, "cross_validated_predictions", counted)
        data = _cv_dataset(seed=8)
        cv = CvConfig(folds=3, repeats=1, seed=2)
        lf_grid = (0.1, 1.0)
        lg_grid = sorted(transect_module._transect_lambda_g(-1.0, lf) for lf in lf_grid)
        result = grid_sweep(data, lf_grid, lg_grid, cv, transect_c=-1.0)
        assert len(cells) == len(set(cells)) == 4
        assert len(result.rows) == 4 and len(result.transect_rows) == 2
        assert set(result.transect_rows) <= set(result.rows)

    def test_cell_whose_fold_fit_raises_is_skipped(self, monkeypatch):
        original = cv_module.fit_double_penalty

        def failing_at_one_lambda(train, fitter_f, fitter_g):
            if fitter_f.lambda_f == 0.1:
                raise np.linalg.LinAlgError("synthetic")
            return original(train, fitter_f, fitter_g)

        monkeypatch.setattr(cv_module, "fit_double_penalty", failing_at_one_lambda)
        skipped = r"transect cell \(0.1, 1\) skipped: .*fold 0: synthetic"
        with pytest.warns(UserWarning, match=skipped):
            rows = transect_sweep(_cv_dataset(seed=6), (0.01, 0.1, 1.0), -1.0,
                                  CvConfig(folds=3, repeats=1))
        assert [row.lambda_f for row in rows] == [0.01, 1.0]

    @pytest.mark.parametrize("transect_c", [None, -1.0])
    def test_every_cell_failing_raises(self, monkeypatch, transect_c):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic")

        monkeypatch.setattr(cv_module, "fit_double_penalty", failing)
        data, cv = _cv_dataset(), CvConfig(folds=3, repeats=1)
        kind = "grid" if transect_c is None else "transect"
        with pytest.warns(UserWarning, match="skipped"), \
                pytest.raises(CvCellError, match=f"every {kind} cell failed"):
            grid_sweep(data, (0.01, 0.1), (0.1,), cv, transect_c=transect_c)
        with pytest.warns(UserWarning, match="skipped"), \
                pytest.raises(CvCellError, match="every transect cell failed"):
            transect_sweep(data, (0.01, 0.1), -1.0, cv)

    def test_cell_with_a_constant_prediction_is_skipped(self, monkeypatch):
        def constant_f(data, pair, lf, lg, cv):
            f = np.zeros(data.n) if lf == 1.0 else data.X[:, 0]
            return f, data.X[:, 1]

        monkeypatch.setattr(transect_module, "cross_validated_predictions", constant_f)
        with pytest.warns(UserWarning, match=r"grid cell \(1, 0.1\) skipped: .*constant"):
            result = grid_sweep(_cv_dataset(seed=6), (0.1, 1.0), (0.1,), CvConfig())
        assert [(r.lambda_f, r.lambda_g) for r in result.rows] == [(0.1, 0.1)]

    def test_invalid_lambda_g_raises_instead_of_skipping(self):
        with pytest.raises(ValueError, match=r"grid cell \(0.1, 0\): .*lambda_g positive"):
            grid_sweep(_cv_dataset(), (0.1,), (0.0,), CvConfig(folds=3, repeats=1))

    @pytest.mark.parametrize("transect_c", [None, -1.0])
    def test_bad_lambda_raises_naming_its_cell_before_any_fit(self, monkeypatch, transect_c):
        cells = _stub_cells(monkeypatch)
        with pytest.raises(ValueError, match=r"^grid cell \(0.01, -1\): lambda_f must"):
            grid_sweep(_cv_dataset(), [0.01, 0.1], [0.1, -1.0], CvConfig(),
                       transect_c=transect_c)
        assert cells == []

    @pytest.mark.parametrize("lf_grid, lg_grid", [
        ((0.1, 0.1), (0.1,)), ((1.0, 0.1), (0.1, 1.0)), ((0.1, 1.0), (0.1, 0.1)), ((), (0.1,)),
    ])
    @pytest.mark.parametrize("transect_c", [None, -1.0])
    def test_grids_must_be_strictly_increasing(self, monkeypatch, lf_grid, lg_grid, transect_c):
        cells = _stub_cells(monkeypatch)
        with pytest.raises(ValueError, match="strictly increasing|non-empty"):
            grid_sweep(_cv_dataset(), lf_grid, lg_grid, CvConfig(), transect_c=transect_c)
        assert cells == []

    def test_grid_cells_an_ulp_off_the_transect_take_its_rows(self, monkeypatch):
        cells = _stub_cells(monkeypatch)
        grid = _parse_log_grid("1e-3:1e1:7")
        transect_lg = [transect_module._transect_lambda_g(-2.0, lf) for lf in grid]
        # every transect cell lies on the grid, but some only to the last digit
        assert all(any(math.isclose(lg, g, rel_tol=1e-12) for g in grid) for lg in transect_lg)
        assert sum(lg in grid for lg in transect_lg) < len(grid)
        result = grid_sweep(_cv_dataset(seed=8), grid, grid, CvConfig(folds=3, repeats=1),
                            transect_c=-2.0)
        assert len(cells) == 49
        assert [(r.lambda_f, r.lambda_g) for r in result.rows] == [
            (lf, lg) for lf in grid for lg in grid]
        reused = [r for r in result.rows if (r.lambda_f, r.lambda_g) not in cells[7:]]
        assert [(r.cor_f, r.cor_g, r.cor_total) for r in reused] == [
            (r.cor_f, r.cor_g, r.cor_total) for r in result.transect_rows]


class TestCli:
    def _data_file(self, tmp_path, n=24, seed=1):
        header, rows, _, _ = _toy_frame(n=n, seed=seed)
        return _write_csv(tmp_path / "data.csv", header, rows)

    def test_fit_reports_coefficients_in_the_data_units(self, tmp_path, monkeypatch):
        fits = []
        original = cli_module.fit_double_penalty
        monkeypatch.setattr(cli_module, "fit_double_penalty",
                            lambda *args: fits.append(original(*args)) or fits[-1])
        path = self._data_file(tmp_path)
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(path), "--response", "y",
                     "--interp", "linear", "--flex", "stumps",
                     "--lambda-f", "0.5", "--lambda-g", "0.1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        model = fits[0].f_hat.coefficients
        data = load_csv(path, "y").data
        assert list(report["coefficients_original"].values()) == list(model.beta)
        assert list(report["coefficients_unit"].values()) == list(
            model.beta * (data.hi - data.lo))
        assert report["intercept_original"] == model.intercept

    def test_fit_writes_report(self, tmp_path, capsys):
        path = self._data_file(tmp_path)
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--interp", "linear", "--flex", "stumps",
                     "--lambda-f", "0.5", "--lambda-g", "0.1",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["interp"] == "linear"
        assert set(report["coefficients_original"]) == {"x1", "x2"}
        assert -1.0 <= report["training_cor_total"] <= 1.0
        assert "wrote" in capsys.readouterr().out

    def test_fit_gcv_requires_kernel(self, tmp_path, capsys):
        # an omitted --lambda-g means GCV, which only the kernel class has
        path = self._data_file(tmp_path)
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--flex", "stumps", "--lambda-f", "0.5",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "kernel" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:          # there is no --gcv flag
            main(["fit", "--data", str(path), "--response", "y", "--flex", "kernel",
                  "--lambda-f", "0.5", "--gcv", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_fit_gcv_picks_lambda_g_on_the_first_residual(self, tmp_path):
        path = self._data_file(tmp_path)
        out = tmp_path / "gcv.json"
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--interp", "linear", "--flex", "kernel",
                     "--lambda-f", "0.5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        data = load_csv(path, "y").data
        f_0 = LinearFitter(ridge_gamma=0.5).fit(data, data.y).fitted
        K = matern_gram(MaternSpec(nu=3.5 + data.p / 2.0, p=data.p, phi=1.0), data.unit_X)
        assert report["gcv"] is True
        assert report["lambda_g"] == gcv_select_lambda(K, data.y - f_0)[0]
        with pytest.raises(ValueError, match="kernel"):
            LearnerPair("linear", "stumps").fitters(data, 0.5, None)
        assert main(["fit", "--data", str(path), "--response", "y",
                     "--interp", "linear", "--flex", "kernel", "--lambda-f", "0.5",
                     "--lambda-g", "0.25", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["gcv"] is False and report["lambda_g"] == 0.25

    def test_fit_missing_lambda_g(self, tmp_path):
        path = self._data_file(tmp_path)
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--lambda-f", "0.5", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_bad_csv_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x1\n1.0,2.0\n3.0,oops\n4.0,5.0\n")
        code = main(["fit", "--data", str(bad), "--response", "y",
                     "--lambda-f", "0.5", "--lambda-g", "0.1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import dpm.cli as cli_mod
        from dpm.fitter import FitterError

        def boom(*a, **k):
            raise FitterError("synthetic", ())

        monkeypatch.setattr(cli_mod, "fit_double_penalty", boom)
        path = self._data_file(tmp_path)
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--lambda-f", "0.5", "--lambda-g", "0.1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_linalg_error_outside_a_fitter_is_a_numerical_failure(self, tmp_path, monkeypatch,
                                                                   capsys):
        def boom(*a, **k):
            raise np.linalg.LinAlgError("synthetic")

        monkeypatch.setattr(cli_module, "fit_double_penalty", boom)
        path = self._data_file(tmp_path)
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--lambda-f", "0.5", "--lambda-g", "0.1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "numerical failure: synthetic" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transect", "grid"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--cv-folds", "50", "smaller than folds"),
        ("--seed", "-1", "seed must be non-negative"),
    ])
    def test_sweep_settings_are_validation_errors(self, tmp_path, capsys, command,
                                                  flag, value, message):
        path = self._data_file(tmp_path, n=12)
        out = tmp_path / "s.csv"
        argv = [command, "--data", str(path), "--response", "y", "--lf-grid", "1e-2:1:2",
                "--cv-repeats", "1", flag, value, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")              # no per-cell warnings
            code = main(argv)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_transect_and_repeat_is_byte_identical(self, tmp_path):
        path = self._data_file(tmp_path, n=21, seed=2)
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        argv = ["transect", "--data", str(path), "--response", "y",
                "--c", "-1", "--lf-grid", "1e-2:1:3", "--cv-folds", "3",
                "--cv-repeats", "1", "--seed", "5"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        body = out1.read_bytes()
        assert body == out2.read_bytes()
        lines = body.decode().splitlines()
        assert lines[0] == "lambda_f,lambda_g,cor_f,cor_g,cor_total"
        assert len(lines) == 4

    def test_sweeps_pass_only_the_flags_given(self, tmp_path, monkeypatch):
        calls = []
        row = DiagnosticRow(0.1, 0.1, 0.5, 0.5, 0.5)
        monkeypatch.setattr(cli_module, "transect_sweep",
                            lambda data, grid, c, cv, pair: calls.append((cv, pair)) or [row])
        base = ["transect", "--data", str(self._data_file(tmp_path)), "--response", "y",
                "--out", str(tmp_path / "t.csv")]
        assert main(base) == 0
        assert main(base + ["--interp", "linear", "--cv-repeats", "2", "--seed", "3"]) == 0
        assert calls == [(CvConfig(), LearnerPair()),
                         (CvConfig(repeats=2, seed=3), LearnerPair(interp="linear"))]

    def test_fit_reports_the_pair_defaults(self, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(self._data_file(tmp_path)), "--response", "y",
                     "--lambda-f", "0.5", "--lambda-g", "0.1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["interp"], report["flex"]) == (LearnerPair().interp, LearnerPair().flex)

    def test_sweep_where_every_cell_fails_is_a_numerical_failure(self, tmp_path, monkeypatch,
                                                                capsys):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic")

        monkeypatch.setattr(cv_module, "fit_double_penalty", failing)
        out = tmp_path / "t.csv"
        with pytest.warns(UserWarning, match="skipped"):
            code = main(["transect", "--data", str(self._data_file(tmp_path)), "--response", "y",
                         "--lf-grid", "1e-2:1:2", "--cv-folds", "3", "--cv-repeats", "1",
                         "--out", str(out)])
        assert code == 3
        assert "every transect cell failed" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_reports_gap(self, tmp_path, capsys):
        path = self._data_file(tmp_path, n=21, seed=3)
        out = tmp_path / "grid.csv"
        code = main(["grid", "--data", str(path), "--response", "y",
                     "--lf-grid", "1e-2:1:2", "--lg-grid", "1e-2:1:2",
                     "--c", "-1", "--cv-folds", "3", "--cv-repeats", "1",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert "gap" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 5

    def test_simulate_writes_files(self, tmp_path, capsys):
        code = main(["simulate", "table1", "--seed", "3",
                     "--out-dir", str(tmp_path), "--reps", "2", "--n", "40"])
        assert code == 0
        assert (tmp_path / "table1_seed3.csv").exists()
        assert (tmp_path / "table1_seed3.json").exists()

    def test_simulate_example1_at_the_smallest_sizes(self, tmp_path, capsys):
        args = ["simulate", "example1", "--seed", "0", "--out-dir", str(tmp_path),
                "--reps", "2", "--n"]
        assert main(args + ["2"]) == 0
        assert main(args + ["1"]) == 2       # one point cannot span the affine functions
        assert "does not span the affine functions" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["table1", "table2", "example1", "example2"])
    @pytest.mark.parametrize("flag", ["--reps", "--n"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_simulate_rejects_counts_below_one(self, tmp_path, capsys, experiment, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", experiment, "--out-dir", str(tmp_path), flag, value])
        assert exc.value.code == 2
        assert "must be an integer >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_simulate_passes_only_the_flags_given(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setitem(cli_module._SIMULATORS, "example1",
                            lambda **kw: calls.append(kw) or run_example1(**kw))
        base = ["simulate", "example1", "--out-dir", str(tmp_path), "--seed", "4"]
        assert main(base + ["--reps", "1"]) == 0
        assert main(base + ["--reps", "1", "--n", "3"]) == 0
        assert main(base[:-2] + ["--reps", "1"]) == 0
        assert calls == [{"seed": 4, "reps": 1}, {"seed": 4, "n": 3, "reps": 1}, {"reps": 1}]

    def test_simulate_table2_rejects_n(self, tmp_path):
        code = main(["simulate", "table2", "--seed", "3",
                     "--out-dir", str(tmp_path), "--reps", "2", "--n", "40"])
        assert code == 2

    def test_separability_analytic(self, capsys):
        assert main(["separability", "--analytic-psi", "3"]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(0.827680554922, abs=1e-9)

    def test_separability_from_data(self, tmp_path, capsys):
        path = self._data_file(tmp_path)
        code = main(["separability", "--data", str(path), "--response", "y",
                     "--basis-f", "linear", "--basis-g", "sin:2"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0

    def test_separability_non_finite_basis_is_validation_error(self, tmp_path, capsys):
        path = self._data_file(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")              # no RuntimeWarning from numpy
            code = main(["separability", "--data", str(path), "--response", "y",
                         "--basis-f", "linear", "--basis-g", "sin:inf"])
        assert code == 2
        assert "basis term 'sin:inf' needs a finite number" in capsys.readouterr().err

    def test_separability_non_numeric_frequency_names_the_term(self, tmp_path, capsys):
        path = self._data_file(tmp_path)
        code = main(["separability", "--data", str(path), "--response", "y",
                     "--basis-f", "linear", "--basis-g", "cos:1,sin:abc"])
        assert code == 2
        assert "basis term 'sin:abc' needs a finite number" in capsys.readouterr().err

    def test_separability_without_args(self):
        assert main(["separability"]) == 2

    def test_fit_non_finite_lambda_is_validation_error(self, tmp_path, capsys):
        path = self._data_file(tmp_path)
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--lambda-f", "nan", "--lambda-g", "0.1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_transect_non_finite_grid_is_validation_error(self, tmp_path, capsys):
        path = self._data_file(tmp_path)
        out = tmp_path / "t.csv"
        code = main(["transect", "--data", str(path), "--response", "y",
                     "--lf-grid", "nan:1:3", "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_transect_non_finite_c_is_validation_error(self, tmp_path, capsys):
        path = self._data_file(tmp_path)
        code = main(["transect", "--data", str(path), "--response", "y",
                     "--c", "nan", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["400", "-400"])
    def test_transect_out_of_range_c_is_validation_error(self, tmp_path, capsys, c):
        path = self._data_file(tmp_path)
        out = tmp_path / "t.csv"
        code = main(["transect", "--data", str(path), "--response", "y",
                     "--c", c, "--out", str(out)])
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_spec(self, tmp_path):
        path = self._data_file(tmp_path)
        code = main(["transect", "--data", str(path), "--response", "y",
                     "--lf-grid", "nope", "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
