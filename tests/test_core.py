import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpm
from dpm.classes import LinearModel
from dpm.core import (
    AdditiveFit,
    Dataset,
    FunctionClassMember,
    TraceRecord,
    empirical_inner,
    empirical_norm,
    objective,
    to_unit,
)


def _line(slope, penalty=0.0):
    """The member x -> slope * x[:, 0], fitted at no training points."""
    return FunctionClassMember(LinearModel(np.array([slope]), 0.0), penalty,
                               np.zeros(0))


def test_empirical_inner_and_norm():
    assert empirical_inner(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(5.5)
    assert empirical_norm(np.array([3.0, 4.0])) == pytest.approx(3.5355339059327376)
    with pytest.raises(ValueError):
        empirical_inner(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        empirical_norm(np.array([]))


def test_objective_arithmetic():
    data = Dataset(np.array([[0.1], [0.9]]), np.array([1.0, 3.0]))
    f = np.array([0.5, 2.0])
    g = np.array([0.0, 0.5])
    # residual (0.5, 0.5): mean square 0.25, plus penalties
    assert objective(data, f, g, 0.1, 0.2) == pytest.approx(0.25 + 0.3)


@pytest.mark.parametrize("f", [np.zeros(1), np.zeros(3), np.zeros((2, 1))])
def test_objective_rejects_values_of_another_length(f):
    # a length-1 f once broadcast silently and a length-3 one raised numpy's own error
    data = Dataset(np.array([[0.1], [0.9]]), np.array([1.0, 3.0]))
    with pytest.raises(ValueError, match="f and g values must match the dataset length"):
        objective(data, f, np.zeros(2), 0.0, 0.0)
    with pytest.raises(ValueError, match="f and g values must match the dataset length"):
        objective(data, np.zeros(2), f, 0.0, 0.0)


class TestDataset:
    def test_basic_shape_handling(self):
        d = Dataset(np.array([0.1, 0.4, 0.8]), np.array([1.0, 2.0, 3.0]))
        assert (d.n, d.p) == (3, 1)
        assert d.X.shape == (3, 1)
        np.testing.assert_array_equal(d.unit_X, d.X)

    def test_rescaling(self):
        d = Dataset(np.array([[0.5], [2.5]]), np.array([0.0, 1.0]),
                    omega_bounds=[(0.5, 2.5)])
        np.testing.assert_allclose(d.unit_X[:, 0], [0.0, 1.0])
        np.testing.assert_allclose(to_unit(np.array([1.5]), d.lo, d.hi)[:, 0], [0.5])
        np.testing.assert_allclose(to_unit(1.5, d.lo, d.hi), [[0.5]])   # a scalar is one point

    def test_unit_x_is_computed_once_and_read_only(self):
        d = Dataset(np.array([[0.5], [2.5]]), np.array([0.0, 1.0]),
                    omega_bounds=[(0.5, 2.5)])
        unit = d.unit_X
        assert d.unit_X is unit
        with pytest.raises(ValueError, match="read-only"):
            unit[0, 0] = 0.5
        np.testing.assert_array_equal(d.unit_X[:, 0], [0.0, 1.0])
        assert d.X.flags.writeable

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.2]]), np.array([0.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([0.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5]]), np.array([0.0]), omega_bounds=[(1.0, 0.0)])
        # a non-finite bound has no unit-cube image: NaN, or 0 for every point
        for bounds in ([(np.nan, 1.0), (0.0, 1.0)], [(0.0, np.inf), (0.0, 1.0)],
                       [(0.0, 1.0), (-np.inf, 1.0)], [(0.0, 1.0), (0.0, np.nan)]):
            with pytest.raises(ValueError, match="finite"):
                Dataset(np.full((2, 2), 0.5), np.zeros(2), omega_bounds=bounds)

    @pytest.mark.parametrize("X, y", [(np.zeros((3, 1)), np.zeros(2)),
                                      (np.zeros((0, 1)), np.zeros(0))])
    def test_inconsistent_shapes_rejected(self, X, y):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            Dataset(X, y)

    def test_subset_keeps_bounds(self):
        d = Dataset(np.array([[0.5], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0]),
                    omega_bounds=[(0.5, 2.5)])
        s = d.subset(np.array([0, 2]))
        assert s.n == 2
        assert s.omega_bounds == d.omega_bounds
        np.testing.assert_array_equal(s.y, [1.0, 3.0])

    def test_derived_builds_once_per_object_and_key(self):
        builds = []

        def build():
            builds.append(1)
            return object()

        d = Dataset(np.array([0.1, 0.4, 0.8]), np.array([1.0, 2.0, 3.0]))
        first = d.derived(("table", 0.1), build)
        assert d.derived(("table", 0.1), build) is first
        assert len(builds) == 1
        assert d.derived(("table", 0.2), build) is not first
        assert len(builds) == 2
        same_values = Dataset(d.X.copy(), d.y.copy())
        assert same_values.derived(("table", 0.1), build) is not first
        assert len(builds) == 3

    def test_derived_stores_nothing_when_build_raises(self):
        d = Dataset(np.array([0.1, 0.4]), np.array([1.0, 2.0]))

        def fail():
            raise ValueError("bad design")

        with pytest.raises(ValueError, match="bad design"):
            d.derived("table", fail)
        assert d.derived("table", lambda: 7) == 7


class TestFunctionClassMember:
    def test_callable_and_validation(self):
        m = _line(3.0, penalty=0.5)
        np.testing.assert_array_equal(m(np.array([[1.0], [2.0]])), [3.0, 6.0])
        np.testing.assert_array_equal(m(np.array([1.0, 2.0])), [3.0, 6.0])
        with pytest.raises(ValueError):
            _line(3.0, penalty=-1.0)
        with pytest.raises(ValueError):
            _line(3.0, penalty=float("nan"))

    def test_predict_gets_a_float_point_array(self):
        seen = []

        class Recording:
            def predict(self, points):
                seen.append(points)
                return np.zeros(points.shape[0])

        FunctionClassMember(Recording(), 0.0, np.zeros(0))([1, 2, 3])
        assert seen[0].shape == (3, 1) and seen[0].dtype == float


class TestAdditiveFit:
    def _fit(self):
        f = _line(1.0)
        g = _line(2.0, penalty=0.1)
        trace = (TraceRecord(1, 1.0, 0.5, 0.5, 0.0, 0.1),
                 TraceRecord(2, 0.5, 0.1, 0.1, 0.0, 0.1))
        return AdditiveFit(f, g, trace, "change-tol")

    def test_predict_sums_components(self):
        fit = self._fit()
        pts = np.array([[0.2], [0.4]])
        np.testing.assert_allclose(fit.predict(pts), [0.6, 1.2])
        assert fit.iterations == 2

    def test_stop_reason_validated(self):
        with pytest.raises(ValueError):
            AdditiveFit(_line(1.0), _line(2.0), (), "diverged")


def test_runtime_imports_only_numpy_and_the_standard_library():
    # a fresh interpreter, so modules the test runner loaded do not count;
    # whatever the interpreter loads at startup (site hooks) is not dpm's
    script = "\n".join([
        "import importlib, pkgutil, sys",
        "before = set(sys.modules)",
        "import dpm",
        "for info in pkgutil.walk_packages(dpm.__path__, 'dpm.'):",
        "    importlib.import_module(info.name)",
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}",
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names) - {'numpy', 'dpm'})))",
    ])
    src = str(Path(dpm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == []
