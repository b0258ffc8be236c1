"""Spans around the public functions of each dpm layer, recorded from outside.

``Tracer.install`` wraps each target and rebinds every name in the loaded
``dpm.*`` modules that refers to the original object, so that re-imports
such as ``from ..numerics import cholesky_solve`` in ``kernels.ridge`` are
traced too.  Methods are wrapped on their class.  ``Tracer.remove`` puts
the originals back, so untraced passes run the unmodified program.

Each call becomes one span ``(id, parent_id, name, start, end, self_s)``
kept in memory; self time is the span's duration minus the durations of
its direct children.  ``layer_metrics`` folds the spans of one pass into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> (module, attribute path); the module is where it is defined
TARGETS = {
    "bessel_k": ("dpm.numerics.bessel", "bessel_k"),
    "cholesky_solve": ("dpm.numerics.linalg", "cholesky_solve"),
    "maximin_lhs": ("dpm.numerics.design", "maximin_lhs"),
    "matern_gram": ("dpm.kernels.matern", "matern_gram"),
    "ProjectedKernel.__init__": ("dpm.kernels.projection", "ProjectedKernel.__init__"),
    "ProjectedKernel.gram": ("dpm.kernels.projection", "ProjectedKernel.gram"),
    "kernel_ridge_fit": ("dpm.kernels.ridge", "kernel_ridge_fit"),
    "gcv_select_lambda": ("dpm.kernels.ridge", "gcv_select_lambda"),
    "KernelRidgeModel.predict_unit": ("dpm.kernels.ridge", "KernelRidgeModel.predict_unit"),
    "fit_lasso": ("dpm.classes.lasso", "fit_lasso"),
    "fit_boosted_stumps": ("dpm.classes.stumps", "fit_boosted_stumps"),
    "StumpEnsemble.predict": ("dpm.classes.stumps", "StumpEnsemble.predict"),
    "fit_linear_ols": ("dpm.classes.linear", "fit_linear_ols"),
    "fit_double_penalty": ("dpm.fitter", "fit_double_penalty"),
    "cross_validated_predictions": ("dpm.cv", "cross_validated_predictions"),
    "grid_sweep": ("dpm.transect", "grid_sweep"),
    "transect_sweep": ("dpm.transect", "transect_sweep"),
    "load_csv": ("dpm.data_io", "load_csv"),
    "run_example1": ("dpm.experiments.example1", "run_example1"),
    "run_example2": ("dpm.experiments.example2", "run_example2"),
}


def _rows(a) -> int:
    return int(np.asarray(a).shape[0]) if np.ndim(a) else 1


def _note(name: str, args, kwargs, result) -> tuple:
    """Counts a span carries besides its timing."""
    if name == "bessel_k":
        return (int(np.size(args[1] if len(args) > 1 else kwargs["x"])),)
    if name == "matern_gram":
        A = args[1]
        B = args[2] if len(args) > 2 else kwargs.get("B")
        return (_rows(A) * _rows(A if B is None else B),)
    if name == "cholesky_solve":
        B = np.asarray(args[1] if len(args) > 1 else kwargs["B"])
        return (1 if B.ndim == 1 else int(B.shape[1]), result.jitter_used > 0.0)
    if name == "KernelRidgeModel.predict_unit":
        model, points = args[0], np.asarray(args[1])
        at_train = points.shape == model.centers.shape and np.array_equal(points, model.centers)
        return (_rows(points), at_train)
    if name == "fit_lasso":
        return (not result.coefficients.converged,)
    if name == "fit_double_penalty":
        return (result.iterations, result.stop_reason == "max-iters")
    if name == "cross_validated_predictions":
        data, _, lf, lg, cv = args[:5]
        return (id(data), float(lf), float(lg), cv.folds * cv.repeats)
    return ()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.notes: dict[int, tuple] = {}
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans.append((sid, parent, name, t0, t1, t1 - t0 - frame[1]))
            note = _note(name, args, kwargs, result)
            if note:
                tracer.notes[sid] = note
            return result

        return traced

    def install(self) -> None:
        for name, (module_name, attr_path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:                       # a method: patch the class once
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "dpm" or mod_name.startswith("dpm.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.notes.clear()
        self._next_id = 1

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, parent, name, t0, t1, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "self_s": self_s,
                                     "note": list(self.notes.get(sid, ()))}) + "\n")

    def calls(self) -> dict[str, int]:
        counts = defaultdict(int)
        for span in self.spans:
            counts[span[2]] += 1
        return counts

    def layer_metrics(self) -> dict[str, float]:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        notes = defaultdict(list)
        fit_ms = []
        for sid, _parent, name, t0, t1, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            incl_s[name] += t1 - t0
            if sid in self.notes:
                notes[name].append(self.notes[sid])
            if name == "fit_double_penalty":
                fit_ms.append(1e3 * (t1 - t0))

        def col(name, j):
            return [note[j] for note in notes[name]]

        def ratio(a, b):
            return a / b if b else 0.0

        bessel_args = sum(col("bessel_k", 0))
        pred_rows = col("KernelRidgeModel.predict_unit", 0)
        pred_train = [r for r, at_train in notes["KernelRidgeModel.predict_unit"] if at_train]
        fits = calls["fit_double_penalty"]
        cells = [(d, lf, lg) for d, lf, lg, _ in notes["cross_validated_predictions"]]
        sweeps = calls["grid_sweep"] + calls["transect_sweep"]
        return {
            "numerics.bessel.calls": calls["bessel_k"],
            "numerics.bessel.args": bessel_args,
            "numerics.bessel.self_s": self_s["bessel_k"],
            "numerics.bessel.ns_per_arg": 1e9 * ratio(self_s["bessel_k"], bessel_args),
            "kernels.matern.gram_calls": calls["matern_gram"],
            "kernels.matern.gram_entries": sum(col("matern_gram", 0)),
            "kernels.matern.self_s": self_s["matern_gram"],
            "kernels.projection.gram_calls": calls["ProjectedKernel.gram"],
            "kernels.projection.self_s": (self_s["ProjectedKernel.gram"]
                                          + self_s["ProjectedKernel.__init__"]),
            "kernels.projection.init_s": incl_s["ProjectedKernel.__init__"],
            "kernels.ridge.fit_calls": calls["kernel_ridge_fit"],
            "kernels.ridge.fit_self_s": self_s["kernel_ridge_fit"],
            "kernels.ridge.gcv_calls": calls["gcv_select_lambda"],
            "kernels.ridge.gcv_self_s": self_s["gcv_select_lambda"],
            "kernels.ridge.predict_calls": calls["KernelRidgeModel.predict_unit"],
            "kernels.ridge.predict_self_s": self_s["KernelRidgeModel.predict_unit"],
            "kernels.ridge.predict_train_frac": ratio(sum(pred_train), sum(pred_rows)),
            "numerics.linalg.cholesky_calls": calls["cholesky_solve"],
            "numerics.linalg.cholesky_rhs_cols": sum(col("cholesky_solve", 0)),
            "numerics.linalg.cholesky_self_s": self_s["cholesky_solve"],
            "numerics.linalg.jitter_solves": sum(col("cholesky_solve", 1)),
            "numerics.design.maximin_calls": calls["maximin_lhs"],
            "numerics.design.maximin_self_s": self_s["maximin_lhs"],
            "classes.lasso.calls": calls["fit_lasso"],
            "classes.lasso.self_s": self_s["fit_lasso"],
            "classes.lasso.nonconverged": sum(col("fit_lasso", 0)),
            "classes.stumps.fit_calls": calls["fit_boosted_stumps"],
            "classes.stumps.fit_self_s": self_s["fit_boosted_stumps"],
            "classes.stumps.predict_calls": calls["StumpEnsemble.predict"],
            "classes.stumps.predict_self_s": self_s["StumpEnsemble.predict"],
            "classes.linear.calls": calls["fit_linear_ols"],
            "classes.linear.self_s": self_s["fit_linear_ols"],
            "fitter.fits": fits,
            "fitter.self_s": self_s["fit_double_penalty"],
            "fitter.iters": sum(col("fit_double_penalty", 0)),
            "fitter.iters_per_fit": ratio(sum(col("fit_double_penalty", 0)), fits),
            "fitter.maxiter_frac": ratio(sum(col("fit_double_penalty", 1)), fits),
            "fitter.fit_ms_p50": float(np.percentile(fit_ms, 50)) if fit_ms else 0.0,
            "fitter.fit_ms_p90": float(np.percentile(fit_ms, 90)) if fit_ms else 0.0,
            "cv.cells": calls["cross_validated_predictions"],
            "cv.fold_fits": sum(col("cross_validated_predictions", 3)),
            "cv.self_s": self_s["cross_validated_predictions"],
            "transect.cells": len(cells) if sweeps else 0,
            "transect.unique_cell_frac": ratio(len(set(cells)), len(cells)) if sweeps else 0.0,
            "transect.self_s": self_s["grid_sweep"] + self_s["transect_sweep"],
            "data_io.load_calls": calls["load_csv"],
            "data_io.load_s": incl_s["load_csv"],
            "experiments.self_s": self_s["run_example1"] + self_s["run_example2"],
        }
