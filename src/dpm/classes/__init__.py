from .linear import (
    FiniteBasisFitter,
    FiniteBasisModel,
    LinearFitter,
    LinearModel,
    fit_finite_basis,
    fit_linear_ols,
)
from .lasso import LassoFitter, fit_lasso
from .stumps import StumpEnsemble, StumpFitter, fit_boosted_stumps

__all__ = [
    "FiniteBasisFitter",
    "FiniteBasisModel",
    "LinearFitter",
    "LinearModel",
    "fit_finite_basis",
    "fit_linear_ols",
    "LassoFitter",
    "fit_lasso",
    "StumpEnsemble",
    "StumpFitter",
    "fit_boosted_stumps",
]
