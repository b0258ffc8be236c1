from .matern import MaternSpec, OrthonormalBasis, matern_gram, orthonormal_linear_basis
from .projection import ProjectedKernel
from .ridge import (
    KernelRidgeFitter,
    KernelRidgeModel,
    gcv_select_lambda,
    kernel_ridge_fit,
)

__all__ = [
    "MaternSpec",
    "OrthonormalBasis",
    "matern_gram",
    "orthonormal_linear_basis",
    "ProjectedKernel",
    "KernelRidgeFitter",
    "KernelRidgeModel",
    "gcv_select_lambda",
    "kernel_ridge_fit",
]
