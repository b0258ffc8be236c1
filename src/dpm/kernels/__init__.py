from .matern import MaternSpec, matern_gram
from .projection import ProjectedKernel
from .ridge import (
    KernelRidgeFitter,
    KernelRidgeModel,
    gcv_select_lambda,
    kernel_ridge_fit,
)

__all__ = [
    "MaternSpec",
    "matern_gram",
    "ProjectedKernel",
    "KernelRidgeFitter",
    "KernelRidgeModel",
    "gcv_select_lambda",
    "kernel_ridge_fit",
]
