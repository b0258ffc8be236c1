from .bessel import K_SATURATION, bessel_k
from .design import maximin_lhs
from .linalg import CholeskySolveResult, cholesky_solve
from .quadrature import QuadratureRule, gauss_legendre_01, halton, tensor_or_qmc_rule

__all__ = [
    "K_SATURATION",
    "bessel_k",
    "maximin_lhs",
    "CholeskySolveResult",
    "cholesky_solve",
    "QuadratureRule",
    "gauss_legendre_01",
    "halton",
    "tensor_or_qmc_rule",
]
