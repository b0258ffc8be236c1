from .bessel import bessel_k
from .design import maximin_lhs
from .linalg import CholeskySolveResult, cholesky_solve, truncated_svd
from .quadrature import QuadratureRule, gauss_legendre_01, halton, tensor_or_qmc_rule

__all__ = [
    "bessel_k",
    "maximin_lhs",
    "CholeskySolveResult",
    "cholesky_solve",
    "truncated_svd",
    "QuadratureRule",
    "gauss_legendre_01",
    "halton",
    "tensor_or_qmc_rule",
]
