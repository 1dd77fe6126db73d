"""Numeric oracles that the symbolic paths of legfol are compared with:
finite differences for derivatives, the Jacobian for pushforwards, the
standard symplectic form for the linear algebra and a full SVD for hyperplane
kernel bases."""

from typing import Sequence

import numpy as np

from legfol.fields import ChartMismatch, ExprField, SmoothMapExpr, VectorFieldExpr
from legfol.symplin import SympForm


def fd_partial(field: ExprField, point: Sequence[float], var: str,
               step: float = 1e-5) -> float:
    """Central-difference partial derivative, independent of the symbolic path."""
    if step <= 0:
        raise ValueError("step must be positive")
    i = field.chart.index(var)
    p = np.asarray(point, dtype=float)
    hi = p.copy()
    hi[i] += step
    lo = p.copy()
    lo[i] -= step
    return (field.eval(hi) - field.eval(lo)) / (2.0 * step)


def pushforward(map_: SmoothMapExpr, V: VectorFieldExpr,
                point: Sequence[float]) -> np.ndarray:
    """Jacobian of the map applied to V at the given source point."""
    if V.chart != map_.source:
        raise ChartMismatch("vector field not on the map's source chart")
    return map_.jacobian(point) @ V.eval(point)


def standard_symplectic(n: int) -> SympForm:
    """Block form on R^{2n} with coordinates (x1..xn, y1..yn)."""
    M = np.zeros((2 * n, 2 * n))
    for i in range(n):
        M[i, n + i] = 1.0
        M[n + i, i] = -1.0
    return SympForm(M)


def svd_hyperplane_bases(covecs: np.ndarray) -> np.ndarray:
    """Kernel bases of N nonzero covectors on R^dim, (N, dim - 1, dim): the
    last dim - 1 rows of vh from a full SVD of each 1 x dim matrix, which is
    what scipy's null_space(covecs[i][None], rcond).T returns for any
    rcond < 1."""
    C = np.asarray(covecs, dtype=float)
    return np.linalg.svd(C[:, None, :], full_matrices=True)[2][:, 1:]
