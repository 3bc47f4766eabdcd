"""Momentum-space potential kernels <k'|V|k> and their constructors.

A kernel is a dense matrix of samples on a momentum grid plus a little
metadata: whether it is symmetric and (when the defining formula is
known in closed form) a row evaluator that returns <q|V|k_i> at
arbitrary off-grid momentum q.  The evaluator is what lets the
scattering solver append an on-shell node to the grid without ever
interpolating a kernel, which would degrade it.  Coordinate-space
kernels have their own type, coordinate.CoordinateKernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, ShapeError
from .grid import MomentumGrid, RadialGrid

SYMMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Kernel:
    """Dense momentum-space kernel samples with symmetry metadata.

    Parameters
    ----------
    grid : MomentumGrid
        The quadrature rule the samples live on.
    values : ndarray, shape (n, n)
        Samples V(k'_i, k_j); fm for momentum-space potentials.
    symmetry : {"symmetric", "general"}
        Declared symmetry; validated on construction for "symmetric".
    evaluate : callable, optional
        evaluate(q, k_array) -> V(q, k) of shape q.shape + k_array.shape,
        one row per momentum in q (a scalar q gives one 1-d row).
        Present only when a closed-form or transform expression exists.
    """

    grid: MomentumGrid
    values: np.ndarray
    symmetry: str = "symmetric"
    evaluate: Optional[Callable] = None

    def __post_init__(self):
        if not isinstance(self.grid, MomentumGrid):
            raise ContractError("a Kernel lives on a MomentumGrid, "
                                f"not a {type(self.grid).__name__}")
        v = np.asarray(self.values)
        n = self.grid.n
        if v.shape != (n, n):
            raise ShapeError(f"kernel values {v.shape} do not match grid of {n} nodes")
        if not np.all(np.isfinite(v)):
            raise ContractError("kernel contains non-finite entries")
        if self.symmetry not in ("symmetric", "general"):
            raise ContractError(f"unknown symmetry flag {self.symmetry!r}")
        if self.symmetry == "symmetric":
            scale = np.max(np.abs(v))
            if scale > 0 and np.max(np.abs(v - v.T)) > SYMMETRY_TOL * scale:
                raise ContractError("kernel declared symmetric is not")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.grid.n


def require_on_grid(V, grid: MomentumGrid) -> None:
    """Raise ContractError unless V is a Kernel whose samples live on grid.

    The kernel's grid must be grid itself or one with equal nodes,
    weights, gauss_x, cutoff and map_scale: a grid of the same size built
    with another map or cutoff is a different quadrature, and a kernel
    read on it gives wrong numbers rather than an error.
    """
    if not isinstance(V, Kernel):
        raise ContractError(f"need a momentum-space Kernel, not a {type(V).__name__}")
    own = V.grid
    if own is grid:
        return
    if not (isinstance(grid, MomentumGrid) and own.cutoff == grid.cutoff
            and own.map_scale == grid.map_scale
            and all(np.array_equal(getattr(own, a), getattr(grid, a))
                    for a in ("nodes", "weights", "gauss_x"))):
        raise ContractError("kernel does not live on the supplied grid")


def _gauss_formula(lam: float, b: float):
    """Closed form of the Gaussian kernel as a broadcastable function.

    The subtractive form

        4 pi lam (b sqrt(pi))^3 [exp(-(k-k')^2 b^2/4) - exp(-(k+k')^2 b^2/4)] / (k k' b^2)

    is evaluated with a 2-term series once z = k k' b^2 drops below 1e-6,
    where the subtraction turns into 0/0.  Both branches agree to 1e-12
    in the overlap region.
    """
    pref = 4.0 * np.pi * lam * (b * np.sqrt(np.pi)) ** 3

    def formula(kp, k):
        kpc = np.asarray(kp, dtype=float)[..., None]
        kc = np.asarray(k, dtype=float)
        z = kpc * kc * b * b
        small = z < 1e-6
        zsafe = np.where(small, 1.0, z)
        direct = (np.exp(-((kpc - kc) ** 2) * b * b / 4.0)
                  - np.exp(-((kpc + kc) ** 2) * b * b / 4.0)) / zsafe
        series = np.exp(-(kpc * kpc + kc * kc) * b * b / 4.0) * (1.0 + z * z / 24.0)
        return pref * np.where(small, series, direct)

    return formula


def gaussian_momentum_kernel(lam: float, b: float, grid: MomentumGrid) -> Kernel:
    """Momentum-space kernel of the local Gaussian potential lam exp(-r^2/b^2).

    Parameters
    ----------
    lam : float
        Strength in fm^-2; negative values are attractive.
    b : float
        Range in fm, must be positive.
    grid : MomentumGrid

    Returns
    -------
    Kernel
        Symmetric momentum-space kernel with an analytic row evaluator.
        The k, k' -> 0 limit is 4 pi lam (b sqrt(pi))^3.
    """
    if b <= 0:
        raise ContractError(f"need b > 0, got {b}")
    f = _gauss_formula(lam, b)
    k = grid.nodes
    return Kernel(grid=grid, values=f(k, k), symmetry="symmetric", evaluate=f)


def local_to_momentum(v_r: np.ndarray, rgrid: RadialGrid, kgrid: MomentumGrid) -> Kernel:
    """Double spherical-Bessel transform of a local radial potential.

    Computes <k'|V|k> = 4 pi integral 4 pi r^2 dr j0(k'r) V(r) j0(kr) on
    the radial quadrature rule; the extra 4 pi pairs the kernel with the
    k^2 dk/(2 pi)^3 momentum measure so that diagonalizing it reproduces
    the radial equation.  The same quadrature serves as the row
    evaluator, so scattering solves on the result never interpolate.

    Parameters
    ----------
    v_r : ndarray
        Potential samples on rgrid.nodes, fm^-2.
    rgrid : RadialGrid
    kgrid : MomentumGrid
    """
    v_r = np.asarray(v_r, dtype=float)
    if v_r.shape != rgrid.nodes.shape:
        raise ShapeError("potential samples do not match the radial grid")
    r = rgrid.nodes
    core = (4.0 * np.pi) ** 2 * rgrid.weights * r * r * v_r

    def bessel_rows(q):
        return np.sinc(np.multiply.outer(q, r) / np.pi)

    def evaluate(q, kk):
        return (core * bessel_rows(q)) @ bessel_rows(kk).T

    values = evaluate(kgrid.nodes, kgrid.nodes)
    values = 0.5 * (values + values.T)
    return Kernel(grid=kgrid, values=values, symmetry="symmetric", evaluate=evaluate)


def rank_one_update(base: Kernel, left: np.ndarray, right: np.ndarray,
                    coefficient: float, left_fn=None, right_fn=None) -> Kernel:
    """base + coefficient * |left><right| as a new kernel.

    Parameters
    ----------
    base : Kernel
    left, right : ndarray
        Function samples on the base grid.
    coefficient : float
        fm^-2 strength multiplying the outer product.
    left_fn, right_fn : callable, optional
        Off-grid evaluators of the factors: fn(q) -> a float for a
        scalar momentum q, an array of q's shape for an array q.  When
        both are supplied and the base kernel has a row evaluator, the
        result keeps one too.

    Notes
    -----
    The result is flagged symmetric only when the base is symmetric and
    left and right are the same samples; otherwise the update breaks
    symmetry and the flag says so.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    n = base.n
    if left.shape != (n,) or right.shape != (n,):
        raise ShapeError("factor samples do not match the kernel grid")
    if coefficient == 0.0:
        return base
    values = base.values + coefficient * np.outer(left, right)
    same = left is right or np.array_equal(left, right)
    symmetry = "symmetric" if (base.symmetry == "symmetric" and same) else "general"

    evaluate = None
    if base.evaluate is not None and left_fn is not None and right_fn is not None:
        base_eval = base.evaluate

        def evaluate(q, kk):
            return base_eval(q, kk) + np.multiply.outer(coefficient * left_fn(q),
                                                        right_fn(kk))

    return Kernel(grid=base.grid, values=values, symmetry=symmetry, evaluate=evaluate)
