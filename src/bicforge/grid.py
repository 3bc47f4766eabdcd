"""Quadrature grids and inner products for momentum- and coordinate-space integrals.

All momentum integrals in this package are of the form

    integral k^2 dk / (2 pi)^3  f(k)   over (0, cutoff),

discretized by Gauss-Legendre quadrature pushed through a rational map
that clusters nodes near the physical momentum scale.  The ``measure``
array of a grid already contains the k^2/(2 pi)^3 factor, so downstream
code contracts sampled functions with ``grid.measure`` and never
re-applies it.

Radial integrals use the plain r^2 dr measure on (0, r_max).

Units are fixed to hbar = 2m = 1: momenta in fm^-1, lengths in fm,
energies in fm^-2.  The conversion 1 fm^-2 = 41.47 MeV is exposed as a
reporting constant only; no computation depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ShapeError

TWO_PI_CUBED = (2.0 * np.pi) ** 3
MEV_PER_FM2 = 41.47


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _map_constant(map_scale, cutoff):
    """D = 1 + 2 c / Lambda of the rational map k = c (1 + x) / (D - x)."""
    return 1.0 + 2.0 * map_scale / cutoff


def _map_jacobian(x, map_scale, cutoff):
    """dk/dx = c (D + 1) / (D - x)^2 of the rational map."""
    d = _map_constant(map_scale, cutoff)
    return map_scale * (d + 1.0) / (d - x) ** 2


@lru_cache(maxsize=16)
def _bary_weights(n: int) -> np.ndarray:
    """Barycentric weights of the n Gauss-Legendre points (Berrut & Trefethen)."""
    x, glw = np.polynomial.legendre.leggauss(n)
    return ((-1.0) ** np.arange(n)) * np.sqrt((1.0 - x * x) * glw)


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """Quadrature rule for semi-infinite momentum integrals truncated at a cutoff.

    Parameters
    ----------
    nodes : ndarray
        Strictly increasing momenta k_i in (0, cutoff), fm^-1.
    weights : ndarray
        Mapped Gauss-Legendre weights (Jacobian included), fm^-1.
    cutoff : float
        Upper integration limit Lambda, fm^-1.
    map_scale : float
        Scale c of the rational map; roughly half the nodes fall below it.

    Attributes
    ----------
    measure : ndarray
        w_i k_i^2 / (2 pi)^3, the full discrete measure.
    gauss_x : ndarray
        The underlying Gauss-Legendre abscissas in (-1, 1).  Kept because
        interpolation in the map variable x is far better conditioned
        than in k.
    """

    nodes: np.ndarray
    weights: np.ndarray
    cutoff: float
    map_scale: float
    gauss_x: np.ndarray
    measure: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "gauss_x", _readonly(self.gauss_x))
        k, w = self.nodes, self.weights
        if k.ndim != 1 or k.shape != w.shape:
            raise ShapeError("nodes and weights must be matching 1-d arrays")
        if not (np.all(np.diff(k) > 0) and k[0] > 0 and k[-1] < self.cutoff):
            raise ConfigurationError("nodes must increase strictly inside (0, cutoff)")
        if not np.all(w > 0):
            raise ConfigurationError("weights must be positive")
        object.__setattr__(self, "measure", _readonly(w * k * k / TWO_PI_CUBED))

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def map_jacobian(self) -> np.ndarray:
        """dk/dx at the nodes, the weights' Jacobian without the Gauss weights."""
        return _map_jacobian(self.gauss_x, self.map_scale, self.cutoff)

    def map_x(self, k):
        """Map variable x in (-1, 1) of momentum k, elementwise."""
        d = _map_constant(self.map_scale, self.cutoff)
        return (d * k - self.map_scale) / (k + self.map_scale)

    def interpolation_matrix(self, qs) -> np.ndarray:
        """C of shape qs.shape + (n,) with f(qs) ~ C @ f(nodes): barycentric in x.

        Interpolating in the map variable keeps the scheme spectrally
        accurate for smooth kernels (Berrut & Trefethen, SIAM Rev. 46
        (2004) 501).  A momentum on a node (to 1e-14 in x) gets its unit row.
        """
        diff = self.map_x(np.asarray(qs, dtype=float))[..., None] - self.gauss_x
        hit = np.abs(diff) < 1e-14
        on_node = np.any(hit, axis=-1, keepdims=True)
        safe = np.where(on_node, 1.0, diff)
        c = np.where(on_node, hit, _bary_weights(self.n) / safe)
        return c / np.sum(c, axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Gauss-Legendre rule for integral r^2 dr on (0, r_max)."""

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float
    measure: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        object.__setattr__(self, "weights", _readonly(self.weights))
        r, w = self.nodes, self.weights
        if r.ndim != 1 or r.shape != w.shape:
            raise ShapeError("nodes and weights must be matching 1-d arrays")
        if not (np.all(np.diff(r) > 0) and r[0] > 0 and r[-1] < self.r_max):
            raise ConfigurationError("nodes must increase strictly inside (0, r_max)")
        if not np.all(w > 0):
            raise ConfigurationError("weights must be positive")
        object.__setattr__(self, "measure", _readonly(w * r * r))

    @property
    def n(self) -> int:
        return self.nodes.size


def build_momentum_grid(n: int, map_scale: float = 2.0, cutoff: float = 40.0) -> MomentumGrid:
    """Build the mapped Gauss-Legendre momentum grid.

    The Gauss-Legendre abscissas x in (-1, 1) are sent to

        k = c (1 + x) / (D - x),    D = 1 + 2 c / Lambda,

    which is the standard k = c(1+x)/(1-x) map renormalized so that
    x = 1 lands exactly on the cutoff.  Weights carry the Jacobian
    c (D + 1) / (D - x)^2.

    Parameters
    ----------
    n : int
        Number of quadrature nodes, at least 8.
    map_scale : float
        Map scale c in fm^-1; about half the nodes fall below it.
    cutoff : float
        Truncation momentum Lambda in fm^-1, must exceed map_scale.

    Returns
    -------
    MomentumGrid
    """
    if n < 8:
        raise ConfigurationError(f"need n >= 8 nodes, got {n}")
    if not (0.0 < map_scale < cutoff):
        raise ConfigurationError(
            f"need 0 < map_scale < cutoff, got map_scale={map_scale}, cutoff={cutoff}"
        )
    x, gw = np.polynomial.legendre.leggauss(n)
    d = _map_constant(map_scale, cutoff)
    k = map_scale * (1.0 + x) / (d - x)
    jac = _map_jacobian(x, map_scale, cutoff)
    return MomentumGrid(nodes=k, weights=gw * jac, cutoff=float(cutoff),
                        map_scale=float(map_scale), gauss_x=x)


def build_radial_grid(n: int, r_max: float) -> RadialGrid:
    """Gauss-Legendre nodes and weights on (0, r_max).

    Parameters
    ----------
    n : int
        Number of nodes, at least 8.
    r_max : float
        Upper limit in fm.
    """
    if n < 8:
        raise ConfigurationError(f"need n >= 8 nodes, got {n}")
    if r_max <= 0:
        raise ConfigurationError(f"need r_max > 0, got {r_max}")
    x, gw = np.polynomial.legendre.leggauss(n)
    r = 0.5 * r_max * (x + 1.0)
    return RadialGrid(nodes=r, weights=0.5 * r_max * gw, r_max=float(r_max))


def inner_product(f, g, grid) -> float:
    """Discrete inner product sum_i measure_i f_i g_i on either grid type.

    Symmetric and bilinear; complex inputs are contracted without
    conjugation, matching the real standing-wave conventions used
    throughout.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape or f.shape != grid.nodes.shape:
        raise ShapeError(
            f"sample shapes {f.shape}, {g.shape} do not match grid of {grid.n} nodes"
        )
    return np.sum(grid.measure * f * g)
