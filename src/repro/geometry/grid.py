"""Regular grids over a bounding box.

UniLoc2's locally-weighted Bayesian Model Averaging (paper Eq. 3-4) treats
a place as ``I`` discrete locations ``l_1 .. l_I``.  :class:`Grid` provides
that discretization: every scheme's output is rasterized into a posterior
over grid cells, and the BMA engine mixes those posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from repro.geometry.point import Point
from repro.shapes import Shape

#: ``np.exp`` is exactly 0.0 below this; float64 ``exp`` underflows near
#: -745.13, and the margin keeps the cut below every rounding of it.
#: Cells under it are zeroed without evaluating ``exp``, which is an order
#: of magnitude slower on underflowing inputs than on normal ones.
EXP_UNDERFLOW = -746.0

#: Posterior rows rasterized per pass; bounds the ``(chunk, I)`` working
#: block at city-scale populations.
_ROW_CHUNK = 256


@dataclass(frozen=True)
class Grid:
    """A regular 2-D grid of cell centers covering a bounding box.

    Attributes:
        min_x, min_y: lower-left corner of the covered area.
        max_x, max_y: upper-right corner of the covered area.
        cell_size: edge length of each square cell, in meters.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    cell_size: float
    _centers: np.ndarray = field(init=False, repr=False, compare=False)
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)
    _cx: np.ndarray = field(init=False, repr=False, compare=False)
    _cy: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        if self.max_x <= self.min_x or self.max_y <= self.min_y:
            raise ValueError("grid bounding box must have positive extent")
        xs = np.arange(self.min_x + self.cell_size / 2.0, self.max_x, self.cell_size)
        ys = np.arange(self.min_y + self.cell_size / 2.0, self.max_y, self.cell_size)
        if xs.size == 0:
            xs = np.array([(self.min_x + self.max_x) / 2.0])
        if ys.size == 0:
            ys = np.array([(self.min_y + self.max_y) / 2.0])
        gx, gy = np.meshgrid(xs, ys)
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        # Per-axis centres for the separable squared distance, and the
        # centre coordinates as contiguous columns for Eq. 4.
        for name, array in (
            ("_centers", centers),
            ("_xs", xs),
            ("_ys", ys),
            ("_cx", np.ascontiguousarray(centers[:, 0])),
            ("_cy", np.ascontiguousarray(centers[:, 1])),
        ):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_nx", xs.size)
        object.__setattr__(self, "_ny", ys.size)

    @property
    def n_cells(self) -> int:
        """Return the number of grid cells ``I``."""
        return int(self._centers.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        """Return ``(ny, nx)`` — rows by columns."""
        return (self._ny, self._nx)  # type: ignore[attr-defined]

    def centers(self) -> np.ndarray:
        """Return an ``(I, 2)`` array of cell-center coordinates."""
        return self._centers

    def index_of(self, point: Point) -> int:
        """Return the index of the cell containing ``point``.

        Points outside the bounding box are clamped to the nearest border
        cell, which keeps noisy scheme outputs usable instead of erroring.
        """
        nx: int = self._nx  # type: ignore[attr-defined]
        ny: int = self._ny  # type: ignore[attr-defined]
        col = int((point.x - self.min_x) // self.cell_size)
        row = int((point.y - self.min_y) // self.cell_size)
        col = min(nx - 1, max(0, col))
        row = min(ny - 1, max(0, row))
        return row * nx + col

    def center_of(self, index: int) -> Point:
        """Return the center of cell ``index``.

        Raises:
            IndexError: for an out-of-range index.
        """
        if not 0 <= index < self.n_cells:
            raise IndexError(f"cell index {index} out of range 0..{self.n_cells - 1}")
        x, y = self._centers[index]
        return Point(float(x), float(y))

    def gaussian_posterior(self, mean: Point, sigma: float) -> np.ndarray:
        """Rasterize an isotropic Gaussian into a normalized cell posterior.

        This is how point-estimate schemes (GPS and the fingerprinting
        schemes' top match) are converted into the ``P(l = l_i | M_n, s_t)``
        terms of paper Eq. 3.  ``sigma`` is floored at half a cell so the
        posterior never degenerates to a single spike narrower than the
        grid resolution.
        """
        out = np.empty((1, self.n_cells))
        self._gaussian_rows(
            np.array([[mean.x, mean.y]], dtype=float),
            np.array([sigma], dtype=float),
            out,
        )
        return out[0]

    def gaussian_posteriors(
        self,
        means: Annotated[np.ndarray, Shape("(L, 2)")],
        sigmas: Annotated[np.ndarray, Shape("(L,)")],
    ) -> Annotated[np.ndarray, Shape("(L, I)")]:
        """Rasterize ``L`` isotropic Gaussians into one posterior per row.

        The population core's lane-batched twin of
        :meth:`gaussian_posterior`.  Both run the same row kernel, and
        every row depends on its own mean and sigma only, so each row is
        **bit-identical** to the scalar call and the batched BMA pre-pass
        can feed rows straight into the scalar mixture loop without
        perturbing walk results.

        Raises:
            ValueError: on mismatched ``means``/``sigmas`` lengths.
        """
        means = np.asarray(means, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        if means.ndim != 2 or means.shape[1] != 2:
            raise ValueError("means must be an (L, 2) array")
        if sigmas.shape != (means.shape[0],):
            raise ValueError("sigmas must have one entry per mean")
        out = np.empty((means.shape[0], self.n_cells))
        for lo in range(0, means.shape[0], _ROW_CHUNK):
            hi = lo + _ROW_CHUNK
            self._gaussian_rows(means[lo:hi], sigmas[lo:hi], out[lo:hi])
        return out

    def _gaussian_rows(
        self,
        means: Annotated[np.ndarray, Shape("(L, 2)")],
        sigmas: Annotated[np.ndarray, Shape("(L,)")],
        out: Annotated[np.ndarray, Shape("(L, I)")],
    ) -> None:
        """Write the normalized Gaussian posterior of each mean into ``out``.

        The squared distance of cell ``(row, col)`` is ``dx**2[col] +
        dy**2[row]``, the same two addends a per-cell ``(x, y)`` reduce
        adds (addition commutes exactly), negated up front (negation is
        exact).  Each row is shifted by its max and normalized by its own
        pairwise ``sum`` over the full row; cells below
        :data:`EXP_UNDERFLOW` are set to the 0.0 that ``exp`` would give
        them, with ``exp`` only evaluated elsewhere.
        """
        nx: int = self._nx  # type: ignore[attr-defined]
        ny: int = self._ny  # type: ignore[attr-defined]
        rows = means.shape[0]
        sigma = np.maximum(sigmas, self.cell_size / 2.0)
        neg_dx2 = -((self._xs - means[:, 0, None]) ** 2)
        neg_dy2 = -((self._ys - means[:, 1, None]) ** 2)
        np.add(
            neg_dy2[:, :, None], neg_dx2[:, None, :], out=out.reshape(rows, ny, nx)
        )
        out /= (2.0 * sigma * sigma)[:, None]
        out -= out.max(axis=1, keepdims=True)
        underflow = out < EXP_UNDERFLOW
        np.copyto(out, 0.0, where=underflow)
        np.exp(out, out=out)
        np.copyto(out, 0.0, where=underflow)
        out /= out.sum(axis=1, keepdims=True)

    def histogram_posterior(
        self, points: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Rasterize weighted sample points (e.g. particles) into a posterior.

        Args:
            points: ``(n, 2)`` array of sample coordinates.
            weights: optional ``(n,)`` non-negative weights; uniform if None.

        Returns:
            A normalized ``(I,)`` posterior.  A tiny uniform floor is mixed
            in so BMA never multiplies by an exact zero for cells adjacent
            to the particle cloud.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if weights is None:
            weights = np.ones(points.shape[0])
        weights = np.asarray(weights, dtype=float)
        if weights.shape[0] != points.shape[0]:
            raise ValueError("weights length must match points")
        nx: int = self._nx  # type: ignore[attr-defined]
        ny: int = self._ny  # type: ignore[attr-defined]
        cols = np.clip(((points[:, 0] - self.min_x) // self.cell_size).astype(int), 0, nx - 1)
        rows = np.clip(((points[:, 1] - self.min_y) // self.cell_size).astype(int), 0, ny - 1)
        idx = rows * nx + cols
        hist = np.bincount(idx, weights=weights, minlength=self.n_cells).astype(
            float, copy=False
        )
        total = hist.sum()
        if total <= 0.0:
            return np.full(self.n_cells, 1.0 / self.n_cells)
        hist /= total
        hist += 1e-9
        hist /= hist.sum()
        return hist

    def expected_point(self, posterior: np.ndarray) -> Point:
        """Return the posterior-mean location (paper Eq. 4).

        Raises:
            ValueError: if ``posterior`` has the wrong length or zero mass.
        """
        posterior = np.asarray(posterior, dtype=float)
        if posterior.shape[0] != self.n_cells:
            raise ValueError("posterior length must equal the number of cells")
        total = posterior.sum()
        if total <= 0.0:
            raise ValueError("posterior has no probability mass")
        # Sequential accumulation over cells, the order of an axis-0
        # reduce of the ``(I, 2)`` weighted centres.
        sum_x = np.cumsum(self._cx * posterior)[-1]
        sum_y = np.cumsum(self._cy * posterior)[-1]
        return Point(float(sum_x / total), float(sum_y / total))
