"""Bitwise equivalence of the grid's posterior kernel with the code it replaced.

``Grid.gaussian_posterior``/``gaussian_posteriors`` now share one row
kernel (separable squared distance, ``exp`` skipped where it underflows)
and ``Grid.expected_point`` accumulates with ``cumsum``.  Each is compared
with ``np.array_equal``/``==`` against a reference copy of the previous
implementation, kept here operation for operation.
``TestNumpyAssumptions`` pins the numpy behaviours the kernel's exactness
rests on, so a numpy upgrade that breaks one fails a named test rather
than only a golden walk hash.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Grid, Point
from repro.geometry.grid import EXP_UNDERFLOW

# -- reference copies of the previous implementation -------------------------


def ref_gaussian_posterior(grid: Grid, mean: Point, sigma: float) -> np.ndarray:
    sigma = max(sigma, grid.cell_size / 2.0)
    d2 = np.sum((grid.centers() - [mean.x, mean.y]) ** 2, axis=1)
    log_p = -d2 / (2.0 * sigma * sigma)
    log_p -= log_p.max()
    p = np.exp(log_p)
    return p / p.sum()


def ref_gaussian_posteriors(
    grid: Grid, means: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    sigma = np.maximum(sigmas, grid.cell_size / 2.0)
    out = np.empty((means.shape[0], grid.n_cells))
    for lo in range(0, means.shape[0], 256):
        hi = lo + 256
        diff = grid.centers()[None, :, :] - means[lo:hi, None, :]
        d2 = np.sum(diff**2, axis=2)
        log_p = -d2 / (2.0 * sigma[lo:hi] * sigma[lo:hi])[:, None]
        log_p -= log_p.max(axis=1, keepdims=True)
        p = np.exp(log_p)
        out[lo:hi] = p / p.sum(axis=1, keepdims=True)
    return out


def ref_histogram_posterior(
    grid: Grid, points: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if weights is None:
        weights = np.ones(points.shape[0])
    weights = np.asarray(weights, dtype=float)
    nx, ny = grid.shape[1], grid.shape[0]
    cols = (points[:, 0] - grid.min_x) // grid.cell_size
    rows = (points[:, 1] - grid.min_y) // grid.cell_size
    cols = np.clip(cols.astype(int), 0, nx - 1)
    rows = np.clip(rows.astype(int), 0, ny - 1)
    idx = rows * nx + cols
    hist = np.bincount(idx, weights=weights, minlength=grid.n_cells).astype(float)
    total = hist.sum()
    if total <= 0.0:
        return np.full(grid.n_cells, 1.0 / grid.n_cells)
    hist /= total
    floor = 1e-9
    hist = hist + floor
    return hist / hist.sum()


def ref_expected_point(grid: Grid, posterior: np.ndarray) -> Point:
    posterior = np.asarray(posterior, dtype=float)
    total = posterior.sum()
    mean = (grid.centers() * posterior[:, None]).sum(axis=0) / total
    return Point(float(mean[0]), float(mean[1]))


# -- strategies --------------------------------------------------------------


@st.composite
def grids(draw) -> Grid:
    """Grids with fractional extents, including one-cell axes."""
    cell = draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0]))
    min_x = draw(st.floats(-60.0, 60.0))
    min_y = draw(st.floats(-60.0, 60.0))
    # Widths below a cell give a one-cell axis.
    width = draw(st.floats(0.3, 40.0))
    height = draw(st.floats(0.3, 40.0))
    return Grid(min_x, min_y, min_x + width, min_y + height, cell_size=cell)


@st.composite
def means_for(draw, grid: Grid) -> tuple[float, float]:
    """A mean inside, just outside or far outside the grid's box."""
    where = draw(st.sampled_from(["inside", "outside", "far"]))
    span_x = grid.max_x - grid.min_x
    span_y = grid.max_y - grid.min_y
    if where == "inside":
        fx, fy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    elif where == "outside":
        fx, fy = draw(st.floats(-3.0, 4.0)), draw(st.floats(-3.0, 4.0))
    else:
        fx, fy = draw(st.floats(-500.0, 500.0)), draw(st.floats(-500.0, 500.0))
    return grid.min_x + fx * span_x, grid.min_y + fy * span_y


def sigmas_for(grid: Grid) -> st.SearchStrategy[float]:
    """Sigmas at or below the half-cell floor, moderate, and large."""
    return st.one_of(
        st.sampled_from([0.0, grid.cell_size / 2.0, 1e3, 1e6]),
        st.floats(0.0, grid.cell_size / 2.0),
        st.floats(grid.cell_size / 2.0, 60.0),
    )


# -- tests -------------------------------------------------------------------


class TestGaussianPosterior:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_scalar_is_bitwise_identical_to_reference(self, data) -> None:
        grid = data.draw(grids())
        x, y = data.draw(means_for(grid))
        sigma = data.draw(sigmas_for(grid))
        expected = ref_gaussian_posterior(grid, Point(x, y), sigma)
        actual = grid.gaussian_posterior(Point(x, y), sigma)
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_rows=st.sampled_from([1, 2, 33, 300]))
    def test_batched_is_bitwise_identical_to_reference_and_scalar(
        self, data, n_rows
    ) -> None:
        grid = data.draw(grids())
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        pool = [data.draw(means_for(grid)) for _ in range(4)]
        means = np.array([pool[i] for i in rng.integers(0, 4, n_rows)])
        means += rng.normal(0.0, grid.cell_size, means.shape)
        sigmas = rng.choice(
            [0.0, grid.cell_size / 2.0, 1.5, 6.0, 30.0, 1e3], size=n_rows
        )
        actual = grid.gaussian_posteriors(means, sigmas)
        assert np.array_equal(actual, ref_gaussian_posteriors(grid, means, sigmas))
        for k in range(0, n_rows, 37):
            scalar = grid.gaussian_posterior(
                Point(float(means[k, 0]), float(means[k, 1])), float(sigmas[k])
            )
            assert np.array_equal(actual[k], scalar)

    def test_campus_sized_rows(self) -> None:
        grid = Grid(0.0, 0.0, 688.0, 624.0, cell_size=4.0)
        rng = np.random.default_rng(7)
        means = rng.uniform(-100.0, 800.0, size=(20, 2))
        sigmas = rng.uniform(1.0, 40.0, size=20)
        actual = grid.gaussian_posteriors(means, sigmas)
        assert np.array_equal(actual, ref_gaussian_posteriors(grid, means, sigmas))

    @pytest.mark.parametrize("ny", [1, 5])
    def test_row_where_all_cells_but_one_underflow(self, ny) -> None:
        grid = Grid(0.0, 0.0, 40.0, 2.0 * ny, cell_size=2.0)
        # Far beyond the lower-left corner at the sigma floor: the corner
        # cell keeps all the mass and every other cell underflows.
        mean = Point(-1000.0, -1000.0 if ny > 1 else 1.0)
        sigma = grid.cell_size / 2.0
        expected = ref_gaussian_posterior(grid, mean, sigma)
        actual = grid.gaussian_posterior(mean, sigma)
        assert np.count_nonzero(expected) == 1
        assert np.array_equal(actual, expected)
        batched = grid.gaussian_posteriors(
            np.array([[mean.x, mean.y]] * 3), np.array([sigma] * 3)
        )
        assert np.array_equal(batched, np.array([expected] * 3))


class TestHistogramPosterior:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_points=st.sampled_from([1, 5, 300]))
    def test_bitwise_identical_to_reference(self, data, n_points) -> None:
        grid = data.draw(grids())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x, y = data.draw(means_for(grid))
        points = rng.normal([x, y], grid.cell_size * 3.0, size=(n_points, 2))
        weights = data.draw(st.sampled_from([None, "random", "zero"]))
        if weights == "random":
            weights = rng.uniform(0.0, 1.0, n_points)
        elif weights == "zero":
            weights = np.zeros(n_points)
        expected = ref_histogram_posterior(grid, points, weights)
        assert np.array_equal(grid.histogram_posterior(points, weights), expected)


class TestExpectedPoint:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bitwise_identical_to_reference(self, data) -> None:
        grid = data.draw(grids())
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        shape = data.draw(st.sampled_from(["dirichlet", "gaussian", "sparse"]))
        if shape == "dirichlet":
            posterior = rng.dirichlet(np.ones(grid.n_cells))
        elif shape == "gaussian":
            x, y = data.draw(means_for(grid))
            sigma = data.draw(sigmas_for(grid))
            posterior = grid.gaussian_posterior(Point(x, y), sigma)
        else:
            posterior = np.zeros(grid.n_cells)
            hit = rng.integers(0, grid.n_cells, size=3)
            posterior[hit] = rng.uniform(0.0, 5.0, size=3) + 1e-3
        assert grid.expected_point(posterior) == ref_expected_point(grid, posterior)

    def test_campus_sized_posteriors(self) -> None:
        grid = Grid(0.0, 0.0, 688.0, 624.0, cell_size=4.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            posterior = rng.dirichlet(np.ones(grid.n_cells) * 0.1)
            assert grid.expected_point(posterior) == ref_expected_point(grid, posterior)


class TestNumpyAssumptions:
    """The numpy behaviours the grid kernel's bit-exactness relies on."""

    def test_exp_below_the_underflow_cutoff_is_exactly_zero(self) -> None:
        below = np.concatenate(
            [
                np.nextafter(EXP_UNDERFLOW, -np.inf) - np.linspace(0.0, 5.0, 1001),
                [-800.0, -1e4, -1e300, -np.inf],
            ]
        )
        assert np.all(np.exp(below) == 0.0)
        for value in below[:50]:
            assert np.exp(np.float64(value)) == 0.0

    def test_exp_of_a_masked_subset_equals_exp_of_the_full_row(self) -> None:
        rng = np.random.default_rng(3)
        row = np.concatenate(
            [
                rng.uniform(-760.0, 0.0, 5000),
                rng.uniform(-746.0, -700.0, 2000),
                [0.0, -0.0, EXP_UNDERFLOW, -745.2, -745.1, -708.4, -708.3],
            ]
        )
        rng.shuffle(row)
        full = np.exp(row)
        underflow = row < EXP_UNDERFLOW
        masked = np.where(underflow, 0.0, row)
        np.exp(masked, out=masked)
        np.copyto(masked, 0.0, where=underflow)
        assert np.array_equal(masked, full)
        # Also when the row is one of several in a C-contiguous block.  (A
        # reversed view can take a different exp loop whose results near
        # -700 differ in the last bit, so the kernel keeps exp on
        # forward-contiguous rows, as the code it replaced did.)
        reversed_row = np.ascontiguousarray(row[::-1])
        block = np.stack([row, reversed_row, row])
        assert np.array_equal(np.exp(block)[1], np.exp(reversed_row))

    def test_axis0_sum_of_n_by_2_is_sequential_accumulation(self) -> None:
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 26832):
            scale = rng.uniform(0.0, 1e3, (n, 1))
            pairs = rng.uniform(-1.0, 1.0, size=(n, 2)) * scale
            reduced = pairs.sum(axis=0)
            for column in (0, 1):
                values = np.ascontiguousarray(pairs[:, column])
                sequential = 0.0
                for value in values.tolist():
                    sequential += value
                assert reduced[column] == sequential
                assert reduced[column] == np.cumsum(values)[-1]

    def test_row_sum_of_a_block_equals_the_one_dimensional_sum(self) -> None:
        rng = np.random.default_rng(9)
        for n in (1, 7, 9, 128, 129, 5000, 26832):
            block = rng.exponential(size=(3, n))
            sums = block.sum(axis=1, keepdims=True)
            for k in range(3):
                assert sums[k, 0] == block[k].sum()
                assert sums[k, 0] == block[k : k + 1].sum(axis=1)[0]
