"""Fixtures shared by more than one test module."""

import math

import numpy as np
import pytest

from curvfun.geometry import MetricField
from curvfun.quadrature import Axis, Grid


@pytest.fixture
def singular_product():
    """``(metric, grid)``: diag(x1, 1) times a flat plane, not positive definite at x1 < 0.

    The grid's x1 nodes are -1 and 1, so the first node in C order fails.
    """
    def entries(v):
        return [[v[0], 0], [0, 1]]

    metric = MetricField.block_diagonal(MetricField.from_entries(2, entries),
                                        MetricField.constant(np.eye(2)))
    grid = Grid((Axis(-2.0, 2.0, 2, periodic=True), Axis(-0.5, 0.5, 1, periodic=True),
                 Axis(0.5, 2.5, 2), Axis(0.0, 2 * math.pi, 2, periodic=True)))
    return metric, grid
