"""Gauss-Legendre panel quadrature on time grids along the flow.

Every function takes one time grid per row: a 1-d grid, or a stack of grids
along the leading axes, with the quadrature nodes along the last axis.
"""

from __future__ import annotations

import numpy as np

GL_ORDER = 8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)


def panel_nodes(tgrid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flattened GL nodes and weights for the panels of an increasing grid.

    With ``s, w = panel_nodes(tgrid)``, the integral of f over
    ``[tgrid[0], tgrid[k]]`` is ``(w * f(s))[: k * GL_ORDER].sum()``.
    """
    s, w = interval_nodes(tgrid[..., :-1], tgrid[..., 1:])
    rows = tgrid.shape[:-1] + ((tgrid.shape[-1] - 1) * GL_ORDER,)
    return s.reshape(rows), w.reshape(rows)


def panel_cumulative(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Cumulative integrals at panel boundaries; index 0 holds 0."""
    panels = values.shape[:-1] + (values.shape[-1] // GL_ORDER, GL_ORDER)
    contrib = (values * weights).reshape(panels).sum(axis=-1)
    out = np.empty(contrib.shape[:-1] + (contrib.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(contrib, axis=-1, out=out[..., 1:])
    return out


def interval_nodes(a, b) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes and weights for the intervals [a, b], one row per interval."""
    half = np.asarray(0.5 * (b - a))
    mid = np.asarray(0.5 * (a + b))
    return mid[..., None] + half[..., None] * _GL_X, half[..., None] * _GL_W
