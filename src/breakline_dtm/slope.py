"""Slope mapping with a 3x3 Sobel stencil and break-line thresholding.

The two Sobel responses are scaled by 1 / (8 * cell) so they estimate
rise over run; on an inclined plane the recovered slope is exact.  Border
pixels are computed with edge-replication padding, and the outer ring of
the break mask is always stamped true so that objects cut by the data
edge still end up enclosed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadThresholdError, GridTooSmallError
from .raster import Dsm, GridSpec


@dataclass
class SlopeMap:
    """Per-pixel surface slope in degrees, in [0, 90)."""

    grid: GridSpec
    slope_deg: np.ndarray


@dataclass
class BreakMask:
    """Boolean raster of break-line pixels; the outer ring is always true."""

    grid: GridSpec
    is_break: np.ndarray


# Rows of output slope_map and water_mask compute at once, so temporaries
# are strip-sized: 300 KB of float64 at 600 columns.  The rows a strip
# borrows on each side (one for slope_map, window // 2 for water_mask)
# add 3 % and, at the default 9 px window, 12 % to the rows computed.
_STRIP_ROWS = 64


def slope_map(dsm: Dsm) -> SlopeMap:
    """Slope of the surface at every pixel via the Sobel gradient.

    The raster is computed in strips of ``_STRIP_ROWS`` rows.  A strip
    borrows the rows next to it from the DSM and edge-pads only at the
    raster's own top and bottom, so every pixel sees the values and
    operations of a whole-raster pass and gets the same bits.
    """
    nrows, ncols = dsm.grid.shape
    if nrows < 3 or ncols < 3:
        raise GridTooSmallError(
            f"need at least 3x3 cells, got {nrows}x{ncols} at cell size {dsm.grid.cell} m "
            "(--cell); a smaller cell size gives more cells"
        )

    elev = dsm.elev
    scale = 8.0 * dsm.grid.cell
    deg = np.empty(dsm.grid.shape)
    for r0 in range(0, nrows, _STRIP_ROWS):
        r1 = min(r0 + _STRIP_ROWS, nrows)
        p = np.pad(
            elev[max(r0 - 1, 0) : r1 + 1],
            ((int(r0 == 0), int(r1 == nrows)), (1, 1)),
            mode="edge",
        )
        gx = (
            (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:])
            - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
        ) / scale
        gy = (
            (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:])
            - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
        ) / scale
        deg[r0:r1] = np.degrees(np.arctan(np.hypot(gx, gy)))
    return SlopeMap(dsm.grid, deg)


def _check_threshold(tau_deg: float) -> None:
    if not 0.0 < tau_deg < 90.0:
        raise BadThresholdError(f"slope threshold must be in (0, 90), got {tau_deg}")


def break_line_mask(slope: SlopeMap, tau_deg: float) -> BreakMask:
    """Pixels strictly steeper than ``tau_deg``, plus the stamped data edge."""
    _check_threshold(tau_deg)
    mask = slope.slope_deg > tau_deg
    mask[0, :] = True
    mask[-1, :] = True
    mask[:, 0] = True
    mask[:, -1] = True
    return BreakMask(slope.grid, mask)
