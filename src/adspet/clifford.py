"""Exact complex 4x4 Clifford algebra for the (4+1)-dimensional AdS frame.

The five generators act on 4-component complex spinors.  All entries are
Gaussian integers (0, +-1, +-i), so products and anticommutators of the
generators are exact in complex floating point and can be tested with zero
tolerance.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ETA", "gamma"]

# Signature of the frame metric: eta = diag(-1, 1, 1, 1, 1), index 0 timelike.
ETA = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])

_I2 = np.eye(2, dtype=complex)
# Quaternion units in their 2x2 complex realization.
_QI = np.array([[1j, 0], [0, -1j]])
_QJ = np.array([[0, 1], [-1, 0]], dtype=complex)
_QK = np.array([[0, 1j], [1j, 0]])


def _block(tl, tr, bl, br):
    return np.block([[tl, tr], [bl, br]])


_Z2 = np.zeros((2, 2), dtype=complex)

_GAMMA = (
    _block(_I2, _Z2, _Z2, -_I2),   # gamma_0: block-diag(I, -I)
    _block(_Z2, _I2, -_I2, _Z2),   # gamma_1
    _block(_Z2, _QI, _QI, _Z2),    # gamma_2
    _block(_Z2, _QJ, _QJ, _Z2),    # gamma_3
    _block(_Z2, _QK, _QK, _Z2),    # gamma_4
)
for _g in _GAMMA:
    _g.setflags(write=False)


def gamma(alpha: int) -> np.ndarray:
    """Return the 4x4 generator for frame index alpha in {0,...,4}.

    The returned array is read-only; copy before mutating.
    """
    if not isinstance(alpha, (int, np.integer)) or not 0 <= alpha <= 4:
        raise IndexError(f"frame index must be in 0..4, got {alpha!r}")
    return _GAMMA[alpha]
