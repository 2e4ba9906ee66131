"""Complex arithmetic on whole probe-detuning grids, bit-identical to scalars.

NumPy's complex128 multiply and divide, and ``np.abs`` of a complex
array, round differently from CPython's ``complex`` type in the last
place, and sweep output prints every bit (JSON) or 12 digits that a
last-place change can flip (CSV).  :class:`ComplexGrid` therefore keeps
the real and imaginary parts as separate float64 arrays and spells each
operation the way CPython 3.10-3.13 evaluates it on a scalar:

* a real operand, a float or a float64 array, is promoted to
  ``complex(x, 0.0)`` first (:func:`promote` does so explicitly, for a
  Python ``complex`` times a real array, which NumPy would evaluate);
* ``a * b`` is ``_Py_c_prod``: ``(ar*br - ai*bi, ar*bi + ai*br)``;
* ``a / b`` is ``_Py_c_quot``, Smith's division: scale by the larger of
  ``|b.real|`` and ``|b.imag|`` and divide by the resulting denominator;
* ``abs(z)`` is ``hypot(re, im)`` and ``exp`` is ``np.exp`` on complex128,
  both of which match ``abs`` and ``cmath.exp`` bit for bit.

Float64 ``+ - * /`` are IEEE operations in both worlds, so an expression
written once over Python numbers evaluates to the same bits when one of
its operands is a ``ComplexGrid``.  Results are exact only where they
are finite: a division by zero gives nan or inf here and raises
``ZeroDivisionError`` on a scalar, so callers check for nonfinite values.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["ComplexGrid", "detuning_axis", "promote"]


class ComplexGrid:
    """Complex values on a grid as separate float64 real and imaginary arrays."""

    __slots__ = ("re", "im")

    # An ndarray operand defers to the reflected method here instead of
    # treating the grid as an object scalar.
    __array_ufunc__ = None

    def __init__(self, re: np.ndarray, im: np.ndarray):
        self.re = re
        self.im = im

    @classmethod
    def from_numpy(cls, z: np.ndarray) -> "ComplexGrid":
        return cls(z.real, z.imag)

    def to_numpy(self) -> np.ndarray:
        z = np.empty(np.shape(self.re), dtype=complex)
        z.real = self.re
        z.imag = self.im
        return z

    def __getitem__(self, index) -> "ComplexGrid":
        return ComplexGrid(self.re[index], self.im[index])

    @staticmethod
    def _parts(x) -> tuple:
        if isinstance(x, ComplexGrid):
            return x.re, x.im
        if isinstance(x, np.ndarray):
            return x, 0.0
        x = complex(x)
        return x.real, x.imag

    def __neg__(self) -> "ComplexGrid":
        return ComplexGrid(-self.re, -self.im)

    def conjugate(self) -> "ComplexGrid":
        return ComplexGrid(self.re, -self.im)

    def __add__(self, other) -> "ComplexGrid":
        b_re, b_im = self._parts(other)
        return ComplexGrid(self.re + b_re, self.im + b_im)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexGrid":
        b_re, b_im = self._parts(other)
        return ComplexGrid(self.re - b_re, self.im - b_im)

    def __mul__(self, other) -> "ComplexGrid":
        b_re, b_im = self._parts(other)
        return ComplexGrid(self.re * b_re - self.im * b_im,
                           self.re * b_im + self.im * b_re)

    # _Py_c_prod gives the same bits with its operands swapped.
    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexGrid":
        # Arrays even for a scalar divisor: np.where evaluates both
        # branches, and the one not taken may divide by zero.
        b_re, b_im = np.broadcast_arrays(*self._parts(other))
        a_re, a_im = self.re, self.im
        by_real = np.abs(b_re) >= np.abs(b_im)
        with np.errstate(all="ignore"):
            ratio = np.where(by_real, b_im / b_re, b_re / b_im)
            denom = np.where(by_real, b_re + b_im * ratio, b_re * ratio + b_im)
            re = np.where(by_real, a_re + a_im * ratio, a_re * ratio + a_im) / denom
            im = np.where(by_real, a_im - a_re * ratio, a_im * ratio - a_re) / denom
        return ComplexGrid(re, im)

    def __abs__(self) -> np.ndarray:
        return np.hypot(self.re, self.im)

    def exp(self) -> "ComplexGrid":
        return ComplexGrid.from_numpy(np.exp(self.to_numpy()))


def promote(x):
    """``x`` as CPython promotes a real operand of complex arithmetic.

    ``complex(x, 0.0)`` for a number, and a ComplexGrid with zero
    imaginary part for a real array, so ``1j * promote(x)`` evaluates
    the same operations on either.
    """
    if isinstance(x, np.ndarray):
        return ComplexGrid(x, np.zeros_like(x))
    return complex(x)


def detuning_axis(deltas) -> ComplexGrid:
    """Probe detunings as a ComplexGrid with zero imaginary part.

    Raises
    ------
    ParameterError
        If the grid is empty, not one-dimensional or holds a nonfinite value.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ParameterError(f"delta grid must be a nonempty 1-d array, got shape {deltas.shape}")
    if not np.isfinite(deltas).all():
        raise ParameterError(f"nonfinite delta in grid: {deltas[~np.isfinite(deltas)][0]!r}")
    return ComplexGrid(deltas, np.zeros_like(deltas))
