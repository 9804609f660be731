"""Exact complex-rational scalars for building and reading exact matrices.

Float sums of Pauli conjugations leave ~1e-16 residue, which would turn
"advantage is exactly zero" claims into tolerance checks, so enumeration
mode computes exactly.  An exact `DensityMatrix` stores Gaussian-integer
numerators over one common denominator (see `qelab.quantum`), not `QRat`
values.  `QRat` (a Gaussian rational: Fraction real part, Fraction
imaginary part) is the entry type for matrices built or read by hand:
`DensityMatrix` accepts an object matrix of `QRat` entries, and an exact
state's `mat` is a read-only `QRat` matrix.
"""

from __future__ import annotations

from fractions import Fraction


class QRat:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, QRat):
            return value
        if isinstance(value, (int, Fraction)):
            return QRat(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QRat(-self.re, -self.im)

    def conjugate(self):
        return QRat(self.re, -self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QRat({self.re!s}, {self.im!s})"


def as_fraction(value) -> Fraction:
    """Real part of an exact scalar, failing loudly on a residual imaginary part."""
    if isinstance(value, QRat):
        if value.im != 0:
            raise ValueError(f"expected a real scalar, got {value!r}")
        return value.re
    return Fraction(value)
