"""Finite abelian groups as products of cyclic factors, and their characters.

A group is given by its factor list ``[d_1, ..., d_t]`` (each ``d_i >= 2``)
and represents ``Z_{d_1} x ... x Z_{d_t}`` written additively.  At the API
and JSON edges elements and character indices are tuples of residues.  Inside
the pipeline an element is its flat index, the ravel (lexicographic) rank of
its coordinates on the factor grid, so index 0 is the identity; only this
module converts between the two (:meth:`AbelianGroup.indices` and back).
The character indexed by ``a`` sends ``x`` to ``prod_i exp(2*pi*i*a_i*x_i/d_i)``,
and the dual group is indexed exactly like the group itself.

Character sums are the workhorse of everything downstream: the eigenvalues of
a Cayley graph on ``G`` with connection set ``C`` are the values ``chi(C)``
over all characters ``chi``.  Group-ring products (difference counts,
neighbourhoods of vertex sets) are convolutions of indicator arrays on the
same grid, computed through the same DFT by :meth:`AbelianGroup.convolve`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["AbelianGroup", "cyclic"]

# Tolerance factor for "this character sum is real" decisions; the absolute
# tolerance used is IMAG_TOL_PER_TERM * |C|.
IMAG_TOL_PER_TERM = 1e-9

# Fourth roots of unity, exact.
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


class AbelianGroup:
    """``Z_{d_1} x ... x Z_{d_t}``, written additively.

    Elements are tuples of ints with ``0 <= x_i < d_i``; the identity is the
    all-zero tuple.  Instances are immutable and safe to share.
    """

    def __init__(self, factors):
        factors = tuple(int(d) for d in factors)
        if not factors or any(d < 2 for d in factors):
            raise ValueError(f"every factor must be >= 2, got {factors}")
        self.factors = factors
        self.order = math.prod(factors)
        self.zero = (0,) * len(factors)
        # lcm of the factors; phases are multiples of 2*pi/lcm
        self._lcm = reduce(math.lcm, factors)

    # -- basic structure -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"AbelianGroup({list(self.factors)})"

    def __contains__(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == len(self.factors)
            and all(0 <= x < d for x, d in zip(g, self.factors))
        )

    def _check(self, g):
        if len(g) != len(self.factors):
            raise ValueError(
                f"element {g!r} has {len(g)} coordinates, group has {len(self.factors)} factors"
            )
        return g

    def element(self, coords):
        """Reduce an arbitrary integer tuple coordinate-wise into the group."""
        coords = tuple(coords)
        self._check(coords)
        return tuple(x % d for x, d in zip(coords, self.factors))

    def add(self, g, h):
        self._check(g)
        self._check(h)
        return tuple((x + y) % d for x, y, d in zip(g, h, self.factors))

    def sub(self, g, h):
        self._check(g)
        self._check(h)
        return tuple((x - y) % d for x, y, d in zip(g, h, self.factors))

    def neg(self, g):
        self._check(g)
        return tuple((-x) % d for x, d in zip(g, self.factors))

    def elements(self):
        """All elements in lexicographic order on coords."""
        return [tuple(t) for t in itertools.product(*(range(d) for d in self.factors))]

    def index_of(self, g):
        """Lexicographic rank of an element: its flat index."""
        return int(self.indices([g])[0])

    def element_at(self, idx):
        return self.elements_at([idx])[0]

    # -- characters -------------------------------------------------------

    def character_value(self, a, x):
        """Value of the character with index ``a`` at the element ``x``.

        Exact fourth roots of unity are returned exactly; everything else is
        evaluated with double-precision cos/sin.
        """
        self._check(a)
        self._check(x)
        # phase numerator over the common denominator lcm(factors)
        t = sum(ai * xi * (self._lcm // d) for ai, xi, d in zip(a, x, self.factors)) % self._lcm
        if (4 * t) % self._lcm == 0:
            return _QUARTER_TURNS[(4 * t // self._lcm) % 4]
        return cmath.exp(2j * cmath.pi * t / self._lcm)

    def character_sum(self, a, C):
        """``chi_a(C) = sum_{c in C} chi_a(c)``.

        For symmetric ``C`` (``C = -C``) the sum is real; the imaginary part
        is checked against tolerance and dropped, and a float is returned.
        Otherwise the full complex value is returned.
        """
        C = list(C)
        total = sum(self.character_value(a, c) for c in C)
        if self.is_symmetric(C):
            if abs(total.imag) > IMAG_TOL_PER_TERM * max(len(C), 1):
                raise ArithmeticError(
                    f"character sum over symmetric set has imaginary part {total.imag}"
                )
            return total.real
        return total

    # -- flat indices -------------------------------------------------------

    def indices(self, elements):
        """Sorted distinct flat indices (int64) of coordinate tuples, reduced
        as by :meth:`element`; a bad arity or a non-integer raises ValueError."""
        found = set()
        for g in elements:
            g = tuple(g)
            self._check(g)
            idx = 0
            for x, d in zip(g, self.factors):
                try:
                    idx = idx * d + operator.index(x) % d
                except TypeError:
                    raise ValueError(f"element {g!r} has a non-integer coordinate") from None
            found.add(idx)
        return np.array(sorted(found), dtype=np.int64)

    def elements_at(self, indices):
        """Coordinate tuples (of Python ints) of an array of flat indices."""
        coords = np.unravel_index(np.asarray(indices, dtype=np.int64), self.factors)
        return list(zip(*(c.tolist() for c in coords)))

    def add_indices(self, x, y):
        """Flat index of ``x + y`` for broadcastable flat-index arrays."""
        cx = np.unravel_index(x, self.factors)
        cy = np.unravel_index(y, self.factors)
        return np.ravel_multi_index(
            tuple((a + b) % d for a, b, d in zip(cx, cy, self.factors)), self.factors)

    def neg_indices(self, x):
        """Flat index of ``-x`` for an array of flat indices."""
        cx = np.unravel_index(x, self.factors)
        return np.ravel_multi_index(tuple(-a % d for a, d in zip(cx, self.factors)), self.factors)

    def indicator(self, indices):
        """The 0/1 float array on the factor grid with a 1 at each flat index."""
        ind = np.zeros(self.order)
        ind[indices] = 1.0
        return ind.reshape(self.factors)

    def group_matrix(self, x):
        """The n x n matrix ``M[u, v] = x[v - u]`` (flat indices) of a grid array,
        as one broadcast gather: coordinate i of ``v - u`` is read from a strided
        d_i x d_i circulant view on axes i (u) and t + i (v), so the result is
        the only array of its size that is allocated."""
        t = len(self.factors)
        index = []
        for i, d in enumerate(self.factors):
            r = np.arange(d)
            table = sliding_window_view(np.concatenate((r, r)), d)[d:0:-1]  # (v - u) % d
            shape = [1] * (2 * t)
            shape[i] = shape[t + i] = d
            index.append(table.reshape(shape))
        return np.asarray(x)[tuple(index)].reshape(self.order, self.order)

    def convolve(self, x, y):
        """Integer counts ``(x * y)[g] = sum_{a + b = g} x[a] y[b]``.

        ``x`` and ``y`` are integer-valued arrays whose trailing axes are the
        factor grid (leading axes broadcast).  Computed as
        ``ifftn(fftn(x) * fftn(y))`` and rounded; a value more than 0.25 from
        an integer raises ArithmeticError instead of being snapped.
        """
        axes = tuple(range(-len(self.factors), 0))
        z = np.fft.ifftn(np.fft.fftn(x, axes=axes) * np.fft.fftn(y, axes=axes), axes=axes)
        counts = np.rint(z.real)
        if np.abs(z - counts).max() > 0.25:
            raise ArithmeticError("convolution of integer arrays is not integral")
        return counts.astype(np.int64)

    def character_sum_table(self, indicator):
        """``chi_a(C)`` for every character index ``a`` from the grid array of
        ``C``, on the same grid: a multidimensional DFT, conjugated to match
        :meth:`character_value`.  For symmetric ``C`` every entry is real."""
        return np.conj(np.fft.fftn(indicator))  # fftn uses exp(-2*pi*i...); we want +

    def subgroup_generated(self, gens):
        """Closure of ``gens`` under addition and negation (contains 0)."""
        gens = self.indices(gens)
        step = self.indicator(np.concatenate(([0], gens, self.neg_indices(gens))))
        closure = self.indicator([0])
        while True:
            nxt = self.convolve(closure, step) > 0
            if nxt.sum() == closure.sum():
                return frozenset(self.elements_at(np.flatnonzero(nxt)))
            closure = nxt

    def is_symmetric(self, C):
        Cset = set(C)
        return all(self.neg(c) in Cset for c in Cset)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {"factors": list(self.factors)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["factors"])


def cyclic(n):
    """Shorthand for ``Z_n``; elements are 1-tuples."""
    return AbelianGroup([n])
