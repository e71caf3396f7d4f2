"""Exact sparse multivariate polynomial and truncated power series arithmetic.

A monomial is a tuple of non-negative integer exponents indexed by variable
position: entry ``i`` is the exponent of ``x_{i+1}``.  Trailing zeros are
trimmed, so the constant monomial is the empty tuple.  A polynomial maps
monomials to nonzero arbitrary-precision integer coefficients; the zero
polynomial stores no terms.  Because the representation is canonical,
structural equality of two polynomials is mathematical equality.

Coefficients are plain Python ints throughout.  Everything this library
computes is an exact integer identity, so floating point never appears: the
public constructors refuse a non-int exponent or coefficient (``TypeError``).

``*`` is the one polynomial product.  When either operand is a single term
that is a constant c or a power c*x_i^a of one variable, the product scales
the other operand's coefficients by c and shifts exponent i of each of its
terms by a.  That shift is injective, so no two terms merge or cancel and
the result stays canonical.  Any other pair of operands, a single term over
two or more variables included, runs the general term-by-term loop.  The
power of a single term c*m is c^e times m with its exponents scaled by e.

Serialized term order is graded lexicographic, largest degree first and
lexicographically larger exponent vector first within a degree.  All printed
and JSON output follows this order, which keeps golden-file tests stable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import add
from types import MappingProxyType

Monomial = tuple[int, ...]


def make_monomial(exponents: Iterable[int]) -> Monomial:
    """Canonicalize an exponent sequence: validate and trim trailing zeros."""
    exps = tuple(exponents)
    for a in exps:
        if not isinstance(a, int):
            raise TypeError(f"exponent {a!r} in monomial {exps} is not an int")
        if a < 0:
            raise ValueError(f"negative exponent {a} in monomial {exps}")
    end = len(exps)
    while end > 0 and exps[end - 1] == 0:
        end -= 1
    return exps[:end]


def _int_coeff(c: int) -> int:
    if not isinstance(c, int):
        raise TypeError(f"coefficient {c!r} is not an int")
    return c


class Polynomial:
    """Immutable sparse polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Iterable[int], int] | None = None):
        acc: dict[Monomial, int] = {}
        if terms:
            for exps, coeff in terms.items():
                mono = make_monomial(exps)
                c = acc.get(mono, 0) + _int_coeff(coeff)
                if c:
                    acc[mono] = c
                elif mono in acc:
                    del acc[mono]
        object.__setattr__(self, "_terms", acc)

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "Polynomial":
        # Internal: terms must already be canonical (trimmed keys, no zeros).
        p = cls.__new__(cls)
        object.__setattr__(p, "_terms", terms)
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({(): 1})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls._raw({(): c} if _int_coeff(c) else {})

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        """The polynomial x_index (1-based variable position)."""
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        return cls._raw({(0,) * (index - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exponents: Iterable[int], coeff: int = 1) -> "Polynomial":
        if _int_coeff(coeff) == 0:
            return cls.zero()
        return cls._raw({make_monomial(exponents): coeff})

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def num_vars(self) -> int:
        """Highest 1-based variable position used (0 for constants)."""
        return max((len(e) for e in self._terms), default=0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as the int it equals
        if not self._terms.keys() - {()}:
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return Polynomial._raw(acc)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        if not isinstance(other, int):
            return NotImplemented
        return Polynomial.constant(other) + (-self)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            if other == 1:
                return self
            return Polynomial._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms or not other._terms:
            return Polynomial.zero()
        for one, many in ((self, other), (other, self)):
            if len(one._terms) == 1:
                ((mono, c),) = one._terms.items()
                if not mono:
                    return many * c
                pos = len(mono) - 1
                if mono.count(0) == pos:
                    # c*x_{pos+1}^a: shift that exponent in every term
                    a = mono[pos]
                    acc: dict[Monomial, int] = {}
                    for e, cb in many._terms.items():
                        if len(e) > pos:
                            acc[e[:pos] + (e[pos] + a,) + e[pos + 1 :]] = cb * c
                        else:
                            acc[e + (0,) * (pos - len(e)) + (a,)] = cb * c
                    return Polynomial._raw(acc)
        acc = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                # the longer tail is already trimmed, so the sum stays canonical
                mono = tuple(map(add, ea, eb)) + ea[len(eb):] + eb[len(ea):]
                s = acc.get(mono, 0) + ca * cb
                if s:
                    acc[mono] = s
                elif mono in acc:
                    del acc[mono]
        return Polynomial._raw(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a non-negative int, got {n}")
        if n == 0:
            return Polynomial.one()
        if len(self._terms) == 1:
            # (c*m)^n is c^n times m with every exponent scaled by n
            ((mono, c),) = self._terms.items()
            return Polynomial._raw({tuple(a * n for a in mono): c**n})
        result = Polynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, point: Sequence[int]) -> int:
        """Exact value at an integer point (entry ``i`` is the value of ``x_{i+1}``).

        The point must cover every variable the polynomial uses.
        """
        width = self.num_vars()
        if len(point) < width:
            raise ValueError(
                f"point of length {len(point)} does not cover variable x{width}"
            )
        total = 0
        for exps, coeff in self._terms.items():
            v = coeff
            for x, a in zip(point, exps):
                if a:
                    v *= x**a
            total += v
        return total

    def substitute_power(self, m: int) -> "Polynomial":
        """Substitute x_i -> x_i**m for every variable (m >= 1)."""
        if m < 1:
            raise ValueError(f"substitution power must be >= 1, got {m}")
        if m == 1:
            return self
        return Polynomial._raw(
            {tuple(a * m for a in e): c for e, c in self._terms.items()}
        )

    def coefficient(self, exponents: Iterable[int]) -> int:
        return self._terms.get(make_monomial(exponents), 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical (graded-lex descending) order."""
        # Trimmed monomials of equal degree can never be prefixes of one
        # another, so the unpadded tuple comparison is graded lex.
        return sorted(
            self._terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            body = "*".join(
                f"x{i + 1}^{a}" if a > 1 else f"x{i + 1}"
                for i, a in enumerate(exps)
                if a
            )
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def to_json_obj(self) -> list[dict]:
        """Canonically ordered list of {"coeff": decimal string, "exps": [...]}."""
        return [
            {"coeff": str(coeff), "exps": list(exps)}
            for exps, coeff in self.sorted_terms()
        ]


class TruncatedSeries:
    """Formal power series in one parameter t, truncated at a degree bound.

    Coefficients are Polynomial values; ``coeffs`` holds exactly
    ``degree_bound + 1`` entries, one per power of t from 0 upward.
    Arithmetic between two series truncates at the smaller bound.
    """

    __slots__ = ("_coeffs",)

    def __init__(
        self,
        coeffs: Sequence[Polynomial | int],
        degree_bound: int | None = None,
    ):
        lifted = [
            c if isinstance(c, Polynomial) else Polynomial.constant(c) for c in coeffs
        ]
        if degree_bound is None:
            if not lifted:
                raise ValueError("a series needs at least the t^0 coefficient")
            degree_bound = len(lifted) - 1
        if degree_bound < 0:
            raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
        if len(lifted) > degree_bound + 1:
            raise ValueError(
                f"{len(lifted)} coefficients exceed degree bound {degree_bound}"
            )
        lifted.extend([Polynomial.zero()] * (degree_bound + 1 - len(lifted)))
        object.__setattr__(self, "_coeffs", tuple(lifted))

    @classmethod
    def one(cls, degree_bound: int) -> "TruncatedSeries":
        return cls([Polynomial.one()], degree_bound)

    @property
    def degree_bound(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Polynomial, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Polynomial:
        if not 0 <= k <= self.degree_bound:
            raise IndexError(f"coefficient index {k} outside bound {self.degree_bound}")
        return self._coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return series_mul(self, other)

    def __str__(self) -> str:
        return " ; ".join(f"t^{k}: {c}" for k, c in enumerate(self._coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries([{', '.join(map(str, self._coeffs))}])"


def _cauchy(ca: Sequence, cb: Sequence, bound: int) -> list:
    # Coefficients 0..bound of the product of two coefficient sequences, over
    # any ring whose zero is falsy and whose elements add to an int 0; a
    # coefficient no product reaches stays int 0.
    out = [0] * (bound + 1)
    for i, c in enumerate(ca[: bound + 1]):
        if c:
            for j, d in enumerate(cb[: bound + 1 - i]):
                if d:
                    out[i + j] = out[i + j] + c * d
    return out


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the smaller of the two bounds."""
    bound = min(a.degree_bound, b.degree_bound)
    return TruncatedSeries(_cauchy(a.coeffs, b.coeffs, bound), bound)
