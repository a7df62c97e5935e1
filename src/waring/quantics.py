"""Quantics: homogeneous polynomials in bijection with symmetric tensors.

A quantic of degree k in n variables is stored in the multinomial-scaled
basis: F(x) = sum_p C(k; p1,...,pn) a_p x^p with only the a_p kept.  Under
this convention the tensor bijection is the identity on stored data, and the
apolar bilinear form is <F, G> = sum_p C(k; p) a_p b_p, which pairs a power
of a linear form against evaluation: <F, (b.x)^k> = F(b).

The bilinear form over C induces no norm, so none is provided.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from .combinatorics import _class_count, _class_id, _class_keys, _class_size, _class_sizes
from .errors import ArithmeticOverflowError, ValidationError, _excerpt
from .tensor_core import SymmetricTensor, _frozen_finite, _Immutable, _pow2_exponent, _power_sum, outer_power


class Quantic(_Immutable):
    """Homogeneous polynomial of degree k in n variables, scaled-basis coefficients.

    A view on the SymmetricTensor of the same data: quantic_to_tensor returns it.
    """

    __slots__ = ("_tensor",)

    def __init__(self, degree: int, nvars: int, terms):
        if degree < 1:
            raise ValidationError("a quantic needs degree >= 1")
        if nvars < 1:
            raise ValidationError("a quantic needs at least one variable")
        self._fill(_tensor=SymmetricTensor(degree, nvars, terms))

    @classmethod
    def _of(cls, tensor: SymmetricTensor) -> Quantic:
        return object.__new__(cls)._fill(_tensor=tensor)

    degree = property(lambda self: self._tensor.order)
    nvars = property(lambda self: self._tensor.dim)

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        return self._tensor.coeffs

    def __repr__(self):
        return f"Quantic(degree={self.degree}, nvars={self.nvars}, terms={np.count_nonzero(self._tensor._vector)})"


@dataclass(frozen=True)
class LinearForm:
    """Coefficient vector beta of the linear form beta1 x1 + ... + betan xn."""

    beta: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(complex(c) for c in self.beta))
        if not self.beta:
            raise ValidationError("a linear form needs at least one coefficient")


def tensor_to_quantic(A: SymmetricTensor) -> Quantic:
    """Identity on stored data: the class entry a_p is the scaled coefficient."""
    return Quantic._of(A)


def quantic_to_tensor(F: Quantic) -> SymmetricTensor:
    """Inverse of tensor_to_quantic; the round trip is exact."""
    return F._tensor


def _multinomial_sum(sizes: np.ndarray, a: np.ndarray, b: np.ndarray, what: str, shift: int = 0) -> complex:
    """2^shift sum_p sizes_p a_p b_p, taken as (sizes a) @ b; where that is not finite, again term by term: each
    factor of a nonzero term divided by the 2^e of its own largest |re| or |im|, the term shifted by its summed e
    less the largest such sum E, and the total scaled back by 2^(E + shift).  It raises where the value passes the
    float range, and where a term shifted below tiny, each losing less than tiny, leaves a total below
    terms * tiny * 2^53 or the value lands below tiny: an underflow never reads as 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = sizes * a @ b
        if not cmath.isfinite(value):
            live = (a != 0) & (b != 0)
            terms, exps, top = np.ones(np.count_nonzero(live), dtype=np.complex128), 0, 0
            for x in (sizes[live], a[live], b[live]):
                x = x.astype(np.complex128).view(float)
                e = np.repeat(np.frexp(abs(x).reshape(-1, 2).max(axis=1))[1], 2)
                terms, exps = terms * np.ldexp(x, -e).view(complex), exps + e[::2]
            if len(terms):
                top = exps.max()
                terms = np.ldexp(terms.view(float), np.repeat(exps - top, 2)).view(complex)
            tiny, total, shift = np.finfo(float).tiny, terms.sum(), shift + top
            value = complex(np.ldexp(total.real, shift), np.ldexp(total.imag, shift))
            lost = (abs(terms) < tiny).any() and abs(total) < len(terms) * tiny * 2.0**53
            if cmath.isfinite(value) and (lost or (total != 0 and abs(value) < tiny)):
                raise ArithmeticOverflowError(f"{what} needs terms below the float range")
        else:
            value = complex(np.ldexp(value.real, shift), np.ldexp(value.imag, shift))
    if not cmath.isfinite(value):
        raise ArithmeticOverflowError(f"{what} overflows the float range")
    return value


def evaluate(F: Quantic, x) -> complex:
    """F at the point x: sum_p multinomial(p) a_p x^p over the nonzero classes p; where a monomial x^p passes the
    float range it is taken as 2^(ek) F(x / 2^e), e the _pow2_exponent of the largest |re| or |im| of x, whose
    factors have modulus below 3, so a nonzero monomial below tiny * 3^k there lost bits to underflow and raises."""
    point = _frozen_finite(np.array([complex(c) for c in x], dtype=np.complex128), "point coordinates")
    if len(point) != F.nvars:
        raise ValidationError(f"point has {len(point)} entries, expected {F.nvars}")
    k, n, vec = F.degree, F.nvars, F._tensor._vector
    nz, one, e = vec.nonzero()[0], np.ones(1, dtype=np.complex128), 0
    with np.errstate(over="ignore", invalid="ignore"):
        monomials = _power_sum(one, point[None, :], k)[nz]
        if not np.isfinite(monomials).all():
            e = _pow2_exponent(point)
            monomials = _power_sum(one, point[None, :] / 2.0**e, k)[nz]
            nonzero = _power_sum(one, (point != 0).astype(np.complex128)[None, :], k)[nz] != 0
            if (nonzero & (abs(monomials) < np.finfo(float).tiny * np.float64(3.0) ** k)).any():
                raise ArithmeticOverflowError("the value at this point needs powers outside the float range")
    return _multinomial_sum(_class_sizes(k, n)[nz], vec[nz], monomials, "the value at this point", e * k)


def apolar_form(F: Quantic, G: Quantic) -> complex:
    """Apolar bilinear form sum_p multinomial(p) a_p b_p; symmetric in (F, G)."""
    if (F.degree, F.nvars) != (G.degree, G.nvars):
        raise ValidationError(f"apolar form needs matching shapes: ({F.degree}, {F.nvars}) vs ({G.degree}, {G.nvars})")
    return _multinomial_sum(_class_sizes(F.degree, F.nvars), F._tensor._vector, G._tensor._vector, "the apolar form")


def veronese(L, k: int) -> Quantic:
    """k-th power of a linear form: stored coefficients b_p = prod_i beta_i^p_i.

    Accepts a LinearForm or a plain coefficient sequence.  By construction
    quantic_to_tensor(veronese(beta, k)) equals outer_power(beta, k) exactly.
    """
    beta = L.beta if isinstance(L, LinearForm) else tuple(complex(c) for c in L)
    return tensor_to_quantic(outer_power(beta, k))


def scale(F: Quantic, c) -> Quantic:
    """Scalar multiple of a quantic: Python's complex product on each nonzero class."""
    factor, nz, out = complex(c), np.flatnonzero(F._tensor._vector), np.zeros_like(F._tensor._vector)
    out[nz] = [factor * v for v in F._tensor._vector[nz].tolist()]
    return Quantic._of(SymmetricTensor._of(F.degree, F.nvars, out))


def _format_real(x: float) -> str:
    text = f"{x:.12g}"
    return "0" if text == "-0" else text


def _format_monomial(p) -> str:
    factors = []
    for i, e in enumerate(p, start=1):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return "*".join(factors)


def _signed_term(p: tuple[int, ...], a: complex) -> tuple[str, str]:
    """(sign, body) of the term multinomial(p) * a * x^p: a real coefficient's sign goes between
    the terms, a complex coefficient is parenthesized after a '+'."""
    c, mono = _class_size(p) * a, _format_monomial(p)
    if not cmath.isfinite(c):
        raise ArithmeticOverflowError(f"the printed coefficient of {mono} exceeds the float range")
    if c.imag != 0:
        sign = "+" if c.imag >= 0 else "-"
        return "+", f"({_format_real(c.real)}{sign}{_format_real(abs(c.imag))}j)*{mono}"
    mag = abs(c.real)
    return ("-" if c.real < 0 else "+"), (mono if mag == 1 else f"{_format_real(mag)}*{mono}")


def render_quantic(F: Quantic) -> str:
    """Text form with monomial coefficients, e.g. '3*x1*x2^2 - x1^3'.

    Terms appear in ascending lexicographic exponent order, the reverse of the graded-lex class order.  The
    printed coefficient is multinomial(p) times the stored a_p.
    """
    nz = np.flatnonzero(vec := F._tensor._vector)[::-1]
    if not len(nz):
        return "0"
    (sign, first), *rest = map(_signed_term, _class_keys(F.degree, F.nvars, nz), vec[nz].tolist())
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {body}" for s, body in rest)


# A term sign is a + or - outside parentheses that does not follow a mantissa's e or E, as in
# 1.5e-05.  A parenthesized coefficient, nested at most twice as in ((1+2j)), matches whole, so
# its signs never split; a parenthesis left over is unbalanced.
_TERM_SIGN_RE = re.compile(r"(?P<group>\((?:[^()]|\([^()]*\))*\))|(?P<paren>[()])|[+-](?<![\d.][eE][+-])")
_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _split_terms(text: str) -> list[tuple[int, str]]:
    """(sign, term) pairs of quantic text; of several leading signs the last one counts."""
    terms, sign, start = [], 1, 0
    for m in _TERM_SIGN_RE.finditer(text):
        if m.lastgroup == "group":
            continue
        if m.lastgroup == "paren":
            raise ValidationError("unbalanced parentheses in quantic text")
        chunk = text[start:m.start()].strip()
        if chunk:
            terms.append((sign, chunk))
        elif terms:
            raise ValidationError("empty term in quantic text")
        sign, start = (-1 if m.group() == "-" else 1), m.end()
    chunk = text[start:].strip()
    if not chunk:
        raise ValidationError("quantic text ends with a dangling sign" if terms else "empty quantic text")
    terms.append((sign, chunk))
    return terms


def _parse_coefficient(token: str) -> complex:
    raw = token[1:-1] if token.startswith("(") and token.endswith(")") else token
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise ValidationError(f"cannot parse coefficient '{_excerpt(token)}'") from None


def parse_quantic(text: str, nvars: int | None = None) -> Quantic:
    """Parse the text grammar 'c*x<i>^<e>*...' with terms joined by + or -.

    The variable count defaults to the highest index that appears; the degree
    comes from the terms, which must all share it.  Parsed coefficients are
    monomial coefficients and are divided by multinomial(p) for storage.
    """
    parsed: list[tuple[complex, dict[int, int]]] = []
    for sign, chunk in _split_terms(text):
        coeff = complex(sign)
        exponents: dict[int, int] = {}
        for raw_factor in chunk.split("*"):
            factor = raw_factor.strip()
            if not factor:
                raise ValidationError(f"empty factor in term '{_excerpt(chunk)}'")
            m = _FACTOR_RE.match(factor)
            if m is None:
                if exponents:
                    raise ValidationError(
                        f"coefficient '{_excerpt(factor)}' must precede the variables in term '{_excerpt(chunk)}'"
                    )
                coeff *= _parse_coefficient(factor)
                continue
            try:
                var, exp = int(m.group(1)), int(m.group(2) or 1)
            except ValueError:  # more digits than int() converts
                raise ValidationError("a variable index or exponent has too many digits") from None
            if var < 1:
                raise ValidationError(f"variable index must be >= 1 in '{_excerpt(factor)}'")
            if exp < 1:
                raise ValidationError(f"exponent must be >= 1 in '{_excerpt(factor)}'")
            exponents[var] = exponents.get(var, 0) + exp
        if not exponents:
            raise ValidationError(f"term '{_excerpt(chunk)}' has no variables; constants are not homogeneous")
        parsed.append((coeff, exponents))
    max_var = max(max(exps) for _, exps in parsed)
    n = nvars if nvars is not None else max_var
    if n < max_var:
        raise ValidationError(f"variable x{max_var} exceeds the requested {n} variables")
    degrees = {sum(exps.values()) for _, exps in parsed}
    if len(degrees) != 1:
        raise ValidationError(f"terms have mixed degrees {sorted(degrees)}; a quantic is homogeneous")
    k = degrees.pop()
    vec = np.zeros(_class_count(k, n), dtype=np.complex128)  # a shape past the class cap fails before any n-tuple
    for coeff, exps in parsed:
        p = tuple(exps.get(i, 0) for i in range(1, n + 1))
        c = _class_id(p)
        vec[c] = complex(vec[c]) + coeff / _class_size(p)  # Python's sum: an overflow reads inf, without a warning
    return Quantic._of(SymmetricTensor._of(k, n, vec))
