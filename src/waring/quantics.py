"""Quantics: homogeneous polynomials in bijection with symmetric tensors.

A quantic of degree k in n variables is stored in the multinomial-scaled
basis: F(x) = sum_p C(k; p1,...,pn) a_p x^p with only the a_p kept.  Under
this convention the tensor bijection is the identity on stored data, and the
apolar bilinear form is <F, G> = sum_p C(k; p) a_p b_p, which pairs a power
of a linear form against evaluation: <F, (b.x)^k> = F(b).

The bilinear form over C induces no norm, so none is provided.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .combinatorics import _class_columns, _class_size, _class_sizes
from .errors import ValidationError
from .tensor_core import SymmetricTensor, _monomials, outer_power


class Quantic:
    """Homogeneous polynomial of degree k in n variables, scaled-basis coefficients.

    A view on the SymmetricTensor of the same data: quantic_to_tensor returns it.
    """

    __slots__ = ("_tensor",)

    def __init__(self, degree: int, nvars: int, terms):
        if degree < 1:
            raise ValidationError("a quantic needs degree >= 1")
        if nvars < 1:
            raise ValidationError("a quantic needs at least one variable")
        self._tensor = SymmetricTensor(degree, nvars, terms)

    @classmethod
    def _of(cls, tensor: SymmetricTensor) -> Quantic:
        self = object.__new__(cls)
        self._tensor = tensor
        return self

    degree = property(lambda self: self._tensor.order)
    nvars = property(lambda self: self._tensor.dim)

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        return self._tensor.coeffs

    def __repr__(self):
        return f"Quantic(degree={self.degree}, nvars={self.nvars}, terms={len(self.terms)})"


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


def evaluate(F: Quantic, x) -> complex:
    """F at the point x: sum_p multinomial(p) a_p x^p over the nonzero classes p."""
    point = np.array([complex(c) for c in x], dtype=np.complex128)
    if len(point) != F.nvars:
        raise ValidationError(f"point has {len(point)} entries, expected {F.nvars}")
    k, n, vec = F.degree, F.nvars, F._tensor._vector
    nz = vec.nonzero()[0]
    weighted = _class_sizes(k, n)[nz] * vec[nz]
    return complex(weighted @ _monomials(point[None, :], k, _class_columns(k, n).take(nz, axis=1))[0])


def apolar_form(F: Quantic, G: Quantic) -> complex:
    """Apolar bilinear form sum_p multinomial(p) a_p b_p; symmetric in (F, G)."""
    if (F.degree, F.nvars) != (G.degree, G.nvars):
        raise ValidationError(
            f"apolar form needs matching shapes: ({F.degree}, {F.nvars}) vs ({G.degree}, {G.nvars})"
        )
    weighted = _class_sizes(F.degree, F.nvars) * F._tensor._vector
    return complex(weighted @ G._tensor._vector)


def veronese(L, k: int) -> Quantic:
    """k-th power of a linear form: stored coefficients b_p = prod_i beta_i^p_i.

    Accepts a LinearForm or a plain coefficient sequence.  By construction
    quantic_to_tensor(veronese(beta, k)) equals outer_power(beta, k) exactly.
    """
    beta = L.beta if isinstance(L, LinearForm) else tuple(complex(c) for c in L)
    return tensor_to_quantic(outer_power(beta, k))


def scale(F: Quantic, c) -> Quantic:
    """Scalar multiple of a quantic."""
    factor = complex(c)
    return Quantic(F.degree, F.nvars, {p: factor * v for p, v in F.terms.items()})


def _format_real(x: float) -> str:
    text = f"{x:.12g}"
    return "0" if text == "-0" else text


def _format_coefficient(c: complex) -> str:
    """12-significant-digit coefficient; complex values are parenthesized."""
    if c.imag == 0:
        return _format_real(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"({_format_real(c.real)}{sign}{_format_real(abs(c.imag))}j)"


def _format_monomial(p) -> str:
    factors = []
    for i, e in enumerate(p, start=1):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return "*".join(factors)


def render_quantic(F: Quantic) -> str:
    """Text form with monomial coefficients, e.g. '3*x1*x2^2 - x1^3'.

    Terms appear in ascending lexicographic exponent order.  The printed
    coefficient is multinomial(p) times the stored a_p.
    """
    terms = F.terms
    if not terms:
        return "0"
    parts: list[str] = []
    for p in sorted(terms):
        c = _class_size(p) * terms[p]
        mono = _format_monomial(p)
        if c.imag == 0:
            negative = c.real < 0
            mag = abs(c.real)
            body = mono if mag == 1 else f"{_format_real(mag)}*{mono}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f" {'-' if negative else '+'} {body}")
        else:
            body = f"{_format_coefficient(c)}*{mono}"
            parts.append(body if not parts else f" + {body}")
    return "".join(parts)


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _ends_in_exponent_mark(chars: list[str]) -> bool:
    return len(chars) >= 2 and chars[-1] in "eE" and (chars[-2].isdigit() or chars[-2] == ".")


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split on top-level + and - (parenthesized coefficients stay intact).

    A sign right after a mantissa and its 'e', as in 1.5e-05, belongs to the
    exponent of the coefficient and does not split.
    """
    terms: list[tuple[int, str]] = []
    sign = 1
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValidationError("unbalanced parentheses in quantic text")
            current.append(ch)
        elif ch in "+-" and depth == 0 and not _ends_in_exponent_mark(current):
            chunk = "".join(current).strip()
            if chunk:
                terms.append((sign, chunk))
            elif terms:
                raise ValidationError("empty term in quantic text")
            sign = 1 if ch == "+" else -1
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValidationError("unbalanced parentheses in quantic text")
    chunk = "".join(current).strip()
    if not chunk:
        raise ValidationError("quantic text ends with a dangling sign" if terms else "empty quantic text")
    terms.append((sign, chunk))
    return terms


def _parse_coefficient(token: str) -> complex:
    raw = token[1:-1] if token.startswith("(") and token.endswith(")") else token
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise ValidationError(f"cannot parse coefficient '{token}'") from None


def parse_quantic(text: str, nvars: int | None = None) -> Quantic:
    """Parse the text grammar 'c*x<i>^<e>*...' with terms joined by + or -.

    The variable count defaults to the highest index that appears; the degree
    comes from the terms, which must all share it.  Parsed coefficients are
    monomial coefficients and are divided by multinomial(p) for storage.
    """
    squeezed = text.strip()
    if not squeezed:
        raise ValidationError("empty quantic text")
    parsed: list[tuple[complex, dict[int, int]]] = []
    max_var = 0
    for sign, chunk in _split_terms(squeezed):
        coeff = complex(sign)
        exponents: dict[int, int] = {}
        saw_variable = False
        for raw_factor in chunk.split("*"):
            factor = raw_factor.strip()
            if not factor:
                raise ValidationError(f"empty factor in term '{chunk}'")
            m = _FACTOR_RE.match(factor)
            if m:
                var = int(m.group(1))
                exp = int(m.group(2)) if m.group(2) else 1
                if var < 1:
                    raise ValidationError(f"variable index must be >= 1 in '{factor}'")
                if exp < 1:
                    raise ValidationError(f"exponent must be >= 1 in '{factor}'")
                exponents[var] = exponents.get(var, 0) + exp
                max_var = max(max_var, var)
                saw_variable = True
            else:
                if saw_variable:
                    raise ValidationError(
                        f"coefficient '{factor}' must precede the variables in term '{chunk}'"
                    )
                coeff *= _parse_coefficient(factor)
        if not exponents:
            raise ValidationError(f"term '{chunk}' has no variables; constants are not homogeneous")
        parsed.append((coeff, exponents))
    n = nvars if nvars is not None else max_var
    if n < max_var:
        raise ValidationError(f"variable x{max_var} exceeds the requested {n} variables")
    degrees = {sum(exps.values()) for _, exps in parsed}
    if len(degrees) != 1:
        raise ValidationError(f"terms have mixed degrees {sorted(degrees)}; a quantic is homogeneous")
    k = degrees.pop()
    terms: dict[tuple[int, ...], complex] = {}
    for coeff, exps in parsed:
        p = tuple(exps.get(i, 0) for i in range(1, n + 1))
        terms[p] = terms.get(p, 0j) + coeff / _class_size(p)
    return Quantic(k, n, terms)
