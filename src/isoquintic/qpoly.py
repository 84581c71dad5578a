"""Exact sparse multivariate polynomials over the rationals.

Monomials are tuples of (variable, exponent) pairs sorted by a fixed
variable order; coefficients are `fractions.Fraction`.  Everything is
immutable and every operation is a pure function, so values can be shared
freely between threads.

The canonical term order is graded lexicographic with variable order
x, y, a, b, c, d, e, f, g, h (any other symbol ranks after these,
alphabetically).  Printing and leading-term extraction both use it, which
makes all symbolic output byte-stable.
"""

from __future__ import annotations

import math
from fractions import Fraction

_KNOWN_VARS = ("x", "y", "a", "b", "c", "d", "e", "f", "g", "h")
_RANK = {v: i for i, v in enumerate(_KNOWN_VARS)}


class QPolyError(Exception):
    pass


class ParseError(QPolyError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundVariableError(QPolyError):
    pass


class SingularMatrixError(QPolyError):
    def __init__(self, null_vector):
        super().__init__(f"singular matrix; null vector {null_vector}")
        self.null_vector = null_vector


def _var_rank(name):
    i = _RANK.get(name)
    return (0, i) if i is not None else (1, name)


def _mono(pairs):
    """Build a canonical monomial from (var, exp) pairs; drops zero exponents."""
    merged = {}
    for v, e in pairs:
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in merged.items() if e),
                        key=lambda p: _var_rank(p[0])))


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    return _mono(list(m1) + list(m2))


def _mono_degree(m):
    return sum(e for _, e in m)


def _mono_key(m):
    """Sort key: ascending sort by this key gives descending graded-lex order."""
    return (-_mono_degree(m), tuple((_var_rank(v), -e) for v, e in m))


def _mono_divides(m1, m2):
    """Does m1 divide m2?"""
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def _mono_div(m2, m1):
    d = dict(m2)
    for v, e in m1:
        d[v] -= e
    return _mono(d.items())


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def as_poly(v):
    """A symbol name as its variable, a Poly as itself, any other number exact."""
    if isinstance(v, str):
        return Poly.var(v)
    if isinstance(v, Poly):
        return v
    return Poly.const(v)


class Poly:
    """A sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _coerce_coeff(c)
                if c:
                    clean[m] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return Poly()

    @staticmethod
    def const(q):
        return Poly({(): Fraction(q)})

    @staticmethod
    def var(name, exp=1):
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return Poly.const(1)
        return Poly({((name, exp),): Fraction(1)})

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree_in(self, vars=("x", "y")):
        vs = set(vars)
        if not self.terms:
            return 0
        return max(sum(e for v, e in m if v in vs) for m in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _mono_key(t[0]))

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=_mono_key)
        return m, self.terms[m]

    def constant_value(self):
        """The value of a variable-free polynomial, as an exact Fraction."""
        if not self.terms:
            return Fraction(0)
        if list(self.terms) != [()]:
            raise ValueError("polynomial is not constant")
        return self.terms[()]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus and substitution ------------------------------------

    def diff(self, var):
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(var, 0)
            if not e:
                continue
            d[var] = e - 1
            out[_mono(d.items())] = out.get(_mono(d.items()), Fraction(0)) + c * e
        return Poly(out)

    def subs(self, bindings):
        """Simultaneous substitution of variables by polynomials (fully expanded)."""
        bound = {v: Poly._coerce(p) for v, p in bindings.items()}
        total = Poly.zero()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m:
                base = bound.get(v)
                term = term * (base ** e if base is not None else Poly({((v, e),): 1}))
            total = total + term
        return total

    def eval_rational(self, point):
        """Exact evaluation; every variable must be bound."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                if v not in point:
                    raise UnboundVariableError(f"unbound variable '{v}'")
                val *= Fraction(point[v]) ** e
            total += val
        return total

    def eval_float(self, point):
        total = 0.0
        for m, c in self.terms.items():
            val = float(c)
            for v, e in m:
                if v not in point:
                    raise UnboundVariableError(f"unbound variable '{v}'")
                val *= float(point[v]) ** e
            total += val
        return total

    # -- structure ----------------------------------------------------

    def homogeneous_parts(self):
        """Split into components homogeneous in x, y (other symbols count as degree 0)."""
        parts = {}
        for m, c in self.terms.items():
            k = sum(e for v, e in m if v in ("x", "y"))
            parts.setdefault(k, {})[m] = c
        return {k: Poly(t) for k, t in sorted(parts.items())}

    def xy_coefficients(self):
        """Map (i, j) exponents of x, y to the coefficient polynomial in the rest."""
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            i, j = d.pop("x", 0), d.pop("y", 0)
            rest = _mono(d.items())
            out.setdefault((i, j), {})[rest] = c
        return {ij: Poly(t) for ij, t in out.items()}

    def coefficient(self, var, exp):
        """Coefficient polynomial of var**exp (the remaining factor of each term)."""
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            if d.pop(var, 0) == exp:
                out[_mono(d.items())] = c
        return Poly(out)

    # -- normalization ------------------------------------------------

    def canonical(self):
        """Scale by a positive rational so coefficients are integers with gcd 1.

        The sign of the polynomial is preserved (the scaling factor is always
        positive), so sign-based verdicts derived from the raw value survive
        canonicalization.
        """
        if not self.terms:
            return self
        den_lcm = 1
        for c in self.terms.values():
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        num_gcd = 0
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
        return self * Fraction(den_lcm, num_gcd)

    def reduce_var_square(self, var, replacement):
        """Rewrite var**2 -> replacement everywhere (e.g. s**2 -> 1 - c**2)."""
        replacement = Poly._coerce(replacement)
        total = Poly.zero()
        for m, c in self.terms.items():
            d = dict(m)
            e = d.pop(var, 0)
            rest = Poly({_mono(d.items()): c})
            total = total + rest * Poly.var(var, e % 2) * replacement ** (e // 2)
        return total

    def reduce_inverse_pairs(self, var, invvar):
        """Cancel var**i * invvar**j pairs, i.e. reduce modulo var*invvar - 1."""
        out = Poly.zero()
        for m, c in self.terms.items():
            d = dict(m)
            i, j = d.get(var, 0), d.get(invvar, 0)
            k = min(i, j)
            if k:
                d[var] = i - k
                d[invvar] = j - k
            out = out + Poly({_mono(d.items()): c})
        return out

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for n, (m, c) in enumerate(self.sorted_terms()):
            factors = []
            if abs(c) != 1 or not m:
                factors.append(str(abs(c)))
            for v, e in m:
                factors.append(v if e == 1 else f"{v}^{e}")
            text = "*".join(factors)
            if n == 0:
                pieces.append(("-" if c < 0 else "") + text)
            else:
                pieces.append((" - " if c < 0 else " + ") + text)
        return "".join(pieces)

    def __repr__(self):
        return f"Poly({self})"


class RationalFunction:
    """A quotient of two Poly with a nonzero denominator (no gcd reduction)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = Poly._coerce(num)
        den = Poly._coerce(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        self.num = num
        self.den = den

    def eval_float(self, point):
        d = self.den.eval_float(point)
        return self.num.eval_float(point) / d

    def __repr__(self):
        return f"({self.num}) / ({self.den})"


def divide_exact(p, d):
    """Exact multivariate division: return q with p == q*d, or None."""
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    lm, lc = d.leading_term()
    quo = Poly.zero()
    rem = p
    while rem.terms:
        m, c = rem.leading_term()
        if not _mono_divides(lm, m):
            return None
        t = Poly({_mono_div(m, lm): c / lc})
        quo = quo + t
        rem = rem - t * d
    return quo


# ----------------------------------------------------------------------
# parser (grammar published by the CLI; implicit multiplication rejected)

def parse_expr(text):
    """Parse `expr := term (("+"|"-") term)*` etc. into a Poly."""
    return _Parser(text).parse()


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def parse(self):
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return p

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        p = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                p = p + self.term()
            elif ch == "-":
                self.pos += 1
                p = p - self.term()
            else:
                return p

    def term(self):
        p = self.factor()
        while self.peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return p
        if ch.isdigit():
            return Poly.const(self.rational())
        if ch.isalpha():
            name = self.symbol()
            if self.peek() == "^":
                self.pos += 1
                if self.peek() == "-":
                    raise ParseError("negative exponent", self.pos)
                return Poly.var(name, self.uint())
            return Poly.var(name)
        raise ParseError("expected a factor", self.pos)

    def uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", self.pos)
        return int(self.text[start:self.pos])

    def rational(self):
        n = self.uint()
        if self.peek() == "/":
            self.pos += 1
            d = self.uint()
            if d == 0:
                raise ParseError("zero denominator", self.pos)
            return Fraction(n, d)
        return Fraction(n)

    def symbol(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]


# ----------------------------------------------------------------------
# exact linear algebra

def solve_linear_exact(matrix, rhs):
    """Solve M x = rhs exactly; M has Fraction entries, rhs entries are Poly.

    Gaussian elimination runs on the numeric matrix only; row operations are
    mirrored on the polynomial right-hand side, so the solution is a vector of
    Poly with exact rational coefficients.  Raises SingularMatrixError with a
    null vector of M when M is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs length must match matrix size")
    m = [[Fraction(v) for v in row] for row in matrix]
    b = [Poly._coerce(v) for v in rhs]

    for col in range(n):
        pr = next((r for r in range(col, n) if m[r][col]), None)
        if pr is None:
            # columns 0..col-1 are unit vectors by now, so x_col = 1,
            # x_r = -m[r][col] for r < col and zeros after col solve M x = 0
            null = [-m[r][col] for r in range(col)] + [Fraction(1)]
            raise SingularMatrixError(null + [Fraction(0)] * (n - col - 1))
        m[col], m[pr] = m[pr], m[col]
        b[col], b[pr] = b[pr], b[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        b[col] = b[col] * inv
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
                b[r] = b[r] - b[col] * factor
    return b
