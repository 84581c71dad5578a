"""Exact sparse multivariate polynomials over the rationals.

Monomials are tuples of (variable, exponent) pairs sorted by a fixed
variable order; coefficients are `fractions.Fraction`, or ints kept int by
`* int` and `// int`.  Everything is immutable and every operation is a pure
function, so values can be shared freely between threads.

The canonical term order is graded lexicographic with variable order
x, y, a, b, c, d, e, f, g, h (any other symbol ranks after these,
alphabetically).  Printing and leading-term extraction both use it, which
makes all symbolic output byte-stable.

A binary form of degree k in x, y is also held as the list of its
coefficients of x^(k-j) y^j (numbers, or Polys in the other symbols); see
`Poly.forms`, `form_poly`, `convolve` and `substitute_form`.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context
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


def _pair_rank(pair):
    return _var_rank(pair[0])


def _mono(pairs):
    """Build a canonical monomial from (var, exp) pairs; drops zero exponents."""
    merged = {}
    for v, e in pairs:
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in merged.items() if e), key=_pair_rank))


def _mono_mul(m1, m2):
    """The product of two canonical monomials (positive exponents, sorted)."""
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items(), key=_pair_rank))


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


def _add_into(out, terms):
    """Add `terms` to the term dict `out` in place; a sum of zero drops its
    monomial, so `out` ends as `Poly(out) + Poly(terms)` would, in order."""
    for m, c in terms.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s += c
            if s:
                out[m] = s
            else:
                del out[m]


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def _wrap(terms):
    """The Poly on a dict of nonzero coefficients by canonical monomials, as is."""
    p = Poly.__new__(Poly)
    p.terms = terms
    return p


def as_poly(v):
    """A symbol name as its variable, a Poly as itself, any other number exact."""
    if isinstance(v, str):
        return Poly.var(v)
    if isinstance(v, Poly):
        return v
    return Poly.const(v)


def to_float(value):
    """float(value), or a ValueError naming an exact value beyond its range.
    The name is read from the top bits of numerator and denominator only:
    the decimal conversion of a whole int takes time quadratic in its
    digits."""
    try:
        return float(value)
    except OverflowError:
        ctx = Context(prec=20, Emax=MAX_EMAX, Emin=MIN_EMIN)
        bits = 4 * ctx.prec  # a decimal digit is under 4 bits
        n, d = value.numerator, value.denominator
        sn, sd = max(n.bit_length() - bits, 0), max(d.bit_length() - bits, 0)
        approx = ctx.multiply(ctx.divide(n >> sn, d >> sd), ctx.power(2, sn - sd))
        ctx.prec = 6
        raise ValueError(f"coefficient {ctx.normalize(approx)} is beyond the "
                         f"float range") from None


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
        return {v for m in self.terms for v, _ in m}

    def degree_in(self, vars=("x", "y")):
        return max((sum(e for v, e in m if v in vars) for m in self.terms),
                   default=0)

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
        _add_into(out, other.terms)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):  # keeps int coefficients int
            return _wrap({m: c * other for m, c in self.terms.items()} if other else {})
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return _wrap(out)

    __rmul__ = __mul__

    def __floordiv__(self, n):
        """The quotient by an int n that divides every coefficient exactly."""
        return _wrap({m: c // n for m, c in self.terms.items()})

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
            out[_mono(d.items())] = c * e  # distinct terms have distinct derivatives
        return Poly(out)

    def subs(self, bindings):
        """Simultaneous substitution of variables by polynomials (fully expanded)."""
        bound = {v: Poly._coerce(p) for v, p in bindings.items()}
        powers = {}  # (var, exp) -> its image, each computed once
        out = {}
        for m, c in self.terms.items():
            term = Poly.const(c)
            for pair in m:
                power = powers.get(pair)
                if power is None:
                    v, e = pair
                    base = bound.get(v)
                    power = powers[pair] = (base ** e if base is not None
                                            else Poly({(pair,): 1}))
                term = term * power
            _add_into(out, term.terms)
        return _wrap(out)

    def eval_rational(self, point):
        """Exact evaluation; every variable must be bound."""
        return self._eval(point, Fraction)

    def eval_float(self, point):
        return self._eval(point, float)

    def _eval(self, point, num):
        """The sum of the terms at `point` in the number type `num`."""
        total = num(0)
        for m, c in self.terms.items():
            val = num(c)
            for v, e in m:
                if v not in point:
                    raise UnboundVariableError(f"unbound variable '{v}'")
                val *= num(point[v]) ** e
            total += val
        return total

    # -- structure ----------------------------------------------------

    def forms(self):
        """The homogeneous parts in x, y by ascending degree k, each the list
        of its coefficients of x^(k-j) y^j, j = 0..k: 0, a Fraction, or a
        Poly in the other symbols."""
        forms = {}
        for m, c in self.terms.items():
            d = dict(m)
            i, j = d.pop("x", 0), d.pop("y", 0)
            form = forms.setdefault(i + j, [{} for _ in range(i + j + 1)])
            form[j][tuple(d.items())] = c
        # a coefficient free of other symbols is its number
        return {k: [Poly(t) if any(t) else t.get((), 0) for t in form]
                for k, form in sorted(forms.items())}

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
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        num = math.gcd(*(c.numerator * (den // c.denominator)
                         for c in self.terms.values()))
        return self * Fraction(den, num)

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
# binary forms as coefficient lists (see the module docstring)

def form_poly(c, den=1):
    """The Poly sum c_j x^(k-j) y^j / den of a coefficient list c_0..c_k,
    with Fraction coefficients."""
    k = len(c) - 1
    terms = {}
    for j, cj in enumerate(c):
        xy = tuple((v, e) for v, e in (("x", k - j), ("y", j)) if e)
        if isinstance(cj, Poly):
            for m, q in cj.terms.items():
                terms[xy + m] = Fraction(q, den)
        else:
            terms[xy] = Fraction(cj, den)
    return Poly(terms)  # drops the zero coefficients


def convolve(out, a, b):
    """Add the coefficients of the product of forms a and b into out."""
    for s, bs in enumerate(b):
        if bs:
            for t, at in enumerate(a):
                if at:
                    out[s + t] = out[s + t] + at * bs


def substitute_form(form, lx, ly):
    """The coefficient list of R(lx[0] x + lx[1] y, ly[0] x + ly[1] y) for
    the form R with coefficient list `form`.  Entries no term reaches are
    0 * lx[0]: 0.0 for a float map, an exact zero for an exact one."""
    k = len(form) - 1
    zero = 0 * lx[0]
    out = [zero] * (k + 1)
    for j, v in enumerate(form):
        part = [v]
        for linear in [lx] * (k - j) + [ly] * j:
            part, factor = [zero] * (len(part) + 1), part
            convolve(part, factor, linear)
        convolve(out, part, [1])
    return out


# ----------------------------------------------------------------------
# parser (grammar published by the CLI; implicit multiplication rejected)

MAX_NESTING = 100   # levels of "(" and unary "-"; bounds the parser's recursion
MAX_TERMS = 10_000  # term pairs one product may form; bounds its size and time
MAX_DEGREE = 100    # total degree of each term, so of the whole expression
MAX_DIGITS = 4300   # digits of one integer literal; Python's int() limit


def _degree(p):
    return max(map(_mono_degree, p.terms), default=0)


def _is_digit(ch):
    """An ASCII digit; str.isdigit also accepts digits such as '²' or '٣'."""
    return "0" <= ch <= "9"


def parse_expr(text):
    """Parse `expr := term (("+"|"-") term)*` etc. into a Poly."""
    return _Parser(text).parse()


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

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
        self.skip_ws()
        start = self.pos
        p = self.factor()
        while self.peek() == "*":
            pos = self.pos
            self.pos += 1
            f = self.factor()
            if len(p.terms) * len(f.terms) > MAX_TERMS:
                raise ParseError(f"product of more than {MAX_TERMS} terms", pos)
            p = p * f
        if _degree(p) > MAX_DEGREE:
            raise ParseError(f"degree above {MAX_DEGREE}", start)
        return p

    def factor(self):
        ch = self.peek()
        if ch in ("-", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("expression nested too deeply", self.pos)
            self.pos += 1
            if ch == "-":
                p = -self.factor()
            else:
                p = self.expr()
                if self.peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
            self.depth -= 1
            return p
        if _is_digit(ch):
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
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", self.pos)
        if self.pos - start > MAX_DIGITS:
            raise ParseError("integer literal too long", start)
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
