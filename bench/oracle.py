"""Output oracle of the benchmark, independent of the code under test.

It holds its own copy of the reference constants D1..D4 (the table in
`tests/test_acceptance.py`), a small reader and evaluator for the printed
polynomial grammar, and the digests in `reference.json`, which were taken
from the outputs of the unmodified package (see `record_reference.py`).
Nothing here imports `isoquintic`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# D1..D4 of the symbolic family, each up to a positive rational factor.
REFERENCE = [
    "2*a + 2*c",
    "-4*a*b - 4*b*c + 3*d + f + 3*h",
    "2*(-85*a^3 + 15*a*b^2 - 67*a^2*c + 15*b^2*c + 61*a*c^2 + 43*c^3"
    " - 24*b*d - 34*a*e - 22*c*e - 12*b*f - 50*a*g - 38*c*g - 48*b*h)",
    "44600*a^3*b + 2736*a*b^3 + 84696*a^2*b*c + 2736*b^3*c + 47688*a*b*c^2"
    " + 7592*b*c^3 - 37120*a^2*d - 1782*b^2*d - 32552*a*c*d - 2704*c^2*d"
    " + 2364*a*b*e + 1284*b*c*e - 2673*d*e - 6120*a^2*f - 234*b^2*f"
    " - 3384*a*c*f + 792*c^2*f - 891*e*f + 6876*a*b*g + 5076*b*c*g"
    " - 3807*d*g - 1269*f*g + 4720*a^2*h + 1098*b^2*h + 31448*a*c*h"
    " + 19456*c^2*h - 2673*e*h - 3807*g*h",
]

_SCALED = re.compile(r"^\s*(\d+)\*\((.*)\)\s*$", re.S)
_TERM = re.compile(r"([+-]?)\s*([^+-]+)")


def parse_terms(text):
    """Read a sum of monomials as printed by the package: {monomial: coeff}.

    A monomial is a sorted tuple of (symbol, exponent); coefficients are
    Fractions.  An outer integer factor `k*(...)` is accepted.
    """
    factor = Fraction(1)
    match = _SCALED.match(text)
    if match:
        factor, text = Fraction(int(match.group(1))), match.group(2)
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff = factor if sign != "-" else -factor
        mono = {}
        for part in body.split("*"):
            if part[0].isdigit():
                coeff *= Fraction(part)
            else:
                name, _, exp = part.partition("^")
                mono[name] = mono.get(name, 0) + (int(exp) if exp else 1)
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {m: c for m, c in terms.items() if c}


def evaluate(terms, point):
    """Exact value of a term dict at a {symbol: Fraction} point."""
    total = Fraction(0)
    for mono, coeff in terms.items():
        value = coeff
        for name, exp in mono:
            value *= point[name] ** exp
        total += value
    return total


def is_positive_multiple(got, want):
    """got == lam * want for some rational lam > 0 (term dicts)."""
    if set(got) != set(want) or not got:
        return False
    first = next(iter(want))
    lam = got[first] / want[first]
    return lam > 0 and all(got[m] == lam * c for m, c in want.items())


REFERENCE_TERMS = [parse_terms(t) for t in REFERENCE]


def reference_values(point):
    """D1..D4 of the family at a rational point, from the reference table."""
    return [evaluate(t, point) for t in REFERENCE_TERMS]


def first_nonzero(point):
    """(index, sign) of the first nonzero reference constant, or None."""
    for k, value in enumerate(reference_values(point), start=1):
        if value:
            return k, ("positive" if value > 0 else "negative")
    return None


def sha256(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)
