"""A Poly's terms as exponent tuples, for tests that build references
from exponents."""


def sorted_terms(p):
    """(exponent tuple, coefficient) of p in descending graded lex order."""
    unpack = p.ring.unpack
    return [(unpack(e), p._terms[e]) for e in sorted(p._terms, reverse=True)]
