"""Symbolic scalar expressions over named coordinates.

Expression trees are canonical by construction: the module-level
constructors (add, mul, powr, fun, ...) flatten, fold rational constants,
sort, and cancel like terms, so structural equality of two expressions
built through them is a normal-form comparison, with one exception: a
lone reciprocal of a sum is kept as it is.  With A = 1/x - 1/(x + 1),
``div(1, A)`` stays ``(x^(-1) - (1 + x)^(-1))^(-1)``: ``powr`` tries no
rational collapse, and ``mul`` hands a lone factor back as it is.
``div(2, A)`` is a product, which ``mul`` collapses, and gives
``2*x + 2*x^2``.  ``expr_equiv``, not ``==``, decides between such trees.
``add`` runs its rewrite c*sin(u)^2*R + c*cos(u)^2*R -> c*R to a fixed
point, rebuilding the sum after each pass, so no library code
re-normalises a tree.

``add`` groups its terms by the key of the term without its coefficient
and hands back a term that alone reaches its key as it is.  Only the
constructors build an ``Add``, ``Mul`` or ``Pow``, so such a term is
already ``mul``'s output, collapse attempt included, and rebuilding it
would give an equal tree.  A key that several terms reach gets its term
from ``mul``, because only ``mul`` tries the rational collapse:
``div(1, A) + div(1, A)`` gives ``2*x + 2*x^2``.

Rational constants are carried exactly as fractions.Fraction; anything
transcendental degrades to float.  Folding a constant power whose exact
value would pass _FOLD_BIT_LIMIT bits is an ExprError, and so is parsing a
literal of that size or a division by an exact zero.  Equivalence testing
is exact on rational functions of the atoms and falls back to randomized
sampling.

The exact path is one view: ``_to_ratpoly`` collects the atoms (symbols,
function calls, non-integer powers) of a list of expressions into one
sorted index and gives each expression a (numerator, denominator) pair of
``bgeo._poly`` polynomials over it.  A sum over a polynomial denominator
collapses when the pair divides out exactly (``_try_collapse``;
``divide_exact`` is that collapse of a quotient), and ``expr_equiv``
compares the cross products of its two sides over their shared index, so
sides with different atoms are compared exactly too.  A sum adds its terms
over each distinct denominator first and cross-multiplies only those
groups, so a denominator that recurs among the sorted terms is multiplied
in once.  Float constants have no exact view.

Before a collapse builds that view, a modular shadow of it (``_shadow``)
restricts the tree to one line over GF(2^61 - 1); when the restricted
denominator leaves a remainder, the collapse is refused without the exact
view, which would refuse it too (the argument is in ``_try_collapse``).

The exact path is cheap through caches that live on a node or in one
call, none of which changes a tree or a verdict; the module keeps no
mutable state of its own:

* every node caches its structural key (``sort_key``) and its shadow
  (``_shadow``, None where inconclusive) on first use, each built from its
  children's cached ones; equality, hashing and the grouping in ``mul``
  and ``add`` read the key, and both live as long as the node;
* one ``_to_ratpoly`` call views each atom and each distinct compound
  subtree once and shares that view wherever the subtree repeats; the memo
  lives for the call, and the ``bgeo._poly`` functions never mutate their
  inputs.

Numbers come from one path, the tapes of ``bgeo.evalcore``: sampled
equivalence evaluates both sides, as one two-output tape, on blocks of
candidate points and skips the non-finite ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from ._poly import (poly_add, poly_const, poly_mul, poly_pow, poly_quotient,
                    poly_var, rat_add, rat_mul)

__all__ = [
    "Expr", "Num", "Sym", "Add", "Mul", "Pow", "Fun", "Patch",
    "num", "sym", "add", "mul", "sub", "div", "neg", "powr", "fun",
    "ZERO", "ONE",
    "parse_expr", "to_string", "diff_expr", "expr_equiv",
    "substitute", "free_symbols", "antiderivative",
    "divide_exact", "grid_blocks", "grid_per_axis",
    "ExprError", "ExprSyntaxError", "UnknownIdentifierError",
    "EvalDomainError", "EquivalenceInconclusive",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "abs")
# deepest nesting of parentheses, function calls, signs and exponent towers
# that parse_expr accepts; deeper input is an ExprSyntaxError rather than a
# RecursionError in the parser or in the tree walks that follow it
MAX_NESTING = 100

_COLLAPSE_TERM_LIMIT = 64
_POLY_MONOMIAL_LIMIT = 4000
# largest numerator or denominator, in bits, that folding an exact constant
# power may produce; past it the power is an ExprError rather than a long
# exact computation (10^10^10 has 3.3e10 bits).  8192 bits stay printable
# under Python's 4300-digit limit on int-to-str conversion.
_FOLD_BIT_LIMIT = 1 << 13


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownIdentifierError(ExprError):
    def __init__(self, name, pos):
        super().__init__(f"unknown identifier '{name}' (at position {pos})")
        self.name = name
        self.pos = pos


class EvalDomainError(ExprError):
    """Evaluation hit a pole, branch point, or produced a non-finite value."""


class EquivalenceInconclusive(ExprError):
    """Too few valid sample points to decide numeric equivalence."""


# ---------------------------------------------------------------------------
# nodes


class Expr:
    # _key: the structural key, set by sort_key on first use; _shadow: the
    # node's modular shadow, set by _shadow on first use.  Nodes are
    # immutable: constructors, sort_key and _shadow write through
    # object.__setattr__
    __slots__ = ("_key", "_shadow")

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_string(self)}>"

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return sort_key(self) == sort_key(other)

    def __hash__(self):
        return hash(sort_key(self))


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        # Fraction for exact rationals, float otherwise.
        object.__setattr__(self, "value", value)


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)  # Fraction


class Fun(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)


def sort_key(e):
    """The structural key of e, computed once per node from its children's
    cached keys."""
    try:
        return e._key
    except AttributeError:
        pass
    k = _structural_key(e)
    object.__setattr__(e, "_key", k)
    return k


def _structural_key(e):
    if isinstance(e, Num):
        v = e.value
        if isinstance(v, Fraction):
            return (0, 0, v.numerator, v.denominator)
        return (0, 1, v, 1)
    if isinstance(e, Sym):
        return (1, e.name)
    if isinstance(e, Fun):
        return (2, e.fn, sort_key(e.arg))
    if isinstance(e, Pow):
        return (3, sort_key(e.base), e.exp.numerator, e.exp.denominator)
    if isinstance(e, Mul):
        return (4, tuple(sort_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (5, tuple(sort_key(t) for t in e.terms))
    raise TypeError(f"not an Expr: {e!r}")


def _coerce(v):
    if isinstance(v, Expr):
        return v
    return num(v)


def num(v):
    if isinstance(v, (int, Fraction)):
        return Num(Fraction(v))
    if isinstance(v, float):
        return Num(v)
    raise TypeError(f"bad constant {v!r}")


def sym(name):
    return Sym(name)


ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))
_MINUS_ONE = Num(Fraction(-1))
_FRACTION_ONE = Fraction(1)


def is_zero(e):
    return isinstance(e, Num) and e.value == 0


# Constant arithmetic of the constructors.  Not plain * and +: only two
# Fractions stay exact, and every other pair becomes a Python float.  That
# includes an int-valued constant, such as Num(2), which plain operators
# would keep exact against a Fraction, and a float subclass such as
# numpy.float64, which they would keep as that type; both change trees.
def _cmul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _cadd(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


# ---------------------------------------------------------------------------
# canonical constructors


def powr(base, exp):
    """Power with rational exponent."""
    if isinstance(exp, Expr):
        if not (isinstance(exp, Num) and isinstance(exp.value, Fraction)):
            raise ExprError("exponent must be a rational constant")
        exp = exp.value
    if not isinstance(exp, Fraction):
        exp = Fraction(exp)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if isinstance(base, Num):
        folded = _fold_const_pow(base.value, exp)
        if folded is not None:
            return folded
    if isinstance(base, Mul) and exp.denominator == 1:
        return mul(*[powr(f, exp) for f in base.factors])
    if isinstance(base, Pow) and exp.denominator == 1:
        return powr(base.base, base.exp * exp)
    return Pow(base, exp)


def _fold_const_pow(v, exp):
    if isinstance(v, float):
        try:
            r = v ** float(exp)
        except (ValueError, OverflowError, ZeroDivisionError):
            return None
        return Num(r) if math.isfinite(r) else None
    if exp.denominator == 1:
        n = exp.numerator
        if v == 0 and n < 0:
            return None  # keep the symbolic pole; evaluation reports it
        # the result has at least abs(n) * (bits - 1) bits: check before
        # computing it, and check the exact size after
        if abs(n) * (_bits(v) - 1) > _FOLD_BIT_LIMIT \
                or _bits(r := v ** n) > _FOLD_BIT_LIMIT:
            raise ExprError(f"constant power exceeds {_FOLD_BIT_LIMIT} bits")
        return Num(r)
    # exact rational root when one exists
    if v < 0:
        return None
    def _iroot(k, r):
        if k == 0:
            return 0
        try:
            g = round(k ** (1.0 / r))
        except OverflowError:  # k is beyond float range: stay symbolic
            return None
        for c in (g - 1, g, g + 1):
            # c >= 2 has c^r >= 2^r > k once r reaches k's bit length:
            # skip it rather than build 2^r for a huge r (4^(1/10^300))
            if c >= 0 and (c < 2 or r < k.bit_length()) and c ** r == k:
                return c
        return None
    p = _iroot(v.numerator, exp.denominator)
    q = _iroot(v.denominator, exp.denominator)
    if p is None or q is None:
        return None
    return powr(Num(Fraction(p, q)), Fraction(exp.numerator))


def _bits(v):
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def mul(*factors):
    flat = []
    stack = list(factors)
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(f.factors)
        else:
            flat.append(_coerce(f))
    coeff = _FRACTION_ONE
    by_base = {}   # sort_key(base) -> [base, exp]
    order = []
    for f in flat:
        if isinstance(f, Num):
            if f.value == 0:
                return ZERO
            coeff = _fold(coeff, f.value)
            continue
        if isinstance(f, Pow):
            base, exp = f.base, f.exp
        else:
            base, exp = f, _FRACTION_ONE
        k = sort_key(base)
        if k in by_base:
            by_base[k][1] += exp
        else:
            by_base[k] = [base, exp]
            order.append(k)
    out = []
    for k in order:
        base, exp = by_base[k]
        p = powr(base, exp)
        if isinstance(p, Num):
            if p.value == 0:
                return ZERO
            coeff = _fold(coeff, p.value)
        else:
            out.append(p)
    out.sort(key=sort_key)
    if not out:
        return Num(coeff)
    if coeff == 0:
        return ZERO
    if any(isinstance(f, Add) for f in out):
        # distribute over sums so that like terms can cancel; powers of
        # sums (including negative ones) stay factored
        combos = [[Num(coeff)] + [f for f in out if not isinstance(f, Add)]]
        for f in out:
            if isinstance(f, Add):
                combos = [c + [t] for c in combos for t in f.terms]
        return add(*[mul(*c) for c in combos])
    if coeff != 1 or isinstance(coeff, float):
        out.insert(0, Num(coeff))
    if len(out) == 1:
        return out[0]
    result = Mul(out)
    if any(isinstance(f, Pow) and f.exp < 0 and f.exp.denominator == 1
           and isinstance(f.base, Add) for f in out):
        collapsed = _try_collapse(result)
        if collapsed is not None:
            return collapsed
    return result


def _fold(coeff, v):
    """mul's coefficient times the constant v; a coefficient that is still
    the 1 mul starts from takes v as it is (1.0 * v is v, bit for bit)."""
    return v if coeff is _FRACTION_ONE else _cmul(coeff, v)


def add(*terms):
    flat = []
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(t.terms)
        else:
            flat.append(_coerce(t))
    const = Fraction(0)
    # key -> [coeff, rest, the term that alone reached the key, or None
    # once a second term merged in]
    by_rest = {}
    order = []
    for t in flat:
        if isinstance(t, Num):
            const = _cadd(const, t.value)
            continue
        c, rest, k = _term_key(t)
        if k in by_rest:
            entry = by_rest[k]
            entry[0] = _cadd(entry[0], c)
            entry[2] = None
        else:
            by_rest[k] = [c, rest, t]
            order.append(k)
    entries = [e for e in (by_rest[k] for k in order) if e[0] != 0]
    rewritten = _pythagoras(entries, const)
    if rewritten is not None:
        return add(*rewritten)
    out = [_term(*e) for e in entries]
    out = [t for t in out if not is_zero(t)]
    if const != 0 or isinstance(const, float):
        out.append(Num(const))
    if not out:
        return ZERO
    out.sort(key=sort_key)
    if len(out) == 1:
        result = out[0]
    else:
        result = Add(out)
    collapsed = _rational_collapse(result)
    return collapsed if collapsed is not None else result


def _term_key(t):
    """A canonical term that is not a constant as add keys it: (its
    coefficient, the tuple of its other factors, the key of their product).
    The key is read from the factors, as _structural_key keys a Mul, so no
    product is built for it."""
    if isinstance(t, Mul):
        rest = t.factors
        if not isinstance(rest[0], Num):
            return _FRACTION_ONE, rest, sort_key(t)
        c, rest = rest[0].value, rest[1:]
        if len(rest) > 1:
            return c, rest, (4, tuple(sort_key(f) for f in rest))
        return c, rest, sort_key(rest[0])
    return _FRACTION_ONE, (t,), sort_key(t)


def _term(c, rest, term):
    """add's term for one entry: the term that alone reached its key, as
    it is, or else c times the factors rest through mul, which tries the
    rational collapse."""
    return term if term is not None else mul(Num(c), *rest)


def _pythagoras(entries, const):
    """One pass of c*sin(u)^2*R + c*cos(u)^2*R -> c*R over add's entries
    and constant: the terms of the rewritten sum, or None when no pair
    matches.  add rebuilds the sum from them, so like terms regroup and the
    rewrite repeats to a fixed point; each pass removes two squared trig
    factors."""
    sin_slots = {}
    cos_slots = {}
    for i, (c, factors, _) in enumerate(entries):
        for j, f in enumerate(factors):
            if isinstance(f, Pow) and f.exp == 2 and isinstance(f.base, Fun) \
                    and f.base.fn in ("sin", "cos"):
                others = factors[:j] + factors[j + 1:]
                sig = (sort_key(f.base.arg), tuple(sort_key(o) for o in others))
                slot = sin_slots if f.base.fn == "sin" else cos_slots
                if sig not in slot:
                    slot[sig] = (i, others)
    drop = set()
    terms = []
    for sig, (i, others) in sin_slots.items():
        if sig not in cos_slots:
            continue
        i2 = cos_slots[sig][0]
        if i2 == i or i in drop or i2 in drop:
            continue
        c1, c2 = entries[i][0], entries[i2][0]
        if c1 != c2:
            continue
        drop.add(i)
        drop.add(i2)
        if others:
            terms.append(mul(Num(c1), *others))
        else:
            const = _cadd(const, c1)
    if not drop:
        return None
    return [Num(const)] + terms + [_term(*e) for i, e in enumerate(entries)
                                   if i not in drop]


def _has_neg_pow(e):
    if isinstance(e, Pow):
        return e.exp < 0 and e.exp.denominator == 1
    if isinstance(e, Mul):
        return any(_has_neg_pow(f) for f in e.factors)
    return False


def _rational_collapse(e):
    """Cancel a common polynomial denominator inside a sum, if exact."""
    if not isinstance(e, Add):
        return None
    if len(e.terms) > _COLLAPSE_TERM_LIMIT:
        return None
    if not any(_has_neg_pow(t) for t in e.terms):
        return None
    return _try_collapse(e)


def _try_collapse(e):
    """e as a polynomial in its atoms when its rational view divides out
    exactly; otherwise None.

    The modular shadow (``_shadow``) is asked first.  Let A be the
    polynomials in the atoms over the rationals with no factor p in a
    denominator, and phi: A -> GF(p)[t] the ring homomorphism that sends
    each atom to its point a + b*t.  Every subtree the shadow views is a
    quotient N/D with N, D in A and phi(D) != 0, and the shadow holds
    phi(N/D) = phi(N)/phi(D) as a pair of coefficient lists (any pair:
    how it sums fractions does not matter).  Suppose e is a polynomial Q
    over the rationals, so N = Q*D.  D is p-primitive because phi(D) != 0,
    so Gauss's lemma over the p-integers puts Q in A, and phi(N) =
    phi(Q)*phi(D): the restricted denominator divides the restricted
    numerator.  So when a nonconstant restricted denominator leaves a
    nonzero remainder, e is no polynomial, the exact path would refuse
    too, and the collapse is refused without an exact view.  The shadow is
    inconclusive, and the exact path runs, on a float constant, a Fraction
    whose denominator p divides, a negative power of a base that restricts
    to zero, and a degree past _SHADOW_DEGREE_LIMIT on the way, which
    every power of _POLY_MONOMIAL_LIMIT or more of a nonconstant base
    passes."""
    s = _shadow(e)
    if s is not None and _shadow_rem(*s):
        return None
    rp = expr_to_ratpoly(e)
    q = None if rp is None else poly_quotient(rp[0], rp[1])
    if q is None:
        return None
    return poly_to_expr(q, rp[2])


def neg(e):
    return mul(_MINUS_ONE, e)


def sub(a, b):
    return add(a, neg(b))


def div(a, b):
    return mul(a, powr(b, Fraction(-1)))


def fun(fn, arg):
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function '{fn}'")
    arg = _coerce(arg)
    if isinstance(arg, Num):
        v = arg.value
        if fn == "abs":
            return Num(abs(v))
        if v == 0:
            return {"sin": ZERO, "cos": ONE, "exp": ONE, "log": None}[fn] \
                if fn != "log" else _raise_log0()
        if fn == "log" and v == 1:
            return ZERO
        if isinstance(v, float):
            try:
                return Num(getattr(math, fn)(v))
            except ValueError as exc:
                raise EvalDomainError(str(exc)) from exc
            except OverflowError as exc:
                raise EvalDomainError(f"{fn}({v!r}) overflows") from exc
    return Fun(fn, arg)


def _raise_log0():
    raise EvalDomainError("log(0)")


# ---------------------------------------------------------------------------
# rational-function view


class _PolyOverflow(Exception):
    pass


def _collect_atoms(e, atoms, seen):
    if isinstance(e, Num):
        if isinstance(e.value, float):
            raise _PolyOverflow  # float constants: no exact path
        return
    if isinstance(e, (Sym, Fun)):
        k = sort_key(e)
        if k not in seen:
            seen.add(k)
            atoms.append(e)
        return
    if isinstance(e, Pow):
        if e.exp.denominator == 1:
            _collect_atoms(e.base, atoms, seen)
        else:
            k = sort_key(e)
            if k not in seen:
                seen.add(k)
                atoms.append(e)
        return
    if isinstance(e, Add):
        for t in e.terms:
            _collect_atoms(t, atoms, seen)
        return
    if isinstance(e, Mul):
        for f in e.factors:
            _collect_atoms(f, atoms, seen)
        return
    raise TypeError


def _view(e, n, one, memo):
    """The (numerator, denominator) view of e over the call's atom index.
    memo maps the sort_key of every atom, and of each compound subtree
    already viewed in this call, to its view; views are shared and never
    mutated."""
    if isinstance(e, Num):
        return poly_const(e.value, n), one
    k = sort_key(e)
    r = memo.get(k)
    if r is None:
        r = memo[k] = _compound_view(e, n, one, memo)
    return r


def _compound_view(e, n, one, memo):
    if isinstance(e, Pow):
        bn, bd = _view(e.base, n, one, memo)
        m = int(e.exp)
        if m < 0:
            if not bn:
                raise EvalDomainError("division by symbolic zero")
            bn, bd, m = bd, bn, -m
        # a base of two or more monomials to the power m has at least m + 1
        if m >= _POLY_MONOMIAL_LIMIT and max(len(bn), len(bd)) > 1:
            raise _PolyOverflow
        return _within_limit((poly_pow(bn, m), poly_pow(bd, m)))
    if isinstance(e, Mul):
        r = one, one
        for f in e.factors:
            r = _within_limit(rat_mul(r, _view(f, n, one, memo)))
        return r
    if not isinstance(e, Add):
        raise TypeError
    r = {}, one
    for g in _by_denominator([_view(t, n, one, memo)
                              for t in e.terms], poly_add):
        r = _within_limit(rat_add(r, g))
    return r


def _by_denominator(views, add):
    """The (numerator, denominator) views of a sum's terms as one pair per
    distinct denominator, its numerators summed by add, so that a
    denominator is multiplied in once however the sorted terms
    interleave."""
    groups = []
    for vn, vd in views:
        for g in groups:
            if g[1] == vd:
                g[0] = add(g[0], vn)
                break
        else:
            groups.append([vn, vd])
    return groups


def _within_limit(r):
    if max(len(r[0]), len(r[1])) > _POLY_MONOMIAL_LIMIT:
        raise _PolyOverflow
    return r


def _to_ratpoly(exprs):
    """(views, atoms): one (numerator, denominator) pair per expression,
    all over one sorted atom index, or None when some expression has no
    exact view (a float constant, a division by a symbolic zero, or more
    than _POLY_MONOMIAL_LIMIT monomials on the way)."""
    atoms, seen = [], set()
    try:
        for e in exprs:
            _collect_atoms(e, atoms, seen)
        atoms.sort(key=sort_key)
        n = len(atoms)
        one = poly_const(Fraction(1), n)
        memo = {sort_key(a): (poly_var(i, n), one)
                for i, a in enumerate(atoms)}
        return [_view(e, n, one, memo) for e in exprs], tuple(atoms)
    except (_PolyOverflow, EvalDomainError):
        return None


def expr_to_ratpoly(e):
    """Express e as num/den polynomials over its sorted atoms, or None."""
    rp = _to_ratpoly([e])
    if rp is None:
        return None
    ((numer, denom),), atoms = rp
    return numer, denom, atoms


def poly_to_expr(p, atoms):
    terms = []
    for key, c in p.items():
        factors = [Num(c)]
        for a, e in zip(atoms, key):
            if e:
                factors.append(powr(a, Fraction(e)))
        terms.append(mul(*factors))
    return add(*terms) if terms else ZERO


def divide_exact(e, f):
    """Return e / f as an expression iff the quotient is exact as a rational
    function (no leftover denominator in f's atoms); otherwise None."""
    return _try_collapse(div(e, f))


# ---------------------------------------------------------------------------
# modular shadow of the rational view


# the shadow's field is GF(p) for this prime, 2^61 - 1
_SHADOW_P = (1 << 61) - 1
# highest degree a shadow may reach; past it the shadow is inconclusive.
# Its lists are dense, so a product costs degree^2 where the exact view of
# a monomial costs nothing: with _POLY_MONOMIAL_LIMIT here, parsing
# x^3000/(x + 1) + y took 0.69 s against 0.11 s for the exact path alone
# (2-core x86_64 host).  The six seeded property suites reach degree 5.
_SHADOW_DEGREE_LIMIT = 64


def _shadow(e):
    """e restricted to the shadow's line over GF(p): a (numerator,
    denominator) pair of coefficient lists, lowest degree first, with no
    trailing zero and a nonzero denominator; None where the shadow is
    inconclusive (see _try_collapse).  An atom's point a + b*t depends only
    on its key, so the shadow of a subtree does too.  A node other than a
    constant keeps its shadow, None included, from its first call, as
    sort_key keeps the key."""
    if isinstance(e, Num):
        v = e.value
        if isinstance(v, float) or v.denominator % _SHADOW_P == 0:
            return None
        c = v.numerator * pow(v.denominator, -1, _SHADOW_P) % _SHADOW_P
        return ([c] if c else []), [1]
    try:
        return e._shadow
    except AttributeError:
        pass
    if isinstance(e, Add):
        r = _sum_shadow(e)
    elif isinstance(e, Mul):
        r = _mul_shadow(e)
    elif isinstance(e, Pow) and e.exp.denominator == 1:
        r = _pow_shadow(e)
    else:
        r = _atom_point(sort_key(e)), [1]
    object.__setattr__(e, "_shadow", r)
    return r


def _atom_point(k):
    """The point a + b*t of the atom whose sort key is k: powers of 3 and
    of 5 (never 0 mod p) to the bytes of repr(k), the same in every
    process."""
    x = int.from_bytes(repr(k).encode(), "little") % (_SHADOW_P - 1)
    return [pow(3, x, _SHADOW_P), pow(5, x, _SHADOW_P)]


def _pow_shadow(e):
    s = _shadow(e.base)
    if s is None:
        return None
    bn, bd = s
    m = int(e.exp)
    if m < 0:
        if not bn:
            return None   # a pole of the restriction, maybe not of e
        bn, bd, m = bd, bn, -m
    if m * (max(len(bn), len(bd)) - 1) > _SHADOW_DEGREE_LIMIT:
        return None
    return _spow(bn, m), _spow(bd, m)


def _mul_shadow(e):
    n = d = [1]
    for f in e.factors:
        s = _shadow(f)
        if s is None:
            return None
        n, d = _smul(n, s[0]), _smul(d, s[1])
        if max(len(n), len(d)) > _SHADOW_DEGREE_LIMIT + 1:
            return None
    return n, d


def _sum_shadow(e):
    views = [_shadow(t) for t in e.terms]
    if None in views:
        return None
    groups = _by_denominator(views, _sadd)
    n, d = groups[0]
    for gn, gd in groups[1:]:
        n, d = _sadd(_smul(n, gd), _smul(gn, d)), _smul(d, gd)
        if max(len(n), len(d)) > _SHADOW_DEGREE_LIMIT + 1:
            return None
    return n, d


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _sadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % _SHADOW_P
    return _trim(out)


def _smul(a, b):
    """a*b in GF(p)[t]; its leading coefficient, the product of two
    nonzero ones, is nonzero."""
    if not a or not b:
        return []
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return [y * c % _SHADOW_P for y in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return [c % _SHADOW_P for c in out]


def _spow(a, m):
    out = [1]
    while m:
        if m & 1:
            out = _smul(out, a)
        m >>= 1
        if m:
            a = _smul(a, a)
    return out


def _shadow_rem(n, d):
    """Whether d leaves a nonzero remainder in n, in GF(p)[t]; never when
    d is a constant."""
    r = n[:]
    k = len(d) - 1
    inv = pow(d[-1], -1, _SHADOW_P)
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i] * inv % _SHADOW_P
        if c:
            for j in range(k):
                r[i - k + j] = (r[i - k + j] - c * d[j]) % _SHADOW_P
    return any(r[:k])


# ---------------------------------------------------------------------------
# structural operations


def free_symbols(e):
    out = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Sym):
            out.add(x.name)
        elif isinstance(x, Add):
            stack.extend(x.terms)
        elif isinstance(x, Mul):
            stack.extend(x.factors)
        elif isinstance(x, Pow):
            stack.append(x.base)
        elif isinstance(x, Fun):
            stack.append(x.arg)
    return out


def substitute(e, subs):
    """subs maps symbol names to expressions (or numbers)."""
    subs = {k: _coerce(v) for k, v in subs.items()}

    def go(x):
        if isinstance(x, Sym):
            return subs.get(x.name, x)
        if isinstance(x, Num):
            return x
        if isinstance(x, Add):
            return add(*[go(t) for t in x.terms])
        if isinstance(x, Mul):
            return mul(*[go(f) for f in x.factors])
        if isinstance(x, Pow):
            return powr(go(x.base), x.exp)
        if isinstance(x, Fun):
            return fun(x.fn, go(x.arg))
        raise TypeError

    return go(e)


def diff_expr(e, name):
    """Symbolic partial derivative with respect to a coordinate name."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*[diff_expr(t, name) for t in e.terms])
    if isinstance(e, Mul):
        terms = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = diff_expr(f, name)
            if is_zero(df):
                continue
            terms.append(mul(df, *fs[:i], *fs[i + 1:]))
        return add(*terms) if terms else ZERO
    if isinstance(e, Pow):
        db = diff_expr(e.base, name)
        if is_zero(db):
            return ZERO
        return mul(Num(e.exp), powr(e.base, e.exp - 1), db)
    if isinstance(e, Fun):
        da = diff_expr(e.arg, name)
        if is_zero(da):
            return ZERO
        u = e.arg
        outer = {
            "sin": lambda: fun("cos", u),
            "cos": lambda: neg(fun("sin", u)),
            "exp": lambda: fun("exp", u),
            "log": lambda: powr(u, Fraction(-1)),
            # derivative of |u| is u/|u|; undefined (evaluation error) at u=0
            "abs": lambda: div(u, fun("abs", u)),
        }[e.fn]()
        return mul(outer, da)
    raise TypeError


# ---------------------------------------------------------------------------
# printing


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def to_string(e):
    return _fmt(e)[0]


def _fmt(e):
    """Return (string, precedence of outermost operator)."""
    if isinstance(e, Num):
        v = e.value
        if isinstance(v, Fraction):
            s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            prec = _PREC_ATOM if v >= 0 and v.denominator == 1 else \
                (_PREC_UNARY if v < 0 and v.denominator == 1 else _PREC_MUL)
            return s, prec
        s = repr(v)
        return s, (_PREC_ATOM if v >= 0 else _PREC_UNARY)
    if isinstance(e, Sym):
        return e.name, _PREC_ATOM
    if isinstance(e, Fun):
        return f"{e.fn}({to_string(e.arg)})", _PREC_ATOM
    if isinstance(e, Pow):
        b, bp = _fmt(e.base)
        if bp <= _PREC_POW:
            b = f"({b})"
        x = e.exp
        if x.denominator == 1 and x >= 0:
            return f"{b}^{x.numerator}", _PREC_POW
        xs = str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        return f"{b}^({xs})", _PREC_POW
    if isinstance(e, Mul):
        numer, denom = [], []
        for f in e.factors:
            if isinstance(f, Pow) and f.exp < 0:
                denom.append(powr(f.base, -f.exp))
            else:
                numer.append(f)
        def fmt_factor(f, prec_floor):
            s, p = _fmt(f)
            return f"({s})" if p < prec_floor else s
        if numer:
            s = "*".join(fmt_factor(f, _PREC_MUL + (1 if i else 0))
                         for i, f in enumerate(numer))
        else:
            s = "1"
        for f in denom:
            s += "/" + fmt_factor(f, _PREC_MUL + 1)
        return s, _PREC_MUL
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            c, rest = ((t.value, ()) if isinstance(t, Num)
                       else _term_key(t)[:2])
            if i and c < 0:
                s, p = _fmt(mul(Num(-c), *rest))
                parts.append(" - " + (f"({s})" if p < _PREC_ADD else s))
            else:
                s, p = _fmt(t)
                joined = f"({s})" if p < _PREC_ADD else s
                parts.append((" + " if i else "") + joined)
        return "".join(parts), _PREC_ADD
    raise TypeError


# ---------------------------------------------------------------------------
# parser


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^()":
                self.toks.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] in "eE" and (
                        j + 1 < n and (text[j + 1].isdigit()
                                       or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit()))):
                    j += 2
                    while j < n and text[j].isdigit():
                        j += 1
                self.toks.append(("num", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("ident", text[i:j], i))
                i = j
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        self.toks.append(("end", "", n))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t


def parse_expr(text, patch):
    """Parse an infix expression; identifiers must be patch coordinates or
    declared parameters.  Any text that is not a str is an ExprSyntaxError."""
    if not isinstance(text, str):
        raise ExprSyntaxError("an expression must be a string, got %s"
                              % type(text).__name__, 0)
    allowed = set(patch.names) | set(patch.params)
    toks = _Tokens(text)
    depth = 0

    def nest(step, pos):
        nonlocal depth
        depth += step
        if depth > MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", pos)

    def parse_sum():
        e = parse_product()
        while True:
            kind, _, _ = toks.peek()
            if kind == "+":
                toks.next()
                e = add(e, parse_product())
            elif kind == "-":
                toks.next()
                e = sub(e, parse_product())
            else:
                return e

    def parse_product():
        e = parse_unary()
        while True:
            kind, _, _ = toks.peek()
            if kind == "*":
                toks.next()
                e = mul(e, parse_unary())
            elif kind == "/":
                toks.next()
                e = mul(e, _parse_pow(parse_unary(), Fraction(-1)))
            else:
                return e

    def parse_unary():
        kind, _, pos = toks.peek()
        nest(1, pos)
        if kind == "-":
            toks.next()
            e = neg(parse_unary())
        elif kind == "+":
            toks.next()
            e = parse_unary()
        else:
            e = parse_power()
        nest(-1, pos)
        return e

    def parse_power():
        e = parse_atom()
        kind, _, pos = toks.peek()
        if kind == "^":
            toks.next()
            exp = parse_exponent()
            return _parse_pow(e, exp)
        return e

    def parse_exponent():
        # exponent: optionally signed number or parenthesized constant
        kind, val, pos = toks.peek()
        sign = Fraction(1)
        if kind == "-":
            toks.next()
            sign = Fraction(-1)
            kind, val, pos = toks.peek()
        if kind == "num":
            toks.next()
            value = _parse_number(val, pos).value
            if toks.peek()[0] == "^":  # right-associative constant tower
                toks.next()
                nest(1, pos)
                folded = _parse_pow(Num(value), parse_exponent())
                nest(-1, pos)
                if not (isinstance(folded, Num) and isinstance(folded.value, Fraction)):
                    raise ExprSyntaxError("exponent must be a rational constant", pos)
                value = folded.value
            return sign * value
        if kind == "(":
            toks.next()
            inner = parse_sum()
            _expect(")")
            if not (isinstance(inner, Num) and isinstance(inner.value, Fraction)):
                raise ExprSyntaxError("exponent must be a rational constant", pos)
            return sign * inner.value
        raise ExprSyntaxError("expected exponent", pos)

    def _expect(kind):
        k, _, pos = toks.peek()
        if k != kind:
            raise ExprSyntaxError(f"expected '{kind}'", pos)
        toks.next()

    def parse_atom():
        kind, val, pos = toks.next()
        if kind == "num":
            return _parse_number(val, pos)
        if kind == "ident":
            if val in FUNCTIONS:
                _expect("(")
                arg = parse_sum()
                _expect(")")
                return fun(val, arg)
            if val not in allowed:
                raise UnknownIdentifierError(val, pos)
            return Sym(val)
        if kind == "(":
            e = parse_sum()
            _expect(")")
            return e
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)

    e = parse_sum()
    kind, val, pos = toks.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing token {val!r}", pos)
    return e


def _parse_pow(base, exp):
    """powr for the parser, where a zero to a negative power (`x/0`,
    `0^-1`, `h/(h-h)`) is an ExprError; the constructors keep such a pole
    for evaluation to report.  The canonical constructors fold a zero
    factor or term into Num(0), so looking at the base alone suffices."""
    if isinstance(base, Num) and base.value == 0 and exp < 0:
        raise ExprError("division by zero")
    return powr(base, exp)


def _parse_number(text, pos):
    """The exact value of a decimal literal.  One whose exact value would
    pass _FOLD_BIT_LIMIT bits is an ExprSyntaxError; lower bounds on its
    size from the digits and the exponent decide before the Fraction is
    built, so that 1e999999999 fails at once."""
    try:
        d = Decimal(text)
    except (InvalidOperation, ValueError):
        raise ExprSyntaxError(f"bad number {text!r}", pos) from None
    _, digits, exp = d.as_tuple()
    nd = len(digits)
    while nd and digits[nd - 1] == 0:
        nd -= 1
    # the value is c * 10^e with c of nd digits and no factor 10, so for
    # e < 0 the reduced denominator is at least 2^-e
    e = exp + len(digits) - nd
    bound = (nd - 1 + e) * math.log2(10) if e >= 0 else -e
    if nd and bound > _FOLD_BIT_LIMIT \
            or _bits(v := Fraction(d)) > _FOLD_BIT_LIMIT:
        raise ExprSyntaxError(f"number exceeds {_FOLD_BIT_LIMIT} bits", pos)
    return Num(v)


# ---------------------------------------------------------------------------
# patch


@dataclass(frozen=True)
class Patch:
    """An ordered coordinate chart with per-coordinate domain intervals,
    optional periodicity, and declared scalar parameters.

    axis_grid gives the samples of each axis.  The grid reductions over
    the chart (min |c| in nondegeneracy checks, the Darboux extrema) read
    the tensor grid of those samples block by block from grid_blocks; no
    (n^dim, dim) array of the whole grid is built."""

    names: tuple
    intervals: tuple
    periods: tuple = None
    params: tuple = ()

    def __post_init__(self):
        names = tuple(self.names)
        intervals = tuple((float(a), float(b)) for a, b in self.intervals)
        periods = self.periods
        if periods is None:
            periods = (None,) * len(names)
        periods = tuple(periods)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "params", tuple(self.params))
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be unique")
        if not (len(names) == len(intervals) == len(periods)):
            raise ValueError("names/intervals/periods length mismatch")
        for (a, b) in intervals:
            if not a < b:
                raise ValueError(f"empty interval [{a}, {b}]")
        for p in periods:
            if p is not None and not p > 0:
                raise ValueError("period must be positive")
        if set(self.params) & set(names):
            raise ValueError("parameter names clash with coordinates")

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        return self.names.index(name)

    def without(self, name):
        i = self.index(name)
        drop = lambda t: t[:i] + t[i + 1:]
        return Patch(drop(self.names), drop(self.intervals), drop(self.periods), self.params)

    def with_coordinate(self, name, interval):
        """The patch with one more coordinate, not periodic, appended."""
        return Patch(self.names + (name,), self.intervals + (tuple(interval),),
                     self.periods + (None,), self.params)

    def random_point(self, rng):
        """A uniform point, a relative margin of 1e-3 in from the edges."""
        pt = {}
        for nm, (a, b) in zip(self.names, self.intervals):
            w = b - a
            pt[nm] = float(rng.uniform(a + 1e-3 * w, b - 1e-3 * w))
        return pt

    def random_params(self, rng):
        return {p: float(rng.uniform(0.5, 1.8)) for p in self.params}

    def axis_grid(self, n, margin=0.0):
        """Per-axis sample arrays; periodic axes omit the duplicate endpoint."""
        axes = []
        for (a, b), per in zip(self.intervals, self.periods):
            w = b - a
            lo, hi = a + margin * w, b - margin * w
            if per is not None:
                axes.append(np.linspace(lo, hi, n, endpoint=False))
            else:
                axes.append(np.linspace(lo, hi, n))
        return axes


# most points one block of grid_blocks holds, and most points of a grid
# that grid_per_axis allows; a block stays small next to the tape registers
# evaluated on it, which set the peak memory of a 4-D check
GRID_BLOCK = 1 << 16
GRID_CAP = 2_000_000


def grid_per_axis(grid, dim):
    """Points per axis of a tensor grid of at most GRID_CAP points: the
    largest n <= grid with n**dim <= GRID_CAP, but never fewer than
    min(grid, 4)."""
    if grid <= 4 or grid ** dim <= GRID_CAP:
        return grid
    n = int(GRID_CAP ** (1.0 / dim))   # the integer root, up to rounding
    while n ** dim > GRID_CAP:
        n -= 1
    while (n + 1) ** dim <= GRID_CAP:
        n += 1
    return max(n, 4)


def grid_blocks(axes):
    """The tensor grid of the 1-D sample arrays `axes`, in C order (the rows of
    np.meshgrid(*axes, indexing="ij") raveled and stacked), as fresh
    (rows, len(axes)) arrays of at most GRID_BLOCK rows each.

    A block covers whole slabs of the leading axes times the grid of the
    trailing axes that fits one block.  Its trailing columns are filled by
    broadcasting those axes and its leading columns from the slab numbers,
    so no grid larger than one block exists at once, and no per-point
    index array (a gather through np.unravel_index) is built either."""
    lens = [len(a) for a in axes]
    d = len(axes)
    if not all(lens):
        return
    lead, inner = d, 1
    while lead and inner * lens[lead - 1] <= GRID_BLOCK:
        lead -= 1
        inner *= lens[lead]
    slabs = math.prod(lens[:lead])
    step = GRID_BLOCK // inner
    for first in range(0, slabs, step):
        ids = np.arange(first, min(first + step, slabs))
        block = np.empty((len(ids) * inner, d))
        view = block.reshape((len(ids), *lens[lead:], d))
        for j in range(lead, d):   # axis j runs along its own dimension
            view[..., j] = axes[j].reshape((-1,) + (1,) * (d - 1 - j))
        view = block.reshape(len(ids), inner, d)
        for j in reversed(range(lead)):
            view[:, :, j] = axes[j][ids % lens[j], None]
            ids //= lens[j]
        yield block


# ---------------------------------------------------------------------------
# equivalence and calculus helpers


EQUIV_POINTS = 64   # finite sample points that must agree in expr_equiv
EQUIV_SEED = 0
EQUIV_TOL = 1e-9    # relative tolerance of a sampled point's agreement


def expr_equiv(e1, e2, patch):
    """Semidecision: exact on rational functions of the atoms, randomized
    numeric sampling otherwise: EQUIV_POINTS finite points, coordinates and
    declared parameters drawn alike from a generator seeded with EQUIV_SEED,
    must agree to within EQUIV_TOL relative to 1 + the larger magnitude.
    True is reliable up to sampling; False means a genuine countersample (or
    distinct polynomials) was found."""
    if e1 == e2:
        return True
    rp = _to_ratpoly([e1, e2])
    if rp is not None:
        ((n1, d1), (n2, d2)), _ = rp
        if poly_mul(n1, d2) == poly_mul(n2, d1):
            return True
        # distinct rational functions of independent atoms; atoms may still
        # satisfy relations (e.g. trig identities), so fall through to sampling
    # imported here: bgeo.evalcore._tape imports this module
    from .evalcore import compile_tape, evaluate_tape

    rng = np.random.default_rng(EQUIV_SEED)
    names = patch.names + patch.params
    good = 0
    try:
        tape = compile_tape([e1, e2], names)
    except KeyError:   # an unbound symbol: no point can be evaluated
        tape = None
    # candidates are drawn in blocks of EQUIV_POINTS, up to 40 blocks, and
    # decided in draw order: the first EQUIV_POINTS finite ones must all agree
    for _ in range(40 if tape is not None else 0):
        rows = []
        for _ in range(EQUIV_POINTS):
            env = patch.random_point(rng)
            env.update(patch.random_params(rng))
            rows.append([float(env[n]) for n in names])
        rows = np.array(rows)
        v1, v2 = evaluate_tape(tape, rows)
        ok = np.isfinite(v1) & np.isfinite(v2)
        v1, v2 = v1[ok][:EQUIV_POINTS - good], v2[ok][:EQUIV_POINTS - good]
        if (np.abs(v1 - v2)
                > EQUIV_TOL * (1.0 + np.maximum(np.abs(v1), np.abs(v2)))).any():
            return False
        good += len(v1)
        if good >= EQUIV_POINTS:
            return True
    raise EquivalenceInconclusive(
        f"only {good}/{EQUIV_POINTS} valid sample points for equivalence test")


def antiderivative(e, name):
    """Antiderivative in `name` for the closed-form fragment we support
    (polynomials in `name`, sin/cos/exp of an argument whose slope in
    `name` is a constant, never a divisor such as z in cos(z*y), and linear
    combinations whose remaining factors do not involve `name`).
    Returns None when no closed form is found."""
    x = Sym(name)
    if name not in free_symbols(e):
        return mul(e, x)
    if isinstance(e, Add):
        parts = [antiderivative(t, name) for t in e.terms]
        if any(p is None for p in parts):
            return None
        return add(*parts)
    if isinstance(e, Mul):
        const = [f for f in e.factors if name not in free_symbols(f)]
        rest = [f for f in e.factors if name in free_symbols(f)]
        if const:
            inner = antiderivative(mul(*rest), name)
            if inner is None:
                return None
            return mul(*const, inner)
        if len(rest) > 1:
            return None
        e = rest[0]
    if isinstance(e, Sym):
        return mul(Num(Fraction(1, 2)), powr(x, 2))
    if isinstance(e, Pow) and e.base == x and e.exp != -1:
        return mul(Num(1 / (e.exp + 1)), powr(x, e.exp + 1))
    if isinstance(e, Fun) and e.fn in ("sin", "cos", "exp"):
        arg = e.arg
        darg = diff_expr(arg, name)
        if not isinstance(darg, Num):
            return None
        if is_zero(darg):
            return mul(e, x)
        inv = powr(darg, Fraction(-1))
        if e.fn == "sin":
            return mul(Num(Fraction(-1)), fun("cos", arg), inv)
        if e.fn == "cos":
            return mul(fun("sin", arg), inv)
        return mul(fun("exp", arg), inv)
    return None
