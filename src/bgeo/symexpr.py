"""Symbolic scalar expressions over named coordinates.

Expression trees are canonical by construction: the module-level
constructors (add, mul, powr, fun, ...) flatten, fold rational constants,
sort, and cancel like terms, so structural equality of two expressions
built through them is already a normal-form comparison.  ``normalize``
rebuilds a tree through the constructors and is idempotent.

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
sides with different atoms are compared exactly too.  Float constants have
no exact view.

Four pieces of state make the exact path cheap, none of which changes a
tree or a verdict:

* every node caches its structural key (``sort_key``) on first use, built
  from its children's cached keys; equality, hashing and the grouping in
  ``mul`` and ``add`` read it, and it lives as long as the node;
* ``_FAILED_COLLAPSES`` maps the key of a tree whose collapse failed to
  that tree, weakly, so an equal tree built later is refused at once; an
  entry goes when its tree is freed.  A collapse depends only on the
  structure the key spells out, and any float makes it fail, so the memo
  is exact (a NaN in a key only makes the lookup miss);
* one ``_to_ratpoly`` call views each atom and each distinct compound
  subtree once and shares that view wherever the subtree repeats; the memo
  lives for the call, and the ``bgeo._poly`` functions never mutate their
  inputs;
* ``_VIEWS`` keeps a compound subtree's view across calls, keyed by the
  call's sorted atom keys and the subtree's key, weakly: the node viewed
  holds the entry's holder (``Expr._view``), so an entry lives as long as
  a node that was viewed over that atom index.  A view depends only on
  the index and the key, so a later call over the same atoms reuses it.

Numbers come from one path, the tapes of ``bgeo.evalcore``: sampled
equivalence evaluates both sides, as one two-output tape, on blocks of
candidate points and skips the non-finite ones, and ``eval_expr`` is a one-point tape call that
raises EvalDomainError where the tape gives inf or nan.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from ._poly import (poly_const, poly_mul, poly_pow, poly_quotient, poly_var,
                    rat_add, rat_mul)

__all__ = [
    "Expr", "Num", "Sym", "Add", "Mul", "Pow", "Fun", "Patch",
    "num", "sym", "add", "mul", "sub", "div", "neg", "powr", "fun",
    "ZERO", "ONE",
    "parse_expr", "to_string", "eval_expr", "diff_expr", "expr_equiv",
    "normalize", "substitute", "free_symbols", "antiderivative",
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
    # _key: the structural key, set by sort_key on first use; _view: the
    # holder of the node's last exact view, which keeps its _VIEWS entry
    __slots__ = ("_key", "_view", "__weakref__")

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return powr(self, other)

    def __neg__(self):
        return neg(self)

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

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)  # Fraction

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class Fun(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, *a):
        raise AttributeError("immutable")


_RANK = {Num: 0, Sym: 1, Fun: 2, Pow: 3, Mul: 4, Add: 5}


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


def is_zero(e):
    return isinstance(e, Num) and e.value == 0


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
    coeff = Fraction(1)
    by_base = {}   # sort_key(base) -> [base, exp]
    order = []
    for f in flat:
        if isinstance(f, Num):
            if f.value == 0:
                return ZERO
            coeff = _cmul(coeff, f.value)
            continue
        if isinstance(f, Pow):
            base, exp = f.base, f.exp
        else:
            base, exp = f, Fraction(1)
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
            coeff = _cmul(coeff, p.value)
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


def _split_coeff(t):
    """Decompose a canonical term into (coefficient, rest-or-None)."""
    if isinstance(t, Num):
        return t.value, None
    if isinstance(t, Mul) and isinstance(t.factors[0], Num):
        rest = t.factors[1:]
        rest_e = rest[0] if len(rest) == 1 else Mul(rest)
        return t.factors[0].value, rest_e
    return Fraction(1), t


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
    by_rest = {}   # sort_key(rest) -> [coeff, rest]
    order = []
    for t in flat:
        c, rest = _split_coeff(t)
        if rest is None:
            const = _cadd(const, c)
            continue
        k = sort_key(rest)
        if k in by_rest:
            by_rest[k][0] = _cadd(by_rest[k][0], c)
        else:
            by_rest[k] = [c, rest]
            order.append(k)
    pairs = [(c, rest) for c, rest in (by_rest[k] for k in order) if c != 0]
    pairs, const = _pythagoras(pairs, const)
    out = [mul(Num(c), rest) for c, rest in pairs]
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


def _pythagoras(pairs, const):
    """Single rewrite pass: c*sin(u)^2*R + c*cos(u)^2*R -> c*R."""
    sin_slots = {}
    cos_slots = {}
    for i, (c, rest) in enumerate(pairs):
        factors = rest.factors if isinstance(rest, Mul) else (rest,)
        for j, f in enumerate(factors):
            if isinstance(f, Pow) and f.exp == 2 and isinstance(f.base, Fun) \
                    and f.base.fn in ("sin", "cos"):
                others = factors[:j] + factors[j + 1:]
                sig = (sort_key(f.base.arg), tuple(sort_key(o) for o in others))
                slot = sin_slots if f.base.fn == "sin" else cos_slots
                if sig not in slot:
                    slot[sig] = (i, j, f.base.arg, others)
    if not sin_slots or not cos_slots:
        return pairs, const
    drop = set()
    extra = []
    for sig, (i, j, arg, others) in sin_slots.items():
        if sig not in cos_slots:
            continue
        i2 = cos_slots[sig][0]
        if i2 == i or i in drop or i2 in drop:
            continue
        c1, c2 = pairs[i][0], pairs[i2][0]
        if c1 != c2:
            continue
        drop.add(i)
        drop.add(i2)
        if others:
            extra.append((c1, others[0] if len(others) == 1 else Mul(others)))
        else:
            const = _cadd(const, c1)
    if not drop:
        return pairs, const
    new_pairs = [p for i, p in enumerate(pairs) if i not in drop]
    for c, rest in extra:
        cc, rr = _split_coeff(mul(Num(c), rest))
        if rr is None:
            const = _cadd(const, cc)
        else:
            new_pairs.append((cc, rr))
    return new_pairs, const


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


# sort_key -> a live node with that key whose collapse failed; an entry
# goes when its node is freed
_FAILED_COLLAPSES = weakref.WeakValueDictionary()


def _try_collapse(e):
    """e as a polynomial in its atoms when its rational view divides out
    exactly; otherwise None."""
    k = sort_key(e)
    if k in _FAILED_COLLAPSES:
        return None
    rp = expr_to_ratpoly(e)
    q = None if rp is None else poly_quotient(rp[0], rp[1])
    if q is None:
        _FAILED_COLLAPSES[k] = e
        return None
    return poly_to_expr(q, rp[2])


def neg(e):
    return mul(Num(Fraction(-1)), e)


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


class _ViewHolder:
    __slots__ = ("view", "__weakref__")

    def __init__(self, view):
        self.view = view


# (sort keys of an atom index, sort_key of a compound subtree) -> the
# holder of the subtree's view over that index; the node viewed keeps its
# holder in Expr._view, so an entry goes when no node holds it any more
_VIEWS = weakref.WeakValueDictionary()


def _view(e, n, one, memo, index):
    """The (numerator, denominator) view of e over the atom index whose
    sort keys are `index`.  memo maps the sort_key of every atom, and of
    each compound subtree already viewed in this call, to its view.  On a
    miss the view comes from _VIEWS, where an earlier call over the same
    index left it, or is built and left there.  A view depends only on the
    index and the subtree's structure, so serving it across calls changes
    nothing; views are shared and never mutated."""
    if isinstance(e, Num):
        return poly_const(e.value, n), one
    k = sort_key(e)
    r = memo.get(k)
    if r is None:
        key = (index, k)
        h = _VIEWS.get(key)
        if h is None:
            h = _ViewHolder(_compound_view(e, n, one, memo, index))
            _VIEWS[key] = h
        object.__setattr__(e, "_view", h)
        r = memo[k] = h.view
    return r


def _compound_view(e, n, one, memo, index):
    if isinstance(e, Pow):
        bn, bd = _view(e.base, n, one, memo, index)
        m = int(e.exp)
        if m < 0:
            if not bn:
                raise EvalDomainError("division by symbolic zero")
            bn, bd, m = bd, bn, -m
        # a base of two or more monomials to the power m has at least m + 1
        if m >= _POLY_MONOMIAL_LIMIT and max(len(bn), len(bd)) > 1:
            raise _PolyOverflow
        r = poly_pow(bn, m), poly_pow(bd, m)
        if max(len(r[0]), len(r[1])) > _POLY_MONOMIAL_LIMIT:
            raise _PolyOverflow
        return r
    if isinstance(e, Mul):
        r, op, parts = (one, one), rat_mul, e.factors
    elif isinstance(e, Add):
        r, op, parts = ({}, one), rat_add, e.terms
    else:
        raise TypeError
    for part in parts:
        r = op(r, _view(part, n, one, memo, index))
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
        index = tuple(memo)
        return [_view(e, n, one, memo, index) for e in exprs], tuple(atoms)
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
# structural operations


def normalize(e):
    """Rebuild through the canonical constructors (idempotent)."""
    if isinstance(e, Num):
        return Num(e.value)
    if isinstance(e, Sym):
        return e
    if isinstance(e, Add):
        return add(*[normalize(t) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[normalize(f) for f in e.factors])
    if isinstance(e, Pow):
        return powr(normalize(e.base), e.exp)
    if isinstance(e, Fun):
        return fun(e.fn, normalize(e.arg))
    raise TypeError(f"not an Expr: {e!r}")


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
# evaluation


def eval_expr(e, point, params=None):
    """Evaluate at a point (dict name -> float), as a one-point tape call.
    Raises EvalDomainError on poles, non-finite results and unbound
    symbols instead of returning them."""
    # imported here: bgeo.evalcore._tape imports this module
    from .evalcore import compile_tape, evaluate_tape

    env = dict(point)
    if params:
        env.update(params)
    try:
        tape = compile_tape(e, tuple(env))
    except KeyError:
        unbound = sorted(free_symbols(e) - env.keys())
        raise EvalDomainError(f"unbound symbol '{unbound[0]}'") from None
    v = float(evaluate_tape(tape, [[float(x) for x in env.values()]])[0])
    if not math.isfinite(v):
        raise EvalDomainError(f"non-finite value {v}")
    return v


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
            c, rest = _split_coeff(t)
            if i and ((isinstance(c, Fraction) and c < 0) or (isinstance(c, float) and c < 0)):
                tpos = mul(Num(-c), rest) if rest is not None else Num(-c)
                s, p = _fmt(tpos)
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


def parse_expr(text, patch, extra_params=()):
    """Parse an infix expression; identifiers must be patch coordinates or
    declared parameters.  Any text that is not a str is an ExprSyntaxError."""
    if not isinstance(text, str):
        raise ExprSyntaxError("an expression must be a string, got %s"
                              % type(text).__name__, 0)
    allowed = set(patch.names) | set(patch.params) | set(extra_params)
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
            c = _parse_number(val, pos)
            if isinstance(c.value, float):
                raise ExprSyntaxError("exponent must be rational", pos)
            value = c.value
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

    def with_coordinate(self, name, interval, period=None):
        return Patch(self.names + (name,), self.intervals + (tuple(interval),),
                     self.periods + (period,), self.params)

    def random_point(self, rng, margin=1e-3):
        pt = {}
        for nm, (a, b) in zip(self.names, self.intervals):
            w = b - a
            pt[nm] = float(rng.uniform(a + margin * w, b - margin * w))
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


def expr_equiv(e1, e2, patch, n_points=64, tol=1e-9, seed=0, params=None):
    """Semidecision: exact on rational functions of the atoms, randomized
    numeric sampling otherwise.  True is reliable up to sampling; False means
    a genuine countersample (or distinct polynomials) was found."""
    a, b = normalize(e1), normalize(e2)
    if a == b:
        return True
    rp = _to_ratpoly([a, b])
    if rp is not None:
        ((n1, d1), (n2, d2)), _ = rp
        if poly_mul(n1, d2) == poly_mul(n2, d1):
            return True
        # distinct rational functions of independent atoms; atoms may still
        # satisfy relations (e.g. trig identities), so fall through to sampling
    # imported here: bgeo.evalcore._tape imports this module
    from .evalcore import compile_tape, evaluate_tape

    rng = np.random.default_rng(seed)
    fixed_params = dict(params) if params else None
    names = patch.names + (tuple(fixed_params) if fixed_params is not None
                           else patch.params)
    good = 0
    try:
        tape = compile_tape([a, b], names)
    except KeyError:   # an unbound symbol: no point can be evaluated
        tape = None
    # candidates are drawn in blocks of n_points, up to 40 blocks, and
    # decided in draw order: the first n_points finite ones must all agree
    for _ in range(40 if tape is not None else 0):
        rows = []
        for _ in range(n_points):
            env = patch.random_point(rng)
            env.update(fixed_params if fixed_params is not None
                       else patch.random_params(rng))
            rows.append([float(env[n]) for n in names])
        rows = np.array(rows)
        v1, v2 = evaluate_tape(tape, rows)
        ok = np.isfinite(v1) & np.isfinite(v2)
        v1, v2 = v1[ok][:n_points - good], v2[ok][:n_points - good]
        if (np.abs(v1 - v2)
                > tol * (1.0 + np.maximum(np.abs(v1), np.abs(v2)))).any():
            return False
        good += len(v1)
        if good >= n_points:
            return True
    raise EquivalenceInconclusive(
        f"only {good}/{n_points} valid sample points for equivalence test")


def antiderivative(e, name):
    """Antiderivative in `name` for the closed-form fragment we support
    (polynomials in `name`, sin/cos/exp of affine arguments, and linear
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
        if free_symbols(darg) & {name}:
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
