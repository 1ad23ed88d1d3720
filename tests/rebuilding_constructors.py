"""Reference constructors for the tests: ``mul``, ``_split_coeff``, ``add``
and ``_pythagoras`` as the library had them before ``add`` kept a term that
alone reaches its key.  Here every surviving term of a sum, and every
untouched term of a Pythagoras pass, is rebuilt as ``mul(Num(c), rest)``,
and ``mul`` and ``_split_coeff`` make a new ``Fraction(1)`` per call.

``rebuilding()`` swaps ``mul``, ``add`` and ``_pythagoras`` in for the
library's own wherever a loaded module holds one, so a test can build the
same trees both ways and compare them; ``_split_coeff`` is the oracle's own,
which its ``add`` calls.
"""

import contextlib
import sys
from fractions import Fraction

from bgeo import symexpr as se
from bgeo.symexpr import (ZERO, Add, Fun, Mul, Num, Pow, _cadd, _cmul,
                          _coerce, _rational_collapse, _try_collapse,
                          is_zero, powr, sort_key)


@contextlib.contextmanager
def rebuilding():
    """Within the block, every module attribute that is the library's
    mul, add or _pythagoras is this module's version."""
    swaps = {id(getattr(se, name)): globals()[name]
             for name in ("mul", "add", "_pythagoras")}
    patched = []
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if id(value) in swaps:
                patched.append((module, name, value))
                setattr(module, name, swaps[id(value)])
    try:
        yield
    finally:
        for module, name, value in patched:
            setattr(module, name, value)


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
    rewritten = _pythagoras(pairs, const)
    if rewritten is not None:
        return add(*rewritten)
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
    """One pass of c*sin(u)^2*R + c*cos(u)^2*R -> c*R over add's pairs and
    constant: the terms of the rewritten sum, or None when no pair matches.
    add rebuilds the sum from them, so like terms regroup and the rewrite
    repeats to a fixed point; each pass removes two squared trig factors."""
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
                    slot[sig] = (i, others)
    drop = set()
    terms = []
    for sig, (i, others) in sin_slots.items():
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
            terms.append(mul(Num(c1), *others))
        else:
            const = _cadd(const, c1)
    if not drop:
        return None
    return [Num(const)] + terms + [mul(Num(c), rest) for i, (c, rest)
                                   in enumerate(pairs) if i not in drop]

