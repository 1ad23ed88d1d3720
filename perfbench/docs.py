"""Seeded input documents for the benchmark workloads.

Everything here is plain Python: the documents are written as bgeo/1 JSON
without importing bgeo, so the program under test only ever sees the
generated files.  The same (workload, seed, round) always gives the same
documents.
"""

import json
import math
import os
import random
from fractions import Fraction

SCHEMA = "bgeo/1"
TWO_PI = 2 * math.pi
PATCH4 = {"names": ["x1", "y1", "x2", "y2"], "intervals": [[-1.0, 1.0]] * 4}


def rng_for(workload, seed, rnd):
    return random.Random(f"{workload}:{seed}:{rnd}")


def frac(rng, lo, hi, den):
    """A short rational lo <= p/den <= hi, never 0."""
    while True:
        v = Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)),
                     den)
        if v:
            return v


def fstr(v):
    """Fraction as grammar text, parenthesised when negative."""
    s = str(v)
    return f"({s})" if v < 0 else s


def surface(topology, P, V=None):
    doc = {"schema": SCHEMA, "kind": "surface", "topology": topology, "P": P}
    if V is not None:
        doc["V"] = V
    return doc


def bform(patch, degree, f, zcoord, alpha, beta):
    return {"schema": SCHEMA, "kind": "bform", "patch": patch,
            "degree": degree, "f": f, "zcoord": zcoord,
            "alpha": alpha, "beta": beta}


# --- surfaces ----------------------------------------------------------------

def seeded_sphere(rng):
    """P = h*(c0 + c1*h + ct*cos(theta)) with V = 1.  Its only zero curve is
    h = 0 (c0 > |c1| + |ct|), where the modular field has speed
    |c0 + ct*cos(theta)|, so the period is 2*pi/sqrt(c0^2 - ct^2)."""
    c0 = frac(rng, 1.5, 2.5, 10)
    c1 = frac(rng, -0.3, 0.3, 10)
    ct = frac(rng, -0.5, 0.5, 10)
    P = f"h*({c0} + {fstr(c1)}*h + {fstr(ct)}*cos(theta))"
    return surface("sphere", P), TWO_PI / math.sqrt(float(c0 * c0 - ct * ct))


# --- moser -------------------------------------------------------------------

def moser2_pair():
    """The 2-D acceptance pair dx^dy/y and dx^dy/y + y dx^dy."""
    patch = {"names": ["x", "y"], "intervals": [[-1.0, 1.0]] * 2}
    w0 = bform(patch, 2, "y", "y", {"0": "1"}, {})
    w1 = bform(patch, 2, "y", "y", {"0": "1"}, {"0,1": "y"})
    return w0, w1


def moser4_pair(rng):
    """dx^dy/y + du^dv and the same plus the closed c1*y dx^dy + c2*y dy^du,
    which vanishes on y = 0 so both forms restrict alike."""
    patch = {"names": ["x", "y", "u", "v"], "intervals": [[-1.0, 1.0]] * 4}
    c1 = frac(rng, -0.5, 0.5, 10)
    c2 = frac(rng, -0.5, 0.5, 10)
    w0 = bform(patch, 2, "y", "y", {"0": "1"}, {"2,3": "1"})
    w1 = bform(patch, 2, "y", "y", {"0": "1"},
               {"2,3": "1", "0,1": f"{fstr(c1)}*y", "1,2": f"{fstr(c2)}*y"})
    return w0, w1


# --- symbolic ----------------------------------------------------------------

def random_poly(rng, names, scale=Fraction(1), n_terms=2, max_degree=2):
    """Sum of at most n_terms monomials with small rational coefficients."""
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * scale
        if not c:
            continue
        mono = [fstr(c)] + [rng.choice(names)
                            for _ in range(rng.randint(0, max_degree))]
        terms.append("*".join(mono))
    return " + ".join(terms) if terms else "0"


def random_comps(rng, degree, scale=Fraction(1)):
    comps = {}
    for _ in range(rng.randint(1, 2)):
        key = ",".join(str(i) for i in sorted(rng.sample(range(4), degree)))
        comps[key] = random_poly(rng, PATCH4["names"], scale)
    return comps


def random_bform4(rng, degree):
    return bform(PATCH4, degree, "y1", "y1", random_comps(rng, degree - 1),
                 random_comps(rng, degree))


def modular_case(rng):
    """A sphere structure (P, V) and a nonvanishing volume factor H."""
    c0 = frac(rng, 1.5, 2.5, 10)
    c1 = frac(rng, -0.3, 0.3, 10)
    ct = frac(rng, -0.2, 0.2, 10)
    c2 = frac(rng, -0.2, 0.2, 10)
    a = frac(rng, -0.4, 0.4, 10)
    b = frac(rng, -0.3, 0.3, 10)
    return {"surface": surface(
                "sphere", f"h*({c0} + {fstr(c1)}*h + {fstr(ct)}*cos(theta))",
                f"2 + {fstr(c2)}*h"),
            "H": f"2 + {fstr(a)}*h + {fstr(b)}*h^2"}


def cubic_bform():
    """The acceptance cubic: alpha = -(1+z2^2) dz2, f = z1, so the Darboux
    coordinate is t = z2 + z2^3/3."""
    patch = {"names": ["z1", "z2"], "intervals": [[-1.0, 1.0]] * 2}
    return bform(patch, 2, "z1", "z1", {"1": "-(1+z2^2)"}, {})


def torus3_doc(a=1, b=2):
    """Corank-one data on the 3-torus with slopes (a, b): alpha is
    (a dθ1 + b dθ2 - dθ3)/(a^2 + b^2 + 1), omega = dθ1^dθ2 + b dθ1^dθ3 -
    a dθ2^dθ3."""
    den = a * a + b * b + 1
    patch = {"names": ["theta1", "theta2", "theta3"],
             "intervals": [[0.0, TWO_PI]] * 3, "periods": [TWO_PI] * 3}
    return {"schema": SCHEMA, "kind": "zdata", "patch": patch,
            "alpha": {"0": fstr(Fraction(a, den)), "1": fstr(Fraction(b, den)),
                      "2": fstr(Fraction(-1, den))},
            "omega": {"0,1": "1", "0,2": fstr(Fraction(b)),
                      "1,2": fstr(Fraction(-a))}}


def law_case(rng, law):
    if law == "law.d_squared":
        return {"w": random_bform4(rng, rng.randint(1, 2))}
    if law == "law.leibniz":
        p = rng.randint(1, 2)
        return {"a": random_bform4(rng, p),
                "b": random_bform4(rng, rng.randint(1, 3 - p))}
    if law == "law.restriction":
        return {"w": random_bform4(rng, 2),
                "h_poly": random_poly(rng, PATCH4["names"], Fraction(1, 10))}
    if law == "law.modular":
        return modular_case(rng)
    raise ValueError(law)


# --- workloads ---------------------------------------------------------------
#
# A round is the verdict list that wall_s times; the run repeats rounds, each
# with fresh seeded documents, for as long as --seconds allows.  Every entry
# carries the closed-form reference the report is checked against.

MAX_ROUNDS = {"surfaces": 8, "moser": 8, "symbolic": 24}
# surface verdicts run at half the CLI's default grid: a round then takes
# about 11 s instead of 25 s, so a run holds two or three of them and the
# median verdict falls among the repeats of one document, not on a single
# verdict; every reference still holds at this grid
SURFACE_GRID = "32"
# 119 verdicts a round with the four CLI ones; the median verdict falls in
# the middle of the Leibniz cases, not on the edge between two laws
LAW_COUNTS = {"law.d_squared": 30, "law.leibniz": 50, "law.restriction": 30,
              "law.modular": 5}
SMALL_LAW_COUNTS = {"law.d_squared": 4, "law.leibniz": 4,
                    "law.restriction": 3, "law.modular": 1}


def write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return path


def surfaces_round(rng, rdir, small):
    grid = ["--grid", SURFACE_GRID]
    pi = math.pi

    def invariants(name, doc, periods, volume=None):
        """A sphere with one zero curve."""
        path = write(os.path.join(rdir, name + ".json"), doc)
        return {"kind": "invariants", "argv": ["invariants", path] + grid,
                "expect": {"code": 0, "n": 1, "periods": periods,
                           "volume": volume}}

    sphere, period = seeded_sphere(rng)
    t1 = write(os.path.join(rdir, "torus1.json"), surface("torus", "sin(t1)"))
    t2 = write(os.path.join(rdir, "torus2.json"),
               surface("torus", "sin(2*t1)"))
    return [
        invariants("sphere_h", surface("sphere", "h"), [2 * pi], 0.0),
        invariants("sphere_2h", surface("sphere", "2*h"), [pi], 0.0),
        invariants("sphere_asym", surface("sphere", "h*(2+h)/2"), [2 * pi],
                   2 * pi * math.log(3.0)),
        invariants("sphere_seeded", sphere, [period]),
        {"kind": "classify", "argv": ["classify", t1, t2] + grid,
         "expect": {"code": 1, "verdict": "distinct",
                    "invariants": [(2, [2 * pi] * 2, 0.0),
                                   (4, [pi] * 4, 0.0)]}},
    ]


def moser_round(rng, rdir, small):
    """The 2-D acceptance pair and three seeded 4-D pairs.  The 4-D
    verdict takes about a quarter of the 2-D one, so with three of them the
    median verdict is a 4-D one and the 90th percentile a 2-D one, instead
    of the midpoint between the two."""
    sizes = ({2: ("200", "32"), 4: ("200", "16")} if small
             else {2: ("4096", "256"), 4: ("1024", "64")})
    out = []
    pairs = [(2, moser2_pair())] + [(4, moser4_pair(rng)) for _ in range(3)]
    for k, (dim, pair) in enumerate(pairs):
        paths = [write(os.path.join(rdir, f"moser{dim}_{k}_w{i}.json"), w)
                 for i, w in enumerate(pair)]
        points, steps = sizes[dim]
        out.append({"kind": f"moser{dim}",
                    "argv": ["moser"] + paths + ["--points", points,
                                                 "--steps", steps],
                    "expect": {"code": 0, "ok": True}})
    return out


def symbolic_round(rng, rdir, small):
    counts = SMALL_LAW_COUNTS if small else LAW_COUNTS
    g, n = rng.randint(0, 5), rng.randint(1, 6)
    _, checked = moser4_pair(rng)
    out = [
        {"kind": "darboux",
         "argv": ["darboux", write(os.path.join(rdir, "cubic.json"),
                                   cubic_bform())],
         "expect": {"code": 0, "ok": True, "t": "z2 + z2^3/3"}},
        {"kind": "check",
         "argv": ["check", write(os.path.join(rdir, "bform4.json"), checked)],
         "expect": {"code": 0, "components": [["y", 0.0]]}},
        {"kind": "extend",
         "argv": ["extend", write(os.path.join(rdir, "torus3.json"),
                                  torus3_doc(1, 2))],
         "expect": {"code": 0, "ok": True, "components": [0.0]}},
        {"kind": "cohomology", "argv": ["cohomology", "--surface", f"{g},{n}"],
         "expect": {"code": 0, "b_betti": [1, n + 2 * g, n + 1]}},
    ]
    cases = {law: [law_case(rng, law) for _ in range(k)]
             for law, k in counts.items()}
    path = write(os.path.join(rdir, "laws.json"), cases)
    for law, k in counts.items():
        out += [{"kind": law, "law_file": path, "index": i,
                 "expect": {"holds": True}} for i in range(k)]
    return out


ROUNDS = {"surfaces": surfaces_round, "moser": moser_round,
          "symbolic": symbolic_round}
# the verdicts of the untimed warm-up round: the cheapest of each kind,
# so every code path has run once before the first timed round
WARMUP = {"surfaces": lambda entries: entries[:1],
          "moser": lambda entries: entries[1:2],
          "symbolic": lambda entries: entries[:4] + [
              next(e for e in entries if e["kind"] == law)
              for law in LAW_COUNTS]}


def write_workload(workload, seed, outdir, small=False):
    """Write every round's documents under outdir and a manifest.json that
    lists the verdicts with their references, and the warm-up verdicts on
    documents of their own."""
    rounds = []
    for r in range(1 if small else MAX_ROUNDS[workload]):
        rdir = os.path.join(outdir, f"r{r:02d}")
        os.makedirs(rdir, exist_ok=True)
        rounds.append(ROUNDS[workload](rng_for(workload, seed, r), rdir,
                                       small))
    wdir = os.path.join(outdir, "warmup")
    os.makedirs(wdir, exist_ok=True)
    warmup = WARMUP[workload](ROUNDS[workload](
        rng_for(workload, seed, "warmup"), wdir, True))
    write(os.path.join(outdir, "manifest.json"),
          {"workload": workload, "seed": seed, "rounds": rounds,
           "warmup": warmup})
