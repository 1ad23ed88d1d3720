"""The bytes of the CLI's reports, pinned.

Each case writes its own small documents, runs one verdict in process and
pins the exit code and the sha256 of what it prints, as TREE_DIGEST in
test_properties.py pins canonical trees.  A change that moves a report by
one byte fails here; re-pin it only with a reason for the new bytes.
"""

import hashlib
import json
import math

import pytest

from bgeo import cli

TWO_PI = 2 * math.pi


def surface(topology, P, V="1"):
    return {"schema": "bgeo/1", "kind": "surface", "topology": topology,
            "P": P, "V": V, "orientation": 1}


def bform(names, zcoord, f, alpha, beta, intervals=None):
    return {"schema": "bgeo/1", "kind": "bform", "degree": 2,
            "zcoord": zcoord, "f": f,
            "patch": {"names": list(names),
                      "intervals": intervals or [[-1, 1]] * len(names),
                      "periods": [None] * len(names)},
            "alpha": alpha, "beta": beta}


TORUS3 = {"schema": "bgeo/1", "kind": "zdata",
          "patch": {"names": ["theta1", "theta2", "theta3"],
                    "intervals": [[0, TWO_PI]] * 3,
                    "periods": [TWO_PI] * 3},
          "alpha": {"0": "1/6", "1": "1/3", "2": "-1/6"},
          "omega": {"0,1": "1", "0,2": "2", "1,2": "-1"}}

MOSER0 = bform(("x", "y"), "y", "y", {"0": "1"}, {})
MOSER1 = bform(("x", "y"), "y", "y", {"0": "1"}, {"0,1": "y"})

# per case: the command with its documents and knobs
CASES = {
    "sphere": ["invariants", surface("sphere", "h"), "--grid", "16"],
    "scaled-sphere": ["invariants", surface("sphere", "2*h"), "--grid", "16"],
    "asymmetric-sphere": ["invariants", surface("sphere", "h*(2+h)/2"),
                          "--grid", "16"],
    "torus-pair": ["classify", surface("torus", "sin(t1)"),
                   surface("torus", "sin(2*t1)"), "--grid", "16"],
    "darboux-cubic": ["darboux", bform(("z1", "z2"), "z1", "z1",
                                       {"1": "-(1+z2^2)"}, {})],
    "check-4d": ["check", bform(("x1", "y1", "x2", "y2"), "y1", "y1",
                                {"0": "1"}, {"2,3": "2 + x1*x2/4"}),
                 "--grid", "8"],
    "moser-2d": ["moser", MOSER0, MOSER1, "--points", "20", "--steps", "16"],
    "extend-torus3": ["extend", TORUS3],
    "cohomology": ["cohomology", "--surface", "1,2"],
}

# per case: the exit code and the sha256 of stdout (classify exits 1 on a
# pair it finds distinct)
PINNED = {
    # the four surface reports carry the line principal-value volume: the
    # field volume_change (0.0 on the three spheres) replaces
    # log_coefficient, config loses tol_log, and the torus volumes read
    # 6.817817439001334e-12 and 3.409422855960597e-12; the asymmetric
    # sphere reads 6.902784590446404 against 2*pi*log(3) = 6.902784590446406
    "sphere": (0, "f4a9837aa68316bfa1a2fb244715cf34"
                  "e5c2002e1ac72add80960bc5e6ea97e2"),
    "scaled-sphere": (0, "ce8cade9801d319389698f5c957c2027"
                         "7362e0bf49ddfde0f906bb8cd0630631"),
    "asymmetric-sphere": (0, "23cd32a6083d91cd6fcbd6dc02032ec9"
                             "9a6474180b0e19bd1044fdc3a8fdc471"),
    "torus-pair": (1, "f57be96d98e7ca9409be766bdea997fa"
                      "f17ab42b042f19a20507e99952e43c91"),
    "darboux-cubic": (0, "a163d9547d032602350a2f2542c53d8a"
                         "88a88207b5b6d76f7afccf7128d129a1"),
    "check-4d": (0, "c842ce836f30bf253c753edd3a072de8"
                    "eb70ba3876759e1a15340a57bfe7b03a"),
    # the step doubling stops at 8 of the 16 steps (steps 8, flow_change
    # 9.868813322100323e-09, max_residual 1.605405608451349e-08; at 16
    # steps it read 9.79933467704086e-10)
    "moser-2d": (0, "ffc36132ed25aa2a122f22b8f600afeb"
                    "da220ef2c21e5d202034d9028e654b38"),
    "extend-torus3": (0, "976359db74bc6323e09610e6074cc8f3"
                         "ca78af181e2b1b81727fd73945072dfe"),
    "cohomology": (0, "906b4280c4ed52913d5d96b7613811ed"
                      "c7262bd58dfe468753394288895d09d7"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_report_bytes(name, tmp_path, capsys):
    argv = CASES[name]
    args = []
    for k, a in enumerate(argv):
        if isinstance(a, dict):
            path = tmp_path / ("doc%d.json" % k)
            path.write_text(json.dumps(a))
            a = str(path)
        args.append(a)
    got = cli.main(args)
    out, err = capsys.readouterr()
    assert err == ""
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == PINNED[name]
