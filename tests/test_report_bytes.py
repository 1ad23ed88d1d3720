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
    "sphere": (0, "3ca8be2f71e0c23c30be9f05cf5adda9"
                  "ae1642a0e8d41eedc5d31e7d355d440c"),
    "scaled-sphere": (0, "653fa25aaa835642d86785536d89cac9"
                         "7d2e7907f1217b797b3c7f751e33696e"),
    "asymmetric-sphere": (0, "58e09737883dcc65a0fb76fedfed47a0"
                             "f4c663a9f04393e00fdd29456d61f3a1"),
    "torus-pair": (1, "62dc8c8e91545a929e4c679c62fdb6b2"
                      "56afad417cd6cf456d3fe6366df30207"),
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
