"""Write `reference.json`: the digests the oracle compares outputs with.

Run from the repository root on an unmodified tree, and only when the
reference outputs are meant to change:

    python3 bench/record_reference.py

It records the canonical text of D1..D6 of the family and digests of the
outputs that have no closed-form reference here: D5 and D6, the general
quadratic constants, the integrating-factor denominators, and the exit code,
standard output and CSV bytes of every CLI request of `cli-oneshot`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from workloads import (CLI_ARGV, _center_configs, _general_quadratic,  # noqa: E402
                       cli_workdir)


def symbolic():
    from isoquintic import lyapunov, quintic, structure
    from isoquintic.qpoly import Poly
    Params = quintic.QuinticParams
    report = lyapunov.pl_constants(quintic.build_system(Params.symbolic()), 6)
    texts = [str(d) for d in report.constants]
    quad = lyapunov.pl_constants(_general_quadratic(Poly, lyapunov.PlanarSystem), 3)
    dens = {}
    for tag in ("i", "ii"):
        params = _center_configs(Poly, Params)[tag]
        case = quintic.CenterCase(quintic.CaseTag(tag))
        mu = structure.integrating_factor_from_pair(
            quintic.build_system(params), quintic.commuting_partner(params, case))
        dens[tag] = oracle.sha256(str(mu.den))
    return {"constants": texts,
            "constant_sha256": [oracle.sha256(t) for t in texts],
            "general_quadratic_sha256": [oracle.sha256(str(d)) for d in quad.constants],
            "integrating_factor_sha256": dens}


def cli(root):
    workdir = cli_workdir(root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = {}
    for label, argv in sorted(CLI_ARGV.items()):
        csv = os.path.join(workdir, "out.csv")
        if os.path.exists(csv):
            os.remove(csv)
        proc = subprocess.run([sys.executable, "-m", "isoquintic.cli", *argv],
                              cwd=workdir, env=env, capture_output=True, timeout=60)
        entry = {"argv": argv, "exit": proc.returncode,
                 "stdout_sha256": oracle.sha256(proc.stdout), "csv_sha256": None}
        if "--out" in argv:
            with open(csv, "rb") as fh:
                entry["csv_sha256"] = oracle.sha256(fh.read())
        out[label] = entry
    return out


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    ref = {"symbolic": symbolic(), "cli": cli(root)}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
