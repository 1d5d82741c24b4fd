"""One set-up of a benchmark run, in a fresh interpreter: import qturan,
fill its lazy caches and write the workload's input files.

    PYTHONPATH=src python3 bench/prepare.py WORKLOAD DIR

The benchmark times this process from start to exit and reports the median
over several set-ups as setup_s.
"""

from __future__ import annotations

import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qturan import cli, construction

import inputs
from workloads import CertifyN16, VerifyN16


def main(workload: str, work: Path) -> int:
    construction.constant_c_enclosure()
    if workload == VerifyN16.name:
        w = VerifyN16()
        argv = ["construct", "--n", str(w.n), "--r", str(w.r), "--seed", str(w.seed), "--out", str(work)]
        with (work / "construct.csv").open("w") as out, open(os.devnull, "w") as err:
            with redirect_stdout(out), redirect_stderr(err):
                return cli.main(argv)
    if workload == CertifyN16.name:
        inputs.write_coloring(CertifyN16().coloring(work, CertifyN16.n), CertifyN16.n)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], Path(sys.argv[2])))
