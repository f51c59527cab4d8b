"""Write the golden records: one ``curvfun`` JSON record per command.

Run from the repository root as ``PYTHONPATH=src python tests/golden/generate.py``.
Each command runs in process through :func:`record`, the same call
``tests/test_golden.py`` makes, and its record is written, without the
``versions`` stamp, to ``<name>.json`` beside this file.  After a change,
rerunning this script and ``git diff tests/golden`` shows every value that
moved, to the bit.
"""

import contextlib
import io
import json
from pathlib import Path

from curvfun.cli import main

HERE = Path(__file__).resolve().parent

# name -> argv; compute commands also get --no-timing.
COMMANDS = {
    "s4_gamma_d": ["compute", "--manifold", "s4"],
    "e2xe2_gamma_d": ["compute", "--manifold", "e2xe2"],
    "taubes_gamma_d": ["compute", "--manifold", "taubes"],
    "rp2_gamma_d": ["compute", "--manifold", "rp2"],
    "taubes_volume": ["compute", "--manifold", "taubes", "--functional", "volume"],
    "taubes_gamma_mc_seed1": ["compute", "--manifold", "taubes", "--functional", "gamma_mc",
                              "--seed", "1"],
    "s4_haar_grid9_seed3": ["compute", "--manifold", "s4", "--frame", "haar", "--grid", "9",
                            "--seed", "3"],
    "s2xs2_gamma_mc_samples16_grid9": ["compute", "--manifold", "s2xs2", "--functional",
                                       "gamma_mc", "--samples", "16", "--grid", "9"],
    "su3_gamma_mc_samples4096_seed0": ["compute", "--manifold", "su3", "--functional",
                                       "gamma_mc", "--samples", "4096", "--seed", "0"],
    "klembeck_gbc": ["compute", "--manifold", "klembeck", "--functional", "gbc"],
    "s6_hilbert_grid5": ["compute", "--manifold", "s6", "--functional", "hilbert",
                         "--grid", "5"],
    "reproduce_all": ["reproduce", "all", "--format", "json"],
}


def record(argv):
    """The record ``curvfun`` writes for ``argv``, run in process, without ``versions``."""
    if argv[0] == "compute":
        argv = argv + ["--no-timing"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError("curvfun %s exited %d" % (" ".join(argv), code))
    rec = json.loads(out.getvalue())
    del rec["versions"]
    return rec


def path(name):
    return HERE / (name + ".json")


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        path(name).write_text(json.dumps(record(argv), sort_keys=True, indent=2) + "\n")
        print("wrote", path(name))
