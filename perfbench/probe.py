"""Set-up probe: import the CLI, parse each argv and build its manifold spec.

Run in a fresh interpreter by ``run.py``, which times it from spawn to exit;
no quadrature node is evaluated.  Usage::

    PYTHONPATH=src python3 perfbench/probe.py '[["compute", "--manifold", "s4"]]'
"""

import json
import sys

from curvfun.cli import build_parser
from curvfun.zoo import manifold_by_name


def main(argvs):
    parser = build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        if getattr(args, "manifold", None):
            params = dict(item.split("=", 1) for item in args.param or [])
            manifold_by_name(args.manifold, params)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
