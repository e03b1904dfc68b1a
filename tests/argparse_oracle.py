"""The argparse command line that ``cli.parse_args`` replaced, kept as the
oracle the tests check it against.

``build_parser`` is the argparse parser of the six verbs, and ``_fold_tuple``
the rewriting that let ``--tuple`` take a value with a leading minus.  Every
parser here refuses abbreviated options (``allow_abbrev=False``), since
``parse_args`` reads options spelled in full only.  pytest does not collect
this file; test modules import it by name.
"""

from __future__ import annotations

import argparse

from kscheck.cli import (
    cmd_catalog,
    cmd_classify,
    cmd_ghz,
    cmd_robustness,
    cmd_search_model,
    cmd_verify,
)
from kscheck.errors import SEARCH_CAP


def parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` read as the argparse command line read it."""
    return build_parser().parse_args(_fold_tuple(argv))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")
    searching = argparse.ArgumentParser(add_help=False, parents=[common], allow_abbrev=False)
    searching.add_argument(
        "--cap",
        type=int,
        default=SEARCH_CAP,
        help="vertex/measurement cap for exhaustive searches",
    )

    parser = argparse.ArgumentParser(
        prog="kscheck",
        description="exhaustive verification of contextuality no-go scenarios",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    whole = {"allow_abbrev": False}

    p = sub.add_parser("verify", parents=[searching], help="value-assignment search", **whole)
    p.add_argument("scenario", help="builtin name or scenario file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", parents=[common], help="argument type I/II/III", **whole)
    p.add_argument("scenario")
    p.add_argument("--realization", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "search-model",
        parents=[searching],
        help="noncontextual value-definite model search",
        **whole,
    )
    p.add_argument("scenario")
    p.add_argument("--realization", default=None)
    p.set_defaults(func=cmd_search_model)

    p = sub.add_parser("ghz", parents=[searching], help="state-dependent type II pipeline", **whole)
    p.add_argument("scenario")
    p.add_argument("--realization", default="standard")
    p.add_argument("--tuple", default=None, help="pinned eigenvalue tuple, e.g. +1,+1,+1,-1")
    p.add_argument("--flip-sign", action="store_true", help="sanity control with inverted sign")
    p.set_defaults(func=cmd_ghz)

    p = sub.add_parser(
        "robustness", parents=[searching], help="minimum support-violation fraction", **whole
    )
    p.add_argument("scenario")
    p.add_argument("--realization", default=None)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("catalog", parents=[common], help="list built-in scenarios", **whole)
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_catalog)

    return parser


def _fold_tuple(argv: list[str]) -> list[str]:
    """``--tuple VALUE`` as ``--tuple=VALUE``, so that a value with a
    leading minus (``-1,+1,+1,+1``) is not read as an option."""
    folded: list[str] = []
    for arg in argv:
        if folded and folded[-1] == "--tuple" and not arg.startswith("--"):
            folded[-1] = f"--tuple={arg}"
        else:
            folded.append(arg)
    return folded
