"""Command line front end.

Subcommands:

* ``table``  -- emit the coefficient triangle as CSV or JSON, each row made
  in exact decimal arithmetic and written as soon as it is made,
* ``verify`` -- run the exact verification battery, exit 0 iff it all holds;
  rows are made (or read), checked and dropped one at a time, so no table
  is held,
* ``eval``   -- evaluate W(x) and one derivative, 17 significant digits.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
``eval`` also exits 2 (``numeric fault``) when the derivative it would print
is infinite, zero or subnormal: binary64 ran out, and no derivative of W is 0.
On the closed form it does so for any n past row 138, the last row whose
entries binary64 can hold, before making any row.

Importing this module loads the exact layer that the default ``verify``
runs (``verify``, ``closed_forms``, ``properties``, ``triangle``).  Each
command imports the rest when it runs: ``table`` and ``verify --table``
import ``tableio`` and ``decimal``, and ``eval`` imports ``numeric``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import triangle, verify

__all__ = ["main", "build_parser"]

# The last row of the triangle whose entries all convert to binary64: the
# largest entry of row 138 has 1023 bits, that of row 139 has 1032.
_LAST_FLOAT_ROW = 138


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wderiv",
        description="Exact coefficients of the Lambert W derivative polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit the coefficient triangle")
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", default=None, help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the exact verification battery")
    p_verify.add_argument("--n-max", type=int, default=None,
                          help="row limit for all checks (default: routes "
                               f"{verify.DEFAULT_ROUTE_N_MAX}, properties "
                               f"{verify.DEFAULT_PROPERTY_N_MAX}, identities "
                               f"{verify.DEFAULT_ROUTE_N_MAX}; with --table, "
                               "the table's n_max)")
    p_verify.add_argument("--table", default=None,
                          help="verify a table loaded from this CSV/JSON file "
                               "instead of a freshly built one")
    p_verify.add_argument("--routes", default=",".join(verify.ROUTE_NAMES),
                          help="comma list from: " + ", ".join(verify.ROUTE_NAMES))
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_eval = sub.add_parser("eval", help="evaluate W and one derivative")
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--n", type=int, default=1)
    p_eval.add_argument("--route",
                        # numeric.ROUTE_CLOSED, ROUTE_TAYLOR and ROUTE_FD,
                        # spelled out so that help and parsing skip numeric
                        choices=("closed_form", "taylor", "finite_difference"),
                        default="closed_form")
    p_eval.add_argument("--tol-rel", type=float, default=1e-12,
                        help="relative tolerance for the taylor route")

    return parser


def _open_out(out: str | None):
    """The ``--out`` file opened for writing, or stdout (left open) if None."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="ascii", newline="")


def _routes(text: str) -> tuple[str, ...]:
    """The names in a ``--routes`` comma list; naming none is a usage error."""
    if not (routes := tuple(r for r in text.split(",") if r)):
        raise ValueError(f"--routes names no route: {text!r}")
    return routes


def _cmd_table(args: argparse.Namespace) -> int:
    from . import tableio

    # raises before --out exists, e.g. past the int-string limit
    chunks = tableio.built_table_chunks(args.n_max, args.format)
    with _open_out(args.out) as fh:
        fh.writelines(chunks)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    routes = _routes(args.routes)
    n_max, failures = verify.verify_table_file(args.table, routes, args.n_max)
    if args.format == "json":
        payload = {
            "passed": not failures,
            "n_max": n_max,
            "failures": [
                {"n": f.n, "k": f.k, "check": f.check, "detail": f.detail}
                for f in failures
            ],
        }
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        if failures:
            first = failures[0]
            sys.stdout.write(
                f"FAIL first failure: n={first.n} k={first.k} check={first.check}\n")
            for f in failures:
                sys.stdout.write(
                    f"FAIL n={f.n} k={f.k} check={f.check} {f.detail}\n")
        else:
            sys.stdout.write(
                f"OK n_max={n_max} routes={','.join(routes)} "
                f"all checks passed\n")
    return 1 if failures else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import numeric

    # every value first, so a domain error leaves stdout empty
    if args.route == numeric.ROUTE_TAYLOR:
        deriv = numeric.w_derivative_taylor(args.n, args.x, rel_tol=args.tol_rel)
    elif args.route == numeric.ROUTE_FD:
        deriv = numeric.w_derivative_fd(args.n, args.x)
    else:
        if args.n < 1:  # or build_table would name its n_max, not eval's --n
            raise ValueError(f"n must be >= 1, got {args.n}")
        if args.n > _LAST_FLOAT_ROW:
            raise OverflowError(
                f"row {_LAST_FLOAT_ROW + 1} of the triangle has an entry past binary64, "
                f"so the closed form stops at n = {_LAST_FLOAT_ROW}")
        deriv = numeric.w_derivative(args.n, args.x, triangle.build_table(args.n))
    # lambert_w covers x >= 0; the Taylor route also reaches -1/e < x < 0
    if args.x >= 0.0:
        evaluation = numeric.lambert_w(args.x)
        sys.stdout.write(f"W(x) = {evaluation.w:.17g}\n")
        sys.stdout.write(f"residual = {evaluation.residual:.17g}\n")
        sys.stdout.write(f"iterations = {evaluation.iterations}\n")
    sys.stdout.write(
        f"d^{args.n}W/dx^{args.n} ({deriv.route}) = {deriv.value:.17g}\n")
    return 0


_COMMANDS = {
    "table": _cmd_table,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ArithmeticError as err:
        sys.stderr.write(f"numeric fault: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
