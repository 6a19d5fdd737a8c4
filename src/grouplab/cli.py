"""Command-line front end.

Exit codes: 0 = everything verified, 2 = a conjecture counterexample was
found, 1 = execution error or failed check. Usage errors also exit 1 so
that 2 stays reserved for the one outcome CI must never misread.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone

from . import catalog, sol, suite
from .perm import CapExceededError, ParseError, parse_permutation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in _comma_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_common(p: argparse.ArgumentParser, seeded_pool: bool = True):
    """The flags every command takes; --workers and --seed only when
    seeded_pool, since catalog starts no pool and records no seed."""
    p.add_argument("--cap", type=int, default=None, help="element enumeration cap")
    if seeded_pool:
        p.add_argument("--workers", type=int, default=None, help="worker processes (0 = all cores)")
        p.add_argument("--seed", type=int, default=None, help="sampling seed, recorded in reports")
    p.add_argument("--format", choices=("text", "json", "csv"), default=None)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--config", default=None, help="JSON file with RunConfig fields")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, so
    repeated main() calls share it."""
    parser = _Parser(prog="grouplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sol = sub.add_parser("sol", help="solubilizer of one element")
    p_sol.add_argument("--group", required=True, help="catalog name, e.g. S:7 or PGL2:7")
    pick = p_sol.add_mutually_exclusive_group(required=True)
    pick.add_argument("--element", help='cycle string, e.g. "(1,2)(3,4)"')
    pick.add_argument("--order", type=int, help="use a class representative of this order")
    _add_common(p_sol)

    p_t1 = sub.add_parser("table1", help="reproduce the 14-group trivial-Fitting table")
    _add_common(p_t1)

    p_scan = sub.add_parser("scan", help="conjecture falsification scan")
    p_scan.add_argument("--groups", type=_comma_list, default=None, help="comma-separated names")
    p_scan.add_argument("--orders", type=_comma_ints, default=None,
                        help="restrict to class representatives of these orders")
    _add_common(p_scan)

    p_suite = sub.add_parser("suite", help="full lemma/theorem regression battery")
    p_suite.add_argument("--groups", type=_comma_list, default=None)
    p_suite.add_argument("--orders", type=_comma_ints, default=None)
    p_suite.add_argument("--include-psl31", action="store_true", default=None,
                         help="add the degree-32 PSL(2,31) exploration")
    p_suite.add_argument("--product-powers", type=int, default=None, metavar="M",
                         help="check C_(2^m) x PGL(2,7) for m = 1..M (max 3)")
    _add_common(p_suite)

    p_cat = sub.add_parser("catalog", help="list and validate the group catalog")
    p_cat.add_argument("--include-psl31", action="store_true", default=None)
    _add_common(p_cat, seeded_pool=False)
    return parser


def _load_config(args) -> suite.RunConfig:
    data: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    overrides = {
        "groups": getattr(args, "groups", None),
        "orders": getattr(args, "orders", None),
        "cap": args.cap,
        "workers": getattr(args, "workers", None),
        "seed": getattr(args, "seed", None),
        "format": args.format,
        "out": args.out,
        "include_psl31": getattr(args, "include_psl31", None),
        "product_powers": getattr(args, "product_powers", None),
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    # an explicit --orders always selects by order; so do orders in a file without a selector
    if getattr(args, "orders", None) is not None or (data.get("orders") and "selector" not in data):
        data["selector"] = "orders"
    return suite.RunConfig.from_json(data)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_sol(args) -> int:
    # so the cap is checked against the queried group only
    args.groups, args.include_psl31, args.product_powers = (args.group,), False, 0
    config = _load_config(args)
    G = catalog.build_named_group(args.group, config.cap)
    if args.element is not None:
        x = parse_permutation(args.element, G.degree)
        if not G.contains(x):
            print(f"error: element {args.element} is not in {args.group}", file=sys.stderr)
            return 1
    else:
        table = G.conjugacy_classes()
        x = next(
            (c.representative for c in table.classes if c.element_order == args.order), None
        )
        if x is None:
            have = sorted({c.element_order for c in table.classes})
            print(
                f"error: no class representative of order {args.order} in {args.group}"
                f" (element orders: {have})",
                file=sys.stderr,
            )
            return 1
    result = sol.solubilizer(G, x)
    report = {
        "schema": suite.SCHEMA,
        "kind": "sol",
        "seed": config.seed,
        "group": args.group,
        "result": result.to_json(),
        "ell": sol.ell_invariant(G, x, result),
        "meta": {"finished": datetime.now(timezone.utc).isoformat()},
    }
    _emit(suite.render(report, config.format), config.out)
    return 0


def cmd_table1(args) -> int:
    config = _load_config(args)
    doc = suite.run_table1(config)
    _emit(suite.render(doc, config.format), config.out)
    return 0 if doc["all_ok"] else 1


def cmd_scan(args) -> int:
    config = _load_config(args)
    doc = suite.run_conjecture_scan(config)
    _emit(suite.render(doc, config.format), config.out)
    return 2 if doc["counterexamples"] else 0


def cmd_suite(args) -> int:
    config = _load_config(args)
    doc = suite.run_full_suite(config)
    _emit(suite.render(doc, config.format), config.out)
    return 0 if doc["all_passed"] else 1


def cmd_catalog(args) -> int:
    config = _load_config(args)
    rows = [catalog.catalog_row(name, config.cap) for name in config.group_names()]
    report = {"schema": suite.SCHEMA, "kind": "catalog", "rows": rows}
    _emit(suite.render(report, config.format), config.out)
    return 0


_COMMANDS = {
    "sol": cmd_sol,
    "table1": cmd_table1,
    "scan": cmd_scan,
    "suite": cmd_suite,
    "catalog": cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, CapExceededError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
