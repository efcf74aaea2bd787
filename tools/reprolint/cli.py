"""Command-line entry point: ``python -m tools.reprolint [paths...]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from tools.reprolint.config import LintConfig
from tools.reprolint.engine import lint_paths
from tools.reprolint.registry import all_rules
from tools.reprolint.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST static analysis enforcing this repository's layering, RNG, "
            "dtype, numerical-safety, FedProxVR theory, provenance, "
            "whole-program hygiene, and concurrency contracts."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule and exit"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="show offending source lines"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for cls in all_rules():
            print(f"{cls.rule_id}  [{cls.family:10s}] {cls.severity.value:7s} "
                  f"{cls.description}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    report = lint_paths(paths, LintConfig())
    if args.fmt == "json":
        print(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
