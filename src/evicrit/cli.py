"""Command-line interface.

Subcommands: evaluate (full pipeline), consistency (matrix gate only),
weights (entropy weighting only), fuse (evidence fusion of stored
assignments), selftest (fixture and oracle suite).

Exit codes: 0 success, 1 validation error, 2 consistency-gate failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from ._version import __version__
from .ahp import CI_DENOMINATOR_MODES, aggregate_geometric, consistency
from .entropy import DecisionMatrix, build_table
from .errors import EvicritError, InconsistentMatrix, IoError
from .evidence import murphy_combine
from .fuzzy import OVERLAP_MODES
from .pipeline import (
    REPORT_FORMATS,
    PipelineConfig,
    fused_masses,
    ingest_matrices,
    ingest_priors,
    load_bpa_list,
    load_ri_table,
    run_pipeline,
)
from .report import _atomic_write, json_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INCONSISTENT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the validation code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evicrit",
                     description="Entropy-weighted fuzzy-evidential evaluation "
                                 "of the indicators a matrices file lists")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    ev = sub.add_parser("evaluate", help="run the full pipeline")
    ev.add_argument("--scores", required=True,
                    help="CSV of expert scores (expert_id,indicator,score)")
    ev.add_argument("--matrices", required=True,
                    help="JSON of expert pairwise matrices")
    ev.add_argument("--priors", required=True,
                    help="CSV of prior weights (indicator,lambda)")
    ev.add_argument("--bpa-fixtures",
                    help="JSON of per-indicator mass functions; replaces "
                         "score fuzzification in the fusion stage")
    ev.add_argument("--alpha", type=float, default=PipelineConfig.alpha,
                    help="evidence reliability in [0,1] (default %(default)s)")
    ev.add_argument("--overlap-mode", choices=OVERLAP_MODES,
                    default=PipelineConfig.overlap_mode,
                    help="where held-back mass goes: the active adjacent "
                         "pair, or always the whole frame")
    ev.add_argument("--ci-denominator", choices=CI_DENOMINATOR_MODES,
                    default=PipelineConfig.ci_denominator,
                    help="CI denominator: n or n-1")
    ev.add_argument("--ri-table",
                    help="JSON random-index overrides (order -> RI)")
    ev.add_argument("--window", type=int, default=PipelineConfig.window,
                    help="fusion window width (default %(default)s)")
    ev.add_argument("--stride", type=int, default=PipelineConfig.stride,
                    help="fusion window stride (default %(default)s)")
    ev.add_argument("--out-dir", help="directory for manifest and report files")
    ev.add_argument("--format", choices=REPORT_FORMATS, default=PipelineConfig.fmt,
                    dest="fmt", help="report format (default %(default)s)")
    ev.add_argument("--chart", help="write a grouped-bar SVG to this path")
    ev.add_argument("--force", action="store_true",
                    help="proceed past a failed consistency gate")

    co = sub.add_parser("consistency", help="aggregate matrices and gate them")
    co.add_argument("--matrices", required=True)
    co.add_argument("--ci-denominator", choices=CI_DENOMINATOR_MODES,
                    default=PipelineConfig.ci_denominator)
    co.add_argument("--ri-table")

    we = sub.add_parser("weights", help="entropy weighting of the aggregated matrix")
    we.add_argument("--matrices", required=True)
    we.add_argument("--priors")
    we.add_argument("--out", help="write the CSV here instead of stdout")

    fu = sub.add_parser("fuse", help="combine stored mass functions "
                                     "(averaging rule)")
    fu.add_argument("--bpas", required=True,
                    help='JSON list of BPA objects (or {"bpas": [...]})')
    fu.add_argument("--out", help="write the result JSON here instead of stdout")

    sub.add_parser("selftest", help="run the fixture and oracle suite")
    return parser


def _output(text: str, out: str | None, what: str):
    """Write ``text`` to the file ``out`` and say so, or to stdout without one."""
    if out:
        _atomic_write(out, text)
        print(f"{what} written to {out}")
    else:
        sys.stdout.write(text)


def _cmd_evaluate(args) -> int:
    manifest = run_pipeline(PipelineConfig(
        **{f.name: getattr(args, f.name) for f in fields(PipelineConfig)}))
    rep = manifest.consistency_report
    print(f"consistency: CR={rep.cr:.4f} ({rep.denominator_mode}) "
          f"acceptable={'yes' if rep.acceptable else 'no (forced)'}")
    by_weight = manifest.rankings["weight"]
    print(f"rank by weight: top={by_weight.top} bottom={by_weight.bottom}")
    adjusted = manifest.rankings.get("adjusted_weight")
    if adjusted is not None:
        print(f"rank by adjusted weight: top={adjusted.top} "
              f"bottom={adjusted.bottom}")
    fused = manifest.rankings["fused_belief"]
    print(f"rank by fused belief: top={fused.top} bottom={fused.bottom}")
    if args.out_dir:
        print(f"outputs written to {args.out_dir}")
    if args.chart:
        print(f"chart written to {args.chart}")
    return EXIT_OK


def _cmd_consistency(args) -> int:
    _, experts = ingest_matrices(args.matrices)
    aggregated = aggregate_geometric([m for _, m in experts])
    ri_table = None if args.ri_table is None else load_ri_table(args.ri_table)
    report = consistency(aggregated, ri_table=ri_table,
                         denominator_mode=args.ci_denominator)
    sys.stdout.write(json_text(report.to_dict()))
    return EXIT_OK if report.acceptable else EXIT_INCONSISTENT


def _cmd_weights(args) -> int:
    ids, experts = ingest_matrices(args.matrices)
    aggregated = aggregate_geometric([m for _, m in experts])
    priors = ingest_priors(args.priors, ids) if args.priors else None
    table = build_table(DecisionMatrix(aggregated.values, ids), priors=priors)
    _output(table.to_csv(), args.out, "weights")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    bpas = load_bpa_list(args.bpas)
    result = murphy_combine(bpas)
    _output(json_text({"conflict_k": result.conflict_k, **fused_masses(result.bpa)}),
            args.out, "fusion result")
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    from . import selftest
    return EXIT_OK if selftest.run_selftest() else EXIT_VALIDATION


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "consistency": _cmd_consistency,
    "weights": _cmd_weights,
    "fuse": _cmd_fuse,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InconsistentMatrix as e:
        _print_error(e)
        return EXIT_INCONSISTENT
    except IoError as e:
        _print_error(e)
        return EXIT_IO
    except EvicritError as e:
        _print_error(e)
        return EXIT_VALIDATION


def _print_error(e: EvicritError):
    stage = getattr(e, "stage", None)
    location = f" [stage: {stage}]" if stage else ""
    print(f"evicrit: error{location}: {e}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(run())
