"""Command-line interface.

Subcommands: evaluate (full pipeline), consistency (the pipeline up to its
gate), weights (the pipeline up to entropy weighting), fuse (evidence fusion
of stored assignments), selftest (fixture and oracle suite).

Exit codes: 0 success, 1 validation error, 2 consistency-gate failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from ._version import __version__
from .ahp import CI_DENOMINATOR_MODES
from .core import number_text
from .errors import EvicritError, InconsistentMatrix, IoError
from .evidence import murphy_combine
from .fuzzy import OVERLAP_MODES
from .pipeline import PipelineConfig, fused_masses, load_bpa_list, run_pipeline
from .report import REPORT_FORMATS, _atomic_write, json_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INCONSISTENT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the validation code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _text_rule(kind):
    """An argparse type that reads ``kind`` by ``core.number_text``'s rule;
    argparse names it ``kind`` in its message for refused text."""
    def read(text: str):
        return number_text(text, kind)
    read.__name__ = kind.__name__
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evicrit",
                     description="Entropy-weighted fuzzy-evidential evaluation "
                                 "of the indicators a matrices file lists")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    # each flag is defined once, in a group per stage; a subcommand takes
    # the groups of the stages it runs
    gate = argparse.ArgumentParser(add_help=False)
    gate.add_argument("--matrices", required=True,
                      help="JSON of expert pairwise matrices")
    gate.add_argument("--ci-denominator", choices=CI_DENOMINATOR_MODES,
                      default=PipelineConfig.ci_denominator,
                      help="CI denominator: n or n-1")
    gate.add_argument("--ri-table",
                      help="JSON random-index overrides (order -> RI); "
                           "needed above order 10")
    weighting = argparse.ArgumentParser(add_help=False)
    weighting.add_argument("--priors",
                           help="CSV of prior weights (indicator,lambda); adds "
                                "the adjusted weights")
    weighting.add_argument("--force", action="store_true",
                           help="proceed past a failed consistency gate")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the output here instead of stdout")

    ev = sub.add_parser("evaluate", parents=[gate, weighting],
                        help="run the full pipeline")
    ev.add_argument("--scores", required=True,
                    help="CSV of expert scores (expert_id,indicator,score)")
    ev.add_argument("--bpa-fixtures",
                    help="JSON of per-indicator mass functions; replaces "
                         "score fuzzification in the fusion stage")
    ev.add_argument("--alpha", type=_text_rule(float), default=PipelineConfig.alpha,
                    help="evidence reliability in [0,1] (default %(default)s)")
    ev.add_argument("--overlap-mode", choices=OVERLAP_MODES,
                    default=PipelineConfig.overlap_mode,
                    help="where held-back mass goes: the active adjacent "
                         "pair, or always the whole frame")
    ev.add_argument("--window", type=_text_rule(int), default=PipelineConfig.window,
                    help="fusion window width (default %(default)s)")
    ev.add_argument("--stride", type=_text_rule(int), default=PipelineConfig.stride,
                    help="fusion window stride (default %(default)s)")
    ev.add_argument("--out-dir", help="directory for manifest and report files")
    ev.add_argument("--format", choices=REPORT_FORMATS, default=PipelineConfig.fmt,
                    dest="fmt", help="report format (default %(default)s)")
    ev.add_argument("--chart", help="write a grouped-bar SVG to this path")

    sub.add_parser("consistency", parents=[gate],
                   help="aggregate matrices and gate them")
    sub.add_parser("weights", parents=[gate, weighting, out],
                   help="entropy weighting of the gated aggregate")

    fu = sub.add_parser("fuse", parents=[out],
                        help="combine stored mass functions (averaging rule)")
    fu.add_argument("--bpas", required=True,
                    help='JSON list of BPA objects (or {"bpas": [...]})')

    sub.add_parser("selftest", help="run the fixture and oracle suite")
    return parser


def _output(text: str, out: str | None, what: str):
    """Write ``text`` to the file ``out`` and say so, or to stdout without one."""
    if out:
        _atomic_write(out, text)
        print(f"{what} written to {out}")
    else:
        sys.stdout.write(text)


def _config(args) -> PipelineConfig:
    """The run's config from the subcommand's flags; a setting whose flag the
    subcommand does not list keeps its default, and scores are None there."""
    given = vars(args)
    return PipelineConfig(**{"scores": None, **{f.name: given[f.name]
                                                for f in fields(PipelineConfig)
                                                if f.name in given}})


def _cmd_evaluate(args) -> int:
    manifest = run_pipeline(_config(args))
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
    try:
        report = run_pipeline(_config(args), _last_stage="consistency")
    except InconsistentMatrix as e:
        report = e.report
    sys.stdout.write(json_text(report.to_dict()))
    return EXIT_OK if report.acceptable else EXIT_INCONSISTENT


def _cmd_weights(args) -> int:
    table = run_pipeline(_config(args), _last_stage="weighting")
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
    except EvicritError as e:
        stage = f" [stage: {e.stage}]" if e.stage else ""
        print(f"evicrit: error{stage}: {e}", file=sys.stderr)
        return (EXIT_INCONSISTENT if isinstance(e, InconsistentMatrix)
                else EXIT_IO if isinstance(e, IoError) else EXIT_VALIDATION)

