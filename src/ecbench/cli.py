"""Command-line surface tying the modules into reproducible batch workflows.

Exit codes: 0 success, 1 usage error, 2 execution failure or an ill-typed
input file, 3 pairing or fingerprint violation or an ill-typed results line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compare import (
    ComparisonReport,
    asymmetry_report,
    compare_objects,
    paired_aggregates,
)
from .design import (
    DESIGNS,
    FactorSplit,
    RctAssignment,
    SamplePlan,
    factorial_2k,
    full_factorial,
    rct_assign,
    space_fingerprint,
    spec_point,
    stratified_sample,
)
from .errors import (
    EcbenchError,
    ExecutionError,
    FingerprintError,
    PairingError,
    PlanError,
    check_objects,
    check_type,
    read_object,
)
from .fingerprints import fingerprint
from .manifest import (
    ResultWriter,
    RunManifest,
    check_resumable,
    drop_torn_line,
    emit_report,
    load_results,
    read_results,
)
from .model import SyntheticModel
from .oracle import Methodology, methodology_comparison
from .runner import ExecutorSpec, execute_plan
from .space import ConfigSpace, ObjectConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXECUTION = 2
EXIT_INTEGRITY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """A `--seed` value: a non-negative integer, in decimal digits."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, not {text!r}")
    return int(text)


def _pair(metavar: str, convert=str):
    """A parser of `metavar` flag values, FACTOR=VALUE, into (factor,
    `convert(VALUE)`) pairs."""
    def parse(text: str) -> tuple[str, object]:
        factor, sep, value = text.partition("=")
        try:
            if sep:
                return factor, convert(value)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {metavar}, not {text!r}")
    return parse


def _by_factor(flag: str, pairs: list[tuple[str, object]]) -> dict:
    """The (factor, value) pairs of a repeated flag as a dict, refusing a
    factor given twice."""
    out: dict = {}
    for factor, value in pairs:
        if factor in out:
            raise PlanError(f"{flag} gives factor {factor!r} twice")
        out[factor] = value
    return out


def _cmd_space_info(args) -> int:
    space = ConfigSpace.load(args.space)
    print(f"fingerprint: {space_fingerprint(space)}")
    print(f"cardinality: {space.cardinality}")
    for f in space.factors:
        weighted = " (weighted)" if f.weights is not None else ""
        print(f"  {f.name}: {len(f.levels)} levels{weighted}")
    return EXIT_OK


def _cmd_plan(args) -> int:
    plan = args.generate(ConfigSpace.load(args.space), args)
    if isinstance(plan, RctAssignment):
        plan.control.save(args.out_control)
        plan.treatment.save(args.out_treatment)
        print(f"wrote {args.out_control} and {args.out_treatment}")
        return EXIT_OK
    plan.save(args.out)
    print(f"wrote {args.out} ({len(plan.indices)} entries, "
          f"fingerprint {plan.fingerprint[:12]})")
    return EXIT_OK


def _cmd_run(args) -> int:
    space = ConfigSpace.load(args.space)
    plan = SamplePlan.load(args.plan)
    executor_doc = read_object(args.executor, ExecutionError)
    executor = ExecutorSpec.from_dict(executor_doc)
    obj = ObjectConfig.load(args.object)

    manifest = RunManifest(
        space_fingerprint=space_fingerprint(space),
        plan_fingerprint=plan.fingerprint,
        executor_hash=fingerprint(executor_doc),
        object_config={"object_id": obj.object_id,
                       "settings": dict(obj.settings)},
        seeds={"plan_seed": plan.seed},
    )
    already_done: set[tuple[int, int]] | None = None
    append = False
    out = Path(args.out)
    if args.resume and out.exists():
        check_resumable(out, manifest)
        drop_torn_line(out)
        done = read_results(out, obj.object_id, manifest.plan_fingerprint,
                            narrow=True).measurements
        already_done = set(zip(done.indices.tolist(), done.ordinals.tolist()))
        append = True

    writer = ResultWriter(out, manifest, append=append)
    try:
        results = execute_plan(
            executor, obj, space, plan,
            skip_failures=args.skip_failures,
            policy=args.agg,
            on_measurements=writer.write,
            already_done=already_done,
        )
    finally:
        writer.finalize()
    print(f"wrote {args.out} ({len(results.measurements)} measurements, "
          f"{len(results.failures)} failures)")
    return EXIT_OK


def _run_plan(plan_path: str, plan_fingerprint: str) -> SamplePlan:
    """The plan at `plan_path`, refused unless the runs were made under it."""
    plan = SamplePlan.load(plan_path)
    if plan.fingerprint != plan_fingerprint:
        raise PairingError(
            f"{plan_path} has plan fingerprint {plan.fingerprint}, "
            f"the runs have {plan_fingerprint}"
        )
    return plan


def _cmd_compare(args) -> int:
    # a comparison reads keys, aggregates and policies only
    a, _ = load_results(args.a, narrow=True)
    b, _ = load_results(args.b, narrow=True)
    group_by = None
    if args.group_by_plan:
        group_by = _run_plan(args.group_by_plan, a.plan_fingerprint)
    aligned = paired_aggregates(a, b)
    report = compare_objects(a, b, args.level, group_by=group_by,
                             aligned=aligned)
    emit_report(report, "json", args.out)
    if args.csv:
        emit_report(report, "csv", args.csv)
    if args.asymmetry:
        emit_report(asymmetry_report(a, b, args.level, aligned=aligned),
                    "json", args.asymmetry)
    g = report.overall
    print(f"{report.minuend_id} - {report.subtrahend_id}: "
          f"mean {g.interval.center:.6f}, "
          f"[{g.interval.low:.6f}, {g.interval.high:.6f}] "
          f"@ {args.level}: {g.verdict.value}")
    return EXIT_OK


def _parse_methodologies(doc: dict) -> list[Methodology]:
    out = []
    check_objects("methodologies", doc["methodologies"], PlanError)
    for m in doc["methodologies"]:
        check_type("methodology params", m.get("params", {}), dict, PlanError)
        params = dict(m.get("params", {}))
        if "split" in params:
            params["split"] = FactorSplit.from_dict(params["split"])
        out.append(Methodology(kind=m["kind"], params=params))
    return out


def _cmd_simulate(args) -> int:
    space = ConfigSpace.load(args.space)
    model = SyntheticModel.load(args.model)
    doc = read_object(args.methodologies, PlanError)
    methodologies = _parse_methodologies(doc)
    objects = doc["objects"]
    if type(objects) is not list or len(objects) != 2 or not all(
            type(o) is str for o in objects):
        raise PlanError(f"objects must be a list of two object ids, "
                        f"not {objects!r}")
    rows = methodology_comparison(model, space, methodologies,
                                  args.iterations, args.level, args.seed,
                                  tuple(objects))
    emit_report(rows, args.format, args.out)
    for r in rows:
        print(f"{r.methodology:16s} cost={r.cost_per_object:4d}/object "
              f"coverage={r.coverage:.4f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    doc = read_object(args.input, EcbenchError)
    check_type("report overall", doc["overall"], dict, EcbenchError)
    check_objects("report groups", doc["groups"], EcbenchError)
    report = ComparisonReport.from_dict(doc)
    emit_report(report, args.format, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ecbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", parents=[], help="space utilities")
    space_sub = p_space.add_subparsers(dest="space_command", required=True)
    p_info = space_sub.add_parser("info", help="print cardinality and factors")
    p_info.add_argument("--space", required=True)
    p_info.set_defaults(func=_cmd_space_info)

    p_plan = sub.add_parser("plan", help="generate a sampling plan")
    plan_sub = p_plan.add_subparsers(dest="design", required=True)

    shared = {"--reps": {"type": int, "default": 3},
              "--seed": {"type": _seed, "required": True},
              "--out": {"required": True}}

    def plan_parser(design: str, *options, generate) -> None:
        """`ecbench plan` for a design, by its alias if it has one: --space,
        then `options`, each a key of `shared` or a (flag, keywords) pair.
        `generate(space, args)` calls the design's plan generator."""
        p = plan_sub.add_parser(DESIGNS[design].alias or design)
        p.add_argument("--space", required=True)
        for option in options:
            flag, kw = ((option, shared[option]) if isinstance(option, str)
                        else option)
            p.add_argument(flag, **kw)
        p.set_defaults(func=_cmd_plan, generate=generate)

    plan_parser("stratified",
                ("--stratum-factor", {"required": True}),
                ("--iterations", {"type": int, "required": True}),
                "--reps", "--seed", "--out",
                generate=lambda space, a: stratified_sample(
                    space, a.stratum_factor, a.iterations, a.reps, a.seed))
    plan_parser("factorial2k",
                ("--split", {"required": True, "help":
                             "JSON file: {factor: {low: [...], high: [...]}}"}),
                ("--default", {"action": "append", "default": [],
                               "metavar": "FACTOR=LEVEL_INDEX",
                               "type": _pair("FACTOR=LEVEL_INDEX", int)}),
                "--reps", "--seed", "--out",
                generate=lambda space, a: factorial_2k(
                    space,
                    FactorSplit.from_dict(read_object(a.split, PlanError)),
                    _by_factor("--default", a.default), a.reps, a.seed))
    plan_parser("full_factorial", "--reps", "--out",
                generate=lambda space, a: full_factorial(space, a.reps))
    plan_parser("rct_arm",
                ("--per-arm", {"type": int, "required": True}), "--reps", "--seed",
                ("--out-control", {"required": True}),
                ("--out-treatment", {"required": True}),
                generate=lambda space, a: rct_assign(
                    space, a.per_arm, a.reps, a.seed))
    plan_parser("spec_point",
                ("--level-label", {"action": "append", "required": True,
                                   "metavar": "FACTOR=LABEL",
                                   "type": _pair("FACTOR=LABEL")}),
                ("--stratum-factor", {"default": None}), "--out",
                generate=lambda space, a: spec_point(
                    space,
                    space.config_from_labels(
                        _by_factor("--level-label", a.level_label)),
                    stratum_factor=a.stratum_factor))

    p_run = sub.add_parser("run", help="execute a plan")
    p_run.add_argument("--space", required=True)
    p_run.add_argument("--plan", required=True)
    p_run.add_argument("--executor", required=True)
    p_run.add_argument("--object", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--agg", choices=["mean", "median"], default=None)
    p_run.add_argument("--skip-failures", action="store_true")
    p_run.add_argument("--resume", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="paired comparison of two runs")
    p_cmp.add_argument("--a", required=True, help="minuend results file")
    p_cmp.add_argument("--b", required=True, help="subtrahend results file")
    p_cmp.add_argument("--level", type=float, required=True)
    p_cmp.add_argument("--group-by-plan", default=None)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--csv", default=None)
    p_cmp.add_argument("--asymmetry", default=None,
                       help="also write a ratio-asymmetry report")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sim = sub.add_parser("simulate", help="Monte Carlo coverage comparison")
    p_sim.add_argument("--space", required=True)
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--methodologies", required=True,
                       help="JSON file: {objects: [..], methodologies: [..]}")
    p_sim.add_argument("--iterations", type=int, required=True)
    p_sim.add_argument("--level", type=float, required=True)
    p_sim.add_argument("--seed", type=_seed, required=True)
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("report", help="re-emit a stored report")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--format", choices=["csv", "json"], required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PairingError, FingerprintError) as e:
        print(f"ecbench: integrity error: {e}", file=sys.stderr)
        return EXIT_INTEGRITY
    except EcbenchError as e:
        print(f"ecbench: error: {e}", file=sys.stderr)
        return EXIT_EXECUTION
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"ecbench: error: {e}", file=sys.stderr)
        return EXIT_EXECUTION


if __name__ == "__main__":
    raise SystemExit(main())
