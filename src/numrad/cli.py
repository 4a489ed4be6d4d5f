"""Command-line surface: single evaluations, campaigns, counterexamples.

Exit codes: 0 success, 1 unexpected campaign violations, 2 file parse
errors, 3 dimension/parameter errors, 4 numerical failures, 5 unknown
bound id, 6 an unexpected exception (its traceback goes to stderr). All
stdout result lines are space-separated key=value tokens.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .bounds import EvalSettings, bound_spec
from .ensembles import RngStream
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyListError,
    InvalidFunctionError,
    MatrixFileError,
    NegativeSpectrumError,
    NotContractionError,
    NotHermitianError,
    NotNormalError,
    NotSquareError,
    NumradError,
    OutOfRangeError,
    ShapeUnsupportedError,
    ToleranceUnreachableError,
    UnknownBoundError,
)
from .harness import (
    CampaignConfig,
    contract_verdict,
    counterexample_suite,
    evaluate_bound,
    report_to_csv,
    report_to_json,
    run_campaign,
)
from .matrixio import read_matrix
from .radius import omega, omega_p

_PARSE_ERRORS = (MatrixFileError,)
_PARAM_ERRORS = (
    DimensionMismatchError,
    NotSquareError,
    OutOfRangeError,
    ShapeUnsupportedError,
    EmptyListError,
    NotNormalError,
    NotContractionError,
    DimensionTooLargeError,
    ValueError,
)
_NUMERIC_ERRORS = (
    ToleranceUnreachableError,
    ConvergenceError,
    NegativeSpectrumError,
    NotHermitianError,
    InvalidFunctionError,
)


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, _PARSE_ERRORS):
        return 2
    if isinstance(exc, UnknownBoundError):
        return 5
    if isinstance(exc, _PARAM_ERRORS):
        return 3
    if isinstance(exc, _NUMERIC_ERRORS):
        return 4
    return 4 if isinstance(exc, NumradError) else 3


def _fmt(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def _print_kv(prefix: str, **fields) -> None:
    tokens = [prefix] + [f"{k}={_fmt(v)}" for k, v in fields.items()]
    print(" ".join(tokens))


def cmd_omega(args) -> int:
    m = read_matrix(args.path)
    cert = omega(m, args.tol)
    _print_kv("omega", lo=cert.lo, hi=cert.hi, theta=cert.witness_theta, evals=cert.evals)
    return 0


def cmd_omega_p(args) -> int:
    ops = [read_matrix(p) for p in args.paths]
    est = omega_p(ops, args.p, restarts=args.restarts, tol=args.tol,
                  stream=RngStream(master_seed=args.seed))
    _print_kv("omega_p", value=est.value, p=est.p, converged=est.converged)
    witness = [[float(v.real), float(v.imag)] for v in est.witness]
    print("witness " + json.dumps(witness))
    return 0


def cmd_bound(args) -> int:
    spec = bound_spec(args.id)
    if len(args.paths) != spec.arity:
        raise OutOfRangeError(
            f"bound {spec.bound_id} needs exactly {spec.arity} matrix files, "
            f"got {len(args.paths)}"
        )
    mats = spec.sampler.pack([[read_matrix(p) for p in args.paths]])
    params = {
        "r": args.r,
        "alpha": args.alpha,
        "p": args.p,
        "q": args.q,
        "variant": args.variant,
        "constant_mode": args.constant_mode,
    }
    settings = EvalSettings(omega_tol=args.tol, stream=RngStream(master_seed=args.seed))
    outcome, lhs, _, extras = evaluate_bound(spec.bound_id, mats, params, settings)
    _, violation = contract_verdict(outcome.value, lhs ** outcome.exponent)
    _print_kv("bound", id=spec.bound_id, value=outcome.value,
              exponent=outcome.exponent, omega_lo=lhs, ok=not violation)
    if "zeta_estimate" in extras:
        _print_kv("zeta", value=extras["zeta_estimate"],
                  refined=extras["refined_value"], guaranteed=outcome.value)
    return 0


def _load_config(args) -> CampaignConfig:
    fields: dict = {}
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise MatrixFileError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(payload, dict):
            raise MatrixFileError("config must be a JSON object")
        fields.update(payload)
    if args.seed is not None:
        fields["master_seed"] = args.seed
    if args.tol is not None:
        fields["omega_tol"] = args.tol
    if args.jobs is not None:
        fields["jobs"] = args.jobs
    if args.trials is not None:
        fields["min_trials_per_bound"] = args.trials
    if args.bounds:
        fields["bound_ids"] = tuple(s.strip() for s in args.bounds.split(","))
    if args.constant_mode:
        fields["constant_mode"] = args.constant_mode
    for key, val in fields.items():
        if isinstance(val, list):
            fields[key] = tuple(tuple(v) if isinstance(v, list) else v for v in val)
    try:
        config = CampaignConfig(**fields)
    except TypeError as exc:
        raise MatrixFileError(f"bad config fields: {exc}") from exc
    for bound_id in config.bound_ids:
        bound_spec(bound_id)
    for bound_id, _, _ in config.extra_trials:
        bound_spec(bound_id)
    return config


def _write_reports(report, out_dir: str, fmt: str, stem: str) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = out / f"{stem}.json"
        path.write_text(report_to_json(report))
        written.append(str(path))
    if fmt in ("csv", "both"):
        path = out / f"{stem}.csv"
        path.write_text(report_to_csv(report))
        written.append(str(path))
    return written


def cmd_verify(args) -> int:
    config = _load_config(args)
    report = run_campaign(config)
    _print_kv("campaign", seed=config.master_seed,
              trials=len(report.records), bounds=len(config.bound_ids))
    for bound_id in sorted(report.summary):
        entry = report.summary[bound_id]
        _print_kv("bound_summary", id=bound_id, count=entry["count"],
                  violations=entry["violations"], errors=entry["errors"],
                  ratio_max=entry["ratio_max"])
    unexpected = 0
    expected = {}
    for rec in report.violations:
        mode = rec.params.get("constant_mode", config.constant_mode)
        if mode == "as_stated" and "constant_mode" in bound_spec(rec.bound_id).extras:
            expected[rec.bound_id] = expected.get(rec.bound_id, 0) + 1
        else:
            unexpected += 1
    for bound_id in sorted(expected):
        _print_kv("expected_discrepancy", bound=bound_id,
                  violations=expected[bound_id])
    _print_kv("verify", unexpected_violations=unexpected)
    for path in _write_reports(report, args.out, args.format, "report"):
        print(f"wrote {path}")
    return 0 if unexpected == 0 else 1


def cmd_counterexamples(args) -> int:
    report = counterexample_suite(master_seed=args.seed)
    recs = report.records
    _print_kv("counterexamples", seed=args.seed)
    for rec in recs[:2]:
        _print_kv("case", section=rec.params["section"], bound=rec.bound_id,
                  constant_mode=rec.params["constant_mode"], value=rec.value,
                  lhs_pow=rec.omega_lo ** rec.exponent, violation=rec.violation)
    search = [rec for rec in recs if rec.params.get("section") == "b"]
    hits = [rec for rec in search if rec.violation]
    _print_kv("search", section="b", pairs=len(search), violations=len(hits))
    for rec in hits[:3]:
        _print_kv("found", digests=",".join(rec.digests), lhs=rec.omega_lo,
                  value=rec.value)
    if args.out:
        for path in _write_reports(report, args.out, "json", "counterexamples"):
            print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numrad",
        description="Certified numerical radii and verified operator-matrix bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_omega = sub.add_parser("omega", help="certified numerical radius of one matrix")
    p_omega.add_argument("path")
    p_omega.add_argument("--tol", type=float, default=None)
    p_omega.set_defaults(func=cmd_omega)

    p_wp = sub.add_parser("omega-p", help="generalized radius estimate of a tuple")
    p_wp.add_argument("paths", nargs="+")
    p_wp.add_argument("--p", type=float, default=2.0)
    p_wp.add_argument("--restarts", type=int, default=None)
    p_wp.add_argument("--tol", type=float, default=None)
    p_wp.add_argument("--seed", type=int, default=0)
    p_wp.set_defaults(func=cmd_omega_p)

    p_bound = sub.add_parser("bound", help="evaluate one bound with certified comparison")
    p_bound.add_argument("paths", nargs="+")
    p_bound.add_argument("--id", required=True)
    p_bound.add_argument("--r", type=float, default=1.0)
    p_bound.add_argument("--alpha", type=float, default=0.5)
    p_bound.add_argument("--p", type=float, default=2.0)
    p_bound.add_argument("--q", type=float, default=None)
    p_bound.add_argument("--variant", type=int, choices=(1, 2), default=1)
    p_bound.add_argument("--constant-mode", choices=("as_stated", "as_proved"),
                         default="as_proved")
    p_bound.add_argument("--tol", type=float, default=1e-8)
    p_bound.add_argument("--seed", type=int, default=0)
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--jobs", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None,
                          help="minimum trials per bound")
    p_verify.add_argument("--bounds", default=None,
                          help="comma-separated bound ids")
    p_verify.add_argument("--constant-mode",
                          choices=("as_stated", "as_proved"), default=None)
    p_verify.add_argument("--out", default=".")
    p_verify.add_argument("--format", choices=("json", "csv", "both"),
                          default="both")
    p_verify.set_defaults(func=cmd_verify)

    p_cex = sub.add_parser("counterexamples", help="run the documented counterexample suite")
    p_cex.add_argument("--seed", type=int, default=0x5EED)
    p_cex.add_argument("--out", default=None)
    p_cex.set_defaults(func=cmd_counterexamples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumradError, ValueError) as exc:  # mapped to documented exit codes
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except Exception:  # a bug, not a finding: keep exit 1 for violations
        traceback.print_exc()
        return 6


if __name__ == "__main__":
    sys.exit(main())
