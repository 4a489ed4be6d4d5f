"""Seeded verification campaigns over the bound evaluators.

A campaign draws random inputs per bound, evaluates the bound, measures
the contract side once, and records tightness ratios and violations.
Which grid, inputs, evaluator and contract side a bound id has comes from
its entry in the bound table (`numrad.bounds.BOUNDS`), whose sampler
draws and checks the inputs and whose `contract_side` says how the side
is measured; nothing here tests an id or names an input key or a
measure. Every evaluation takes its settings from one
`numrad.bounds.EvalSettings`, and every contract check, in campaigns, the
counterexample suite and `numrad bound`, goes through `contract_verdict`.

Each process runs its share of the plan in blocks of BLOCK_TRIALS
consecutive trials, and each block in three stages, so a process holds
one block's trials at a time. `_start_trial` draws (or checks) every
trial's inputs and states it as one step, a `numrad.bounds.Pending`: the
bound's value (the evaluator's pending, which `th1`'s ends in the block
radii its value needs) chained to the contract side
(`BoundSpec.contract_side`), whose statement starts once the value has
settled. A pending names norm, polar and composition requests, (operator,
tol, norm) radii and `numrad.radius.AscentRequest`s, and a finish over
their results that may name the next requests; the norm of a radius is
the operator's spectral norm, taken once as a request of the stater, and
only an `omega_p` side of two or more operands names an ascent. Stage 2
is one `numrad.bounds.settle` call over the block's steps, the one
engine that resolves pendings: it loops over decomposition rounds (each
solving each (kind, shape) in one stacked call), one `omega_many` call
over every radius the steps name, and, once no radius is left, one
`ascend_many` call over every ascent. A trial's step settles into its
outcome and its side's (lhs, upper end or None, extras), an ascent's lhs
through `numrad.radius.omega_p` on its ends, or into the error of the
first finish that failed, its value's before its side's, so a trial
whose value fails runs no ascent. `_finish_trial` makes the record
through `contract_verdict`. A trial that raises at any stage becomes its
own error record; the others go on.
`_run_single`, behind `replay_trial` and the counterexample suite, is a
share of one trial; stacked, `omega_many` and `ascend_many` results do
not depend on their batch-mates, so a replay gives back the campaign
record. `evaluate_bound`, behind `numrad bound`, states one trial of
given inputs with its caller's settings, settles it and raises its
error; so one path settles and measures every contract side and
certifies every radius, and the public bound_* functions settle their
own pendings through the same `settle`. A record's `wall_time` is its
own time in the first and last stages plus the time `settle` charged to
its step, so the records of a share add up to the share's time.

Everything is deterministic in the master seed: each trial derives its own
stream from its plan index, so trials can run in any order and in any
process. With `CampaignConfig.jobs` N > 1 and `os.fork` available,
`run_campaign` forks N - 1 workers (this process is worker 0) and deals
the plan to them back and forth: indices 0..N-1 go to workers 0..N-1,
indices N..2N-1 to workers N-1..0, and so on (`_deal`). Each worker sends
its records back through a pipe. The plan's innermost grid axis often
alternates cheap and costly trials (one operator, then two), and its dims
rise from block to block; each block of 2N indices gives every worker one
even and one odd position, so neither trend piles up in one worker.
Records are put back at their indices before the report is built, so
serialized reports are byte-identical for every N and across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import pickle
import signal
import traceback
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from .bounds import (BOUND_IDS, CONSTANT_MODES, DEFAULT_ROLES, FAILURES, BoundSpec,
                     EvalSettings, _then, bound_spec, settle)
from .ensembles import KINDS, RngStream, derive, sample
from .errors import OutOfRangeError
from .linalg import polar_eigen, recompose, spectral_norm

FORMAT_VERSION = "numrad-report/1"

_CSV_COLUMNS = ("trial", "bound_id", "m", "n", "r", "alpha", "p", "q",
                "value", "omega_lo", "omega_hi", "ratio", "violation", "seed_path")

# Relative slack of every contract check: see `contract_verdict`.
CONTRACT_SLACK = 1e-8


@dataclass
class CampaignConfig:
    """Everything a campaign needs; two equal configs give identical reports."""

    bound_ids: tuple = BOUND_IDS
    dims: tuple = ((1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (8, 8))
    trials: int | None = None          # per combination; None picks the smallest
    min_trials_per_bound: int = 500    # count reaching this per-bound total
    r_values: tuple = (1.0, 1.5, 2.0, 3.0)
    alpha_values: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    holder_p_values: tuple = (1.25, 2.0, 4.0)
    omega_p_p_values: tuple = (1.0, 2.0, 3.0)
    n_operators_values: tuple = (1, 2, 4)
    ensembles: dict = field(default_factory=dict)  # role -> kind; the rest default
    master_seed: int = 0
    omega_tol: float = 1e-6            # relative to each measured operator's norm
    slack: float = CONTRACT_SLACK      # violation slack epsilon_rel
    constant_mode: str = "as_proved"
    omega_p_restarts: int = 4
    omega_p_max_iter: int = 120
    jobs: int = 1                      # worker processes; never changes a report
    extra_trials: tuple = ()           # (bound_id, params dict, mats dict) triples

    def __post_init__(self) -> None:
        # omega needs tol >= 1e-12 ||M||, and omega_tol is relative to ||M||
        for key, low in (("omega_tol", 1e-12), ("slack", 0.0)):
            val = getattr(self, key)
            if not (_is_finite(val) and val >= low):
                raise OutOfRangeError(f"{key} must be a finite number >= {low:g}, "
                                      f"got {val!r}")
        counts = {"master_seed": None, "min_trials_per_bound": 0,
                  "omega_p_restarts": 1, "omega_p_max_iter": 0, "jobs": 1}
        if self.trials is not None:  # None picks the count from min_trials_per_bound
            counts["trials"] = 1
        for key, low in counts.items():
            val = getattr(self, key)
            if not (_is_int(val) and (low is None or val >= low)):
                at_least = "" if low is None else f" >= {low}"
                raise OutOfRangeError(f"{key} must be an integer{at_least}, got {val!r}")
        if self.constant_mode not in CONSTANT_MODES:
            raise OutOfRangeError(f"constant_mode must be {' or '.join(CONSTANT_MODES)}, "
                                  f"got {self.constant_mode!r}")
        if not (isinstance(self.dims, (tuple, list)) and all(
                isinstance(dim, (tuple, list)) and len(dim) == 2
                and all(_is_int(side) and side >= 1 for side in dim)
                for dim in self.dims)):
            raise OutOfRangeError(
                f"dims must be (m, n) pairs of integers >= 1, got {self.dims!r}")
        # every sweep entry must suit each bound it reaches; a Hoelder p sets
        # its conjugate q = p / (p - 1), which needs a finite p > 1
        for key, what, ok in (
                ("r_values", "finite numbers >= 1", lambda v: _is_finite(v) and v >= 1.0),
                ("alpha_values", "numbers in [0, 1]", lambda v: _is_real(v) and 0.0 <= v <= 1.0),
                ("holder_p_values", "finite numbers > 1", lambda v: _is_finite(v) and v > 1.0),
                ("omega_p_p_values", "finite numbers >= 1", lambda v: _is_finite(v) and v >= 1.0),
                ("n_operators_values", "integers >= 1", lambda v: _is_int(v) and v >= 1)):
            vals = getattr(self, key)
            if not (isinstance(vals, (tuple, list)) and all(ok(v) for v in vals)):
                raise OutOfRangeError(f"{key} must be {what}, got {vals!r}")
        if not isinstance(self.ensembles, dict) or any(
                role not in DEFAULT_ROLES or kind not in KINDS
                for role, kind in self.ensembles.items()):
            raise OutOfRangeError(f"ensembles must map roles in {sorted(DEFAULT_ROLES)} "
                                  f"to kinds in {list(KINDS)}, got {self.ensembles!r}")
        self.ensembles = dict(DEFAULT_ROLES, **self.ensembles)
        for entry in self.extra_trials:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 3
                    and isinstance(entry[1], dict) and isinstance(entry[2], dict)):
                raise OutOfRangeError(f"an extra trial must be a (bound id, params "
                                      f"object, matrices object) triple, got {entry!r}")


def _is_int(val) -> bool:
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


def _is_real(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def _is_finite(val) -> bool:
    return _is_real(val) and math.isfinite(val)


def default_config(master_seed: int = 0, **overrides) -> CampaignConfig:
    """The default campaign: every bound id, dims up to 8, full sweeps."""
    return CampaignConfig(master_seed=master_seed, **overrides)


@dataclass
class TrialRecord:
    """One evaluated (input, bound) pair with its contract check."""

    index: int
    bound_id: str
    params: dict
    digests: tuple
    value: float | None
    exponent: float | None
    omega_lo: float | None
    omega_hi: float | None
    ratio: float | None
    violation: bool
    seed_path: str
    error: str | None = None
    # In-memory only; reports must be byte-identical. `settle` splits each
    # stacked call of a block's rounds evenly over its requests, which cover
    # one (kind, shape) and cost alike. It splits the block's omega_many
    # calls by angles, and an angle's cost depends on its operator's side
    # and kernel (a bipartite operand's SVD of its off-diagonal block is
    # cheaper than an eigensolve), so they overcharge small and bipartite
    # operands. It splits the ascend_many call by row iterations, whose
    # cost grows with the operator count and side, so that call
    # overcharges small ascents. Each finish is charged its own time.
    wall_time: float = 0.0


@dataclass
class CampaignReport:
    """Config echo, per-bound summaries, and the flagged records."""

    format_version: str
    config: dict
    summary: dict
    violations: list
    errors: list
    records: list


def _digest(mat: np.ndarray) -> str:
    m = np.ascontiguousarray(np.asarray(mat, dtype=np.complex128))
    h = hashlib.sha256()
    h.update(str(m.shape).encode())
    h.update(m.tobytes())
    return h.hexdigest()[:16]


# The parameter points of each grid axis a bound table entry can name.
_AXES = {
    "dims": lambda c: [{"m": m, "n": n} for m, n in c.dims],
    "square_dims": lambda c: [{"m": m, "n": m} for m, _ in c.dims],
    "r_values": lambda c: [{"r": r} for r in c.r_values],
    "alpha_values": lambda c: [{"alpha": a} for a in c.alpha_values],
    "holder_p_values": lambda c: [{"p": p, "q": p / (p - 1.0)} for p in c.holder_p_values],
    "signs": lambda c: [{"sign": sign} for sign in ("+", "-")],
    "omega_p_p_values": lambda c: [{"p": p} for p in c.omega_p_p_values],
    "n_operators_values": lambda c: [{"n_operators": k} for k in c.n_operators_values],
}


def _combos(spec: BoundSpec, config: CampaignConfig) -> list[dict]:
    combos: list[dict] = [{}]
    for axis in spec.axes:
        combos = [dict(combo, **point) for combo in combos for point in _AXES[axis](config)]
    return combos


def _build_plan(config: CampaignConfig) -> list[tuple[str, dict, dict | None]]:
    plan: list[tuple[str, dict, dict | None]] = []
    for bound_id in config.bound_ids:
        combos = _combos(bound_spec(bound_id), config)
        per = config.trials if config.trials is not None else \
            max(1, math.ceil(config.min_trials_per_bound / max(1, len(combos))))
        for combo in combos:
            for rep in range(per):
                plan.append((bound_id, dict(combo, replica=rep), None))
    for bound_id, params, mats in config.extra_trials:
        plan.append((bound_id, dict(params), dict(mats)))
    return plan


def contract_verdict(value: float, lhs_pow: float,
                     slack: float = CONTRACT_SLACK) -> tuple[float | None, bool]:
    """(ratio, violation) of the contract lhs_pow <= value.

    The contract is violated when value < lhs_pow - slack * max(1, value).
    The tightness ratio is lhs_pow / value, capped at 1e308; at value 0 it
    is 1e308 when lhs_pow > 0, and None otherwise: 0/0 is no ratio, as
    when a value and its radius power both underflow.
    """
    violation = value < lhs_pow - slack * max(1.0, value)
    if value > 0.0:
        ratio = min(lhs_pow / value, 1e308)
    else:
        ratio = 1e308 if lhs_pow > 0.0 else None
    return ratio, bool(violation)


# Trials per block of `_run_share`, which holds one block's trials between
# its stages; results do not depend on batch-mates, so no report moves.
BLOCK_TRIALS = 512


@dataclass(slots=True)
class _Trial:
    """A trial between the stages of `_run_share`."""

    index: int
    bound_id: str
    params: dict
    wall: float = 0.0
    digests: tuple = ()


def _settings(config: CampaignConfig, index: int) -> EvalSettings:
    """The evaluation settings of plan entry `index`, with its own stream."""
    return EvalSettings(config.omega_tol, config.omega_p_restarts, config.omega_p_max_iter,
                        derive(RngStream(config.master_seed), index))


def _start_trial(config: CampaignConfig, index: int, bound_id: str,
                 params: dict, mats: dict | None) -> tuple[_Trial, object]:
    """Stage 1: draw (or check) the inputs and state the trial as one step;
    returns the trial and its step, or the error stating it raised. The
    trial does not keep the step, so stage 2 frees what a step no longer
    needs."""
    t0 = perf_counter()
    trial = _Trial(index, bound_id, params)
    try:
        spec = bound_spec(bound_id)
        if spec.extras:
            trial.params = params = dict(params, **{key: params.get(key, getattr(config, key))
                                                    for key in spec.extras})
        settings = _settings(config, index)
        mats = spec.sampler.draw(params, config.ensembles, settings.stream) if mats is None \
            else spec.sampler.coerce(mats)
        trial.digests = tuple(_digest(m) for m in spec.sampler.unpack(mats))
        step = _stated(spec, mats, trial.params, settings)
    except FAILURES as exc:
        step = exc
    trial.wall = perf_counter() - t0
    return trial, step


def _stated(spec: BoundSpec, mats: dict, params: dict, settings: EvalSettings):
    """Stage 1's statement of checked inputs: one step that settles into
    (outcome, contract side ends), the bound's value and then its contract
    side, so a failed value is the trial's error and its side is never
    measured. A side that fails to be stated raises its error once the
    value has settled."""
    value = spec.evaluate(mats, params, settings)
    try:
        side = spec.contract_side(mats, params, settings)
    except FAILURES as exc:
        side = exc

    def measured(outcome):
        if isinstance(side, Exception):
            raise side
        return _then(side, lambda ends: (outcome, ends))

    return _then(value, measured)


def _finish_trial(config: CampaignConfig, trial: _Trial, step) -> TrialRecord:
    """Stage 3: the record of a trial from its settled step, (outcome, (lhs,
    upper end or None, extras)) or an error, through `contract_verdict`."""
    t0 = perf_counter()
    seed_path = f"{config.master_seed}/{trial.index}"
    error = step if isinstance(step, Exception) else None
    if error is None:
        try:
            outcome, (lhs, omega_hi, extras) = step
            value, exponent = outcome.value, outcome.exponent
            ratio, violation = contract_verdict(value, lhs ** exponent, config.slack)
            record = TrialRecord(
                index=trial.index,
                bound_id=trial.bound_id,
                params=_clean_params(dict(trial.params, **extras)),
                digests=trial.digests,
                value=value,
                exponent=exponent,
                omega_lo=lhs,
                omega_hi=omega_hi,
                ratio=ratio,
                violation=violation,
                seed_path=seed_path,
            )
        except FAILURES as exc:
            error = exc
        except OverflowError as exc:
            error = OutOfRangeError(f"contract side power out of the float range: {exc}")
    if error is not None:
        record = TrialRecord(
            index=trial.index, bound_id=trial.bound_id,
            params=_clean_params(dict(trial.params)), digests=(), value=None,
            exponent=None, omega_lo=None, omega_hi=None, ratio=None, violation=False,
            seed_path=seed_path, error=f"{type(error).__name__}: {error}",
        )
    record.wall_time = trial.wall + perf_counter() - t0
    return record


def _run_share(config: CampaignConfig, entries: list) -> list[TrialRecord]:
    """The records of plan entries (index, bound id, params, mats), run in
    consecutive blocks of BLOCK_TRIALS entries, each in three stages: every
    trial drawn and stated, every step settled, every record finished. A
    trial that fails becomes its own error record; the others go on."""
    records = []
    for start in range(0, len(entries), BLOCK_TRIALS):
        trials, steps = map(list, zip(*[_start_trial(config, *entry)
                                        for entry in entries[start:start + BLOCK_TRIALS]]))
        _, spent = settle(steps)
        for trial, t in zip(trials, spent):
            trial.wall += t
        records += [_finish_trial(config, trial, step) for trial, step in zip(trials, steps)]
    return records


def _run_single(config: CampaignConfig, index: int, bound_id: str,
                params: dict, mats: dict | None) -> TrialRecord:
    """One plan entry as a share of its own."""
    return _run_share(config, [(index, bound_id, params, mats)])[0]


def evaluate_bound(bound_id: str, mats: dict, params: dict,
                   settings: EvalSettings = EvalSettings()):
    """Evaluate one bound on explicit matrices and measure its contract side.

    Returns (outcome, lhs, omega_hi_or_None, extras). `lhs` is the certified
    lower radius endpoint (also for a generalized radius of one operator),
    the exact operator norm, or the generalized-radius estimate of two or
    more operators, depending on the bound family and operand count;
    `outcome.value` must dominate lhs ** outcome.exponent whenever the bound
    is valid. `extras` holds what the contract side adds to a record's
    params: `estimate_converged` for a generalized-radius estimate.

    This is a campaign trial on given inputs: stage 1's statement with
    `settings`, then `numrad.bounds.settle` over its one step. A failure is
    raised, not recorded.
    """
    spec = bound_spec(bound_id)
    (out,), _ = settle([_stated(spec, spec.sampler.coerce(mats), params, settings)])
    if isinstance(out, Exception):
        raise out
    outcome, ends = out
    return (outcome, *ends)


def _clean_params(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if key == "pair":
            out[key] = getattr(val, "tag", str(val))
        elif isinstance(val, (bool, int, float, str)) or val is None:
            out[key] = val
        else:
            out[key] = str(val)
    return out


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Execute the whole campaign plan; deterministic given the config."""
    plan = _build_plan(config)
    workers = min(config.jobs, len(plan))
    if workers > 1 and hasattr(os, "fork"):
        records = _run_forked(config, plan, workers)
    else:
        records = _run_share(config, [(i, *entry) for i, entry in enumerate(plan)])
    return build_report(config, records)


def _deal(worker: int, workers: int, count: int) -> list[int]:
    """Ascending plan indices of `worker` when `count` trials are dealt to
    `workers` processes back and forth: index i goes to worker
    min(i % 2N, 2N - 1 - i % 2N) for N = `workers`."""
    period = 2 * workers
    return [i for start in range(0, count, period)
            for i in (start + worker, start + period - 1 - worker) if i < count]


def _run_forked(config: CampaignConfig, plan: list, workers: int) -> list:
    """Run each worker's `_deal` share of the plan; worker 0 is this process."""
    records: list = [None] * len(plan)
    children: dict = {}  # worker -> (pid, read end of its pipe)
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(config, plan, worker, workers, write_fd)
            os.close(write_fd)
            children[worker] = (pid, os.fdopen(read_fd, "rb"))
        for rec in _run_share(config, [(i, *plan[i]) for i in _deal(0, workers, len(plan))]):
            records[rec.index] = rec
        failed = []
        for worker, (pid, pipe) in list(children.items()):
            try:
                share = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                share = None
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[worker]
            if share is None or status != 0:
                failed.append(f"worker {worker} of {workers} (wait status {status})")
            else:
                for rec in share:
                    records[rec.index] = rec
        if failed:
            raise RuntimeError(f"campaign worker failed: {'; '.join(failed)}")
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return records


def _worker(config: CampaignConfig, plan: list, worker: int, workers: int,
            write_fd: int) -> None:
    """Body of a forked worker: run its `_deal` share, pickle the records to
    `write_fd` and leave through `os._exit`, so no atexit handler runs and
    no inherited stdio buffer is flushed twice."""
    status = 1
    try:
        share = _run_share(config, [(i, *plan[i]) for i in _deal(worker, workers, len(plan))])
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(share, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def replay_trial(config: CampaignConfig, index: int) -> TrialRecord:
    """Re-run one plan entry in isolation; reproduces the campaign record."""
    plan = _build_plan(config)
    bound_id, params, mats = plan[index]
    return _run_single(config, index, bound_id, params, mats)


def build_report(config: CampaignConfig, records: list) -> CampaignReport:
    summary: dict = {}
    ratios: dict = {}  # bound id -> its records' ratios
    for rec in records:
        entry = summary.setdefault(rec.bound_id, {
            "count": 0, "violations": 0, "errors": 0,
            "ratio_min": None, "ratio_median": None, "ratio_max": None,
        })
        entry["count"] += 1
        if rec.error is not None:
            entry["errors"] += 1
        if rec.violation:
            entry["violations"] += 1
        if rec.ratio is not None:
            ratios.setdefault(rec.bound_id, []).append(rec.ratio)
    for bound_id, found in ratios.items():
        summary[bound_id].update(ratio_min=float(min(found)), ratio_median=float(np.median(found)),
                                 ratio_max=float(max(found)))
    return CampaignReport(
        format_version=FORMAT_VERSION,
        config=_config_echo(config),
        summary=summary,
        violations=[rec for rec in records if rec.violation],
        errors=[rec for rec in records if rec.error is not None],
        records=records,
    )


def _config_echo(config: CampaignConfig) -> dict:
    echo = asdict(config)
    # jobs only splits the plan across processes; reports must not depend on it
    echo.pop("jobs", None)
    echo["extra_trials"] = [
        [bound_id, _clean_params(dict(params)), sorted(mats.keys())]
        for bound_id, params, mats in config.extra_trials
    ]
    return echo


def _record_dict(rec: TrialRecord) -> dict:
    out = asdict(rec)
    del out["wall_time"]
    return out


def report_to_json(report: CampaignReport) -> str:
    """Full report as canonical JSON (wall times excluded by design)."""
    payload = {
        "format_version": report.format_version,
        "config": report.config,
        "summary": report.summary,
        "violations": [_record_dict(rec) for rec in report.violations],
        "errors": [_record_dict(rec) for rec in report.errors],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def report_to_csv(report: CampaignReport) -> str:
    """All trial records as flat CSV rows."""
    lines = [",".join(_CSV_COLUMNS)]
    for rec in report.records:
        prm = rec.params
        row = (rec.index, rec.bound_id, prm.get("m"), prm.get("n"),
               prm.get("r"), prm.get("alpha"), prm.get("p"), prm.get("q"),
               rec.value, rec.omega_lo, rec.omega_hi, rec.ratio,
               rec.violation, rec.seed_path)
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


COUNTEREXAMPLE_SEED = 0x5EED


def counterexample_suite(master_seed: int = COUNTEREXAMPLE_SEED,
                         random_pairs: int = 500) -> CampaignReport:
    """Fixed documented discrepancy cases plus a misapplication search.

    (a) the scalar input X = Y = [1] falsifies the printed Holder-bound
        constant (value 0.5 against radius power 1);
    (b) seeded random non-normal pairs probe ||X + Y|| <= || |X| + |Y| ||
        outside its normality hypothesis; found violations confirm the
        hypothesis matters and are expected;
    (c) the proved constant passes on the same scalar input.
    """
    config = CampaignConfig(bound_ids=(), master_seed=master_seed,
                            extra_trials=())
    records = []
    one = [[1.0]]
    scalars = bound_spec("main11.v1").sampler.pack([[one, one]])
    base = {"m": 1, "n": 1, "r": 1.0, "alpha": 0.5, "p": 2.0, "q": 2.0}

    for idx, mode, section in ((0, "as_stated", "a"), (1, "as_proved", "c")):
        params = dict(base, constant_mode=mode, section=section)
        records.append(_run_single(config, idx, "main11.v1", params, scalars))

    root = RngStream(master_seed)
    index = 2
    for k in range(random_pairs):
        stream = derive(root, 1000 + k)
        side = 2 + k % 3
        x = sample("ginibre", side, side, derive(stream, 1))
        y = sample("ginibre", side, side, derive(stream, 2))
        lhs = spectral_norm(x + y)
        rhs = spectral_norm(recompose(*polar_eigen(x)[0]) + recompose(*polar_eigen(y)[0]))
        ratio, violation = contract_verdict(rhs, lhs, config.slack)
        records.append(TrialRecord(
            index=index,
            bound_id="sum_norm.normal",
            params={"m": side, "n": side, "r": 1.0, "sign": "+",
                    "section": "b", "misapplied": True},
            digests=(_digest(x), _digest(y)),
            value=rhs,
            exponent=1.0,
            omega_lo=lhs,
            omega_hi=lhs,
            ratio=ratio,
            violation=violation,
            seed_path=f"{master_seed}/{1000 + k}",
        ))
        index += 1
    return build_report(config, records)

