"""Experiment orchestration: sweep grids, trial runner, perf trajectory.

Every benchmark so far is a one-off CLI run; this module is the
connective tissue that turns them into *experiments* (the fuzzbench
shape: a coordinator that schedules trials, a measurer, a results
store, generated reports):

- :class:`TrialSpec` — one grid cell: a fully-specified serving or
  fleet simulation (scheme, admission, prefix caching, trace, rate,
  routing policy, fleet size, seed);
- :class:`SweepConfig` — a declarative sweep grid (dataclass, dict or
  JSON file) that expands to the cross product of its axes, skipping
  combinations the stack rejects (prefix caching on reserve
  admission, prefix caching on an id-less trace);
- :func:`run_sweep` — executes every trial via the existing
  :mod:`repro.bench.serving` / :mod:`repro.bench.cluster` entry
  points, serially or in parallel worker processes
  (:mod:`concurrent.futures`), with deterministic per-trial seeds —
  results are identical whatever the worker count;
- :class:`Trajectory` — the results store: every trial's config,
  metrics (:meth:`~repro.serve.simulator.ServingReport.metrics` /
  :meth:`~repro.cluster.fleet.FleetReport.metrics`), wall time and the
  git SHA, persisted to ``BENCH_<pr>.json`` at the repo root.  The
  schema is versioned, unknown fields survive a load/save round trip,
  and malformed files raise :class:`TrajectoryError` instead of a
  stack trace;
- :func:`compare` / :func:`render_report` — per-metric deltas against
  the previous PR's ``BENCH_<n>.json`` (:func:`find_previous`),
  flagging regressions beyond a relative tolerance, rendered as a
  markdown report.

``python -m repro.bench.orchestrator`` runs a sweep from ``--config``
(JSON) or a named ``--preset``, writes the trajectory and report, and
with ``--check`` exits non-zero when a regression is flagged — which
is exactly what the CI ``orchestrator-smoke`` step does against the
committed baseline.

Wall-clock time is recorded per trial but lives outside ``metrics``:
the metric payload is a pure function of the spec, which is what lets
golden tests assert byte-identical persistence across runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Version of the persisted trajectory schema.  Bump when a field
#: changes meaning; loaders reject files from a *newer* schema (they
#: cannot know what the fields mean) but accept older ones.
SCHEMA_VERSION = 1

#: The PR this checkout's trajectory file belongs to: this PR's run
#: persists ``BENCH_10.json`` and diffs it against ``BENCH_8.json``.
PR_NUMBER = 10

#: Trial kinds the runner understands.
TRIAL_KINDS = ("serving", "fleet")


class TrajectoryError(ValueError):
    """A trajectory file or sweep config is malformed.

    Raised with a human-readable reason (and the offending path where
    there is one) instead of letting ``KeyError``/``TypeError`` escape
    from the middle of the JSON plumbing.
    """


# ----------------------------------------------------------------------
# Trial specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSpec:
    """One fully-specified grid cell: a single simulation to run.

    ``kind="serving"`` runs one single-engine
    :func:`repro.bench.serving.simulate_mode`; ``kind="fleet"`` runs
    ``n_replicas`` engines behind a ``policy`` router
    (:class:`repro.cluster.fleet.FleetSimulator`).  Everything is
    plain data so specs pickle cleanly into worker processes and
    round-trip through JSON.
    """

    kind: str = "serving"
    mode: str = "fp16"
    admission: str = "reserve"
    prefix_caching: bool = False
    trace_kind: str = "poisson"
    rate_rps: float = 16.0
    n_requests: int = 64
    prompt_mean: int = 384
    output_mean: int = 96
    gpu: str = "rtx4090"
    kv_hbm_gb: Optional[float] = 4.0
    token_budget: int = 2048
    max_seqs: int = 64
    block_tokens: int = 16
    n_replicas: int = 1
    policy: str = "round-robin"
    slo_ttft_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        # Import here so building a spec never pays the engine import.
        from repro.bench.serving import SERVING_MODES, TRACE_KINDS
        from repro.cluster.fleet import POLICIES
        from repro.serve.scheduler import ADMISSION_POLICIES

        if self.kind not in TRIAL_KINDS:
            raise TrajectoryError(f"unknown trial kind {self.kind!r}; "
                                  f"expected one of {TRIAL_KINDS}")
        if self.mode not in SERVING_MODES:
            raise TrajectoryError(f"unknown mode {self.mode!r}; "
                                  f"expected one of {SERVING_MODES}")
        if self.admission not in ADMISSION_POLICIES:
            raise TrajectoryError(
                f"unknown admission {self.admission!r}; "
                f"expected one of {ADMISSION_POLICIES}")
        if self.trace_kind not in TRACE_KINDS:
            raise TrajectoryError(f"unknown trace kind {self.trace_kind!r}; "
                                  f"expected one of {TRACE_KINDS}")
        if self.policy not in POLICIES:
            raise TrajectoryError(f"unknown routing policy {self.policy!r}; "
                                  f"known: {sorted(POLICIES)}")
        if self.prefix_caching and self.admission != "paged":
            raise TrajectoryError(
                "prefix_caching requires admission='paged'")
        if self.prefix_caching and self.trace_kind not in ("shared_prefix",
                                                           "chat"):
            raise TrajectoryError(
                "prefix_caching needs an id-carrying trace "
                f"(shared_prefix/chat), not {self.trace_kind!r}")
        if self.rate_rps <= 0:
            raise TrajectoryError("rate_rps must be positive")
        if self.n_requests < 1:
            raise TrajectoryError("n_requests must be >= 1")
        if self.n_replicas < 1:
            raise TrajectoryError("n_replicas must be >= 1")
        if self.slo_ttft_s is not None and self.slo_ttft_s <= 0:
            raise TrajectoryError("slo_ttft_s must be positive")

    @property
    def trial_id(self) -> str:
        """Stable human-readable identity of this grid cell.

        Regression deltas join current and previous trajectories on
        this key, so it must be a pure function of the spec.
        """
        parts = [self.kind, self.mode, self.admission]
        if self.prefix_caching:
            parts.append("prefix")
        parts.append(f"{self.trace_kind}@{self.rate_rps:g}rps")
        if self.kind == "fleet":
            parts.append(f"x{self.n_replicas}-{self.policy}")
        parts.append(f"seed{self.seed}")
        return "/".join(parts)

    @property
    def trial_seed(self) -> int:
        """Deterministic per-trial trace seed.

        Mixes the sweep's base seed with a CRC of the trial identity
        (``hash()`` is randomized per process, so it must not appear
        here) — trials draw independent traces, yet every rerun, on
        any worker layout, sees the same one.
        """
        return (self.seed * 1_000_003
                + zlib.crc32(self.trial_id.encode())) % (2 ** 31)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrialSpec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise TrajectoryError(
                f"trial spec must be an object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise TrajectoryError(f"unknown trial spec fields {unknown}; "
                                  f"known: {sorted(known)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise TrajectoryError(f"bad trial spec: {exc}") from None


# ----------------------------------------------------------------------
# Sweep configuration
# ----------------------------------------------------------------------
@dataclass
class SweepConfig:
    """A declarative sweep grid over the serving/fleet experiment space.

    The grid is the cross product of the plural axes; scalar fields
    are shared by every cell.  :meth:`trials` drops the combinations
    the stack rejects by construction (prefix caching without paged
    admission or without an id-carrying trace) so configs can name the
    full ``schemes x admissions x prefix`` cube without enumerating
    validity by hand.
    """

    name: str = "sweep"
    kind: str = "serving"
    modes: Tuple[str, ...] = ("fp16", "kv-cq-4")
    admissions: Tuple[str, ...] = ("reserve", "paged")
    prefix_caching: Tuple[bool, ...] = (False,)
    trace_kinds: Tuple[str, ...] = ("poisson",)
    rates: Tuple[float, ...] = (16.0,)
    fleet_sizes: Tuple[int, ...] = (1,)
    policies: Tuple[str, ...] = ("round-robin",)
    n_requests: int = 64
    prompt_mean: int = 384
    output_mean: int = 96
    gpu: str = "rtx4090"
    kv_hbm_gb: Optional[float] = 4.0
    token_budget: int = 2048
    max_seqs: int = 64
    block_tokens: int = 16
    slo_ttft_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        for axis in ("modes", "admissions", "prefix_caching", "trace_kinds",
                     "rates", "fleet_sizes", "policies"):
            values = getattr(self, axis)
            if isinstance(values, (str, bytes)) or not isinstance(
                    values, (list, tuple)):
                raise TrajectoryError(
                    f"sweep axis {axis!r} must be a list of values, "
                    f"got {values!r}")
            if not values:
                raise TrajectoryError(f"sweep axis {axis!r} is empty")
            setattr(self, axis, tuple(values))
        if len(set(self.prefix_caching)) != len(self.prefix_caching):
            raise TrajectoryError("prefix_caching axis repeats a value")

    def trials(self) -> List[TrialSpec]:
        """Expand the grid to its (valid, de-duplicated) trial specs.

        Fleet-only axes collapse for serving sweeps (and routing
        policy for one-replica fleets is still exercised as given), so
        the same config dict can flip ``kind`` without exploding the
        serving grid.
        """
        fleet_sizes = self.fleet_sizes if self.kind == "fleet" else (1,)
        policies = self.policies if self.kind == "fleet" else (
            self.policies[0],)
        specs: List[TrialSpec] = []
        seen = set()
        for (mode, admission, prefix, trace_kind, rate, size,
             policy) in itertools.product(
                 self.modes, self.admissions, self.prefix_caching,
                 self.trace_kinds, self.rates, fleet_sizes, policies):
            if prefix and admission != "paged":
                continue  # the scheduler rejects this combination
            if prefix and trace_kind not in ("shared_prefix", "chat"):
                continue  # id-less traces cannot hit the cache
            spec = TrialSpec(
                kind=self.kind, mode=mode, admission=admission,
                prefix_caching=prefix, trace_kind=trace_kind,
                rate_rps=rate, n_requests=self.n_requests,
                prompt_mean=self.prompt_mean, output_mean=self.output_mean,
                gpu=self.gpu, kv_hbm_gb=self.kv_hbm_gb,
                token_budget=self.token_budget, max_seqs=self.max_seqs,
                block_tokens=self.block_tokens, n_replicas=size,
                policy=policy, slo_ttft_s=self.slo_ttft_s, seed=self.seed)
            if spec.trial_id not in seen:
                seen.add(spec.trial_id)
                specs.append(spec)
        if not specs:
            raise TrajectoryError(
                f"sweep {self.name!r} expands to zero valid trials")
        return specs

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for axis in ("modes", "admissions", "prefix_caching", "trace_kinds",
                     "rates", "fleet_sizes", "policies"):
            out[axis] = list(out[axis])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Build a config from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise TrajectoryError(
                f"sweep config must be an object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise TrajectoryError(f"unknown sweep config fields {unknown}; "
                                  f"known: {sorted(known)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise TrajectoryError(f"bad sweep config: {exc}") from None

    @classmethod
    def from_json_file(cls, path) -> "SweepConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise TrajectoryError(f"cannot read sweep config {path}: "
                                  f"{exc}") from None
        except json.JSONDecodeError as exc:
            raise TrajectoryError(f"sweep config {path} is not valid "
                                  f"JSON: {exc}") from None
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------
@dataclass
class TrialResult:
    """One executed trial: its spec, metric payload and wall time.

    ``metrics`` is a pure function of ``spec`` (the simulators are
    deterministic); ``wall_time_s`` is the one machine-dependent field
    and is excluded from regression comparison for that reason.
    """

    spec: TrialSpec
    metrics: Dict[str, float]
    wall_time_s: float

    @property
    def trial_id(self) -> str:
        return self.spec.trial_id

    def to_dict(self) -> dict:
        return {"trial_id": self.trial_id, "spec": self.spec.to_dict(),
                "metrics": dict(self.metrics),
                "wall_time_s": self.wall_time_s}

    @classmethod
    def from_dict(cls, data: dict) -> "TrialResult":
        if not isinstance(data, dict):
            raise TrajectoryError(
                f"trial must be an object, got {type(data).__name__}")
        for key in ("spec", "metrics"):
            if key not in data:
                raise TrajectoryError(f"trial is missing {key!r}")
        metrics = data["metrics"]
        if not isinstance(metrics, dict):
            raise TrajectoryError("trial 'metrics' must be an object, got "
                                  f"{type(metrics).__name__}")
        for name, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TrajectoryError(
                    f"metric {name!r} must be a number, got {value!r}")
        wall = data.get("wall_time_s", 0.0)
        if not isinstance(wall, (int, float)) or isinstance(wall, bool):
            raise TrajectoryError(
                f"trial 'wall_time_s' must be a number, got {wall!r}")
        result = cls(spec=TrialSpec.from_dict(data["spec"]),
                     metrics=dict(metrics), wall_time_s=float(wall))
        stored = data.get("trial_id")
        if stored is not None and stored != result.trial_id:
            raise TrajectoryError(
                f"trial_id {stored!r} does not match its spec "
                f"({result.trial_id!r}); the file was edited inconsistently")
        return result


def run_trial(spec: TrialSpec,
              trace_path: Optional[Path] = None,
              timeline_path: Optional[Path] = None) -> TrialResult:
    """Execute one grid cell and return its metric payload.

    ``trace_path`` turns on :mod:`repro.obs` timeline recording for
    the trial and writes the Chrome/Perfetto ``trace_event`` JSON
    there.  ``timeline_path`` additionally samples windowed time
    series (:class:`repro.obs.timeline.TimelineCollector`) and writes
    the :meth:`~repro.obs.timeline.Timeline.to_json` document there.
    Both are observation-only — the metric payload is bit-identical
    with or without them.
    """
    from repro.obs.slo import SLO

    start = time.perf_counter()
    # One objective judges both the timeline's windows and the fleet's
    # SLO metrics.
    slo = (SLO(ttft_s=spec.slo_ttft_s)
           if spec.slo_ttft_s is not None else None)
    timeline_cfg = None
    if timeline_path is not None:
        from repro.obs.timeline import TimelineConfig
        timeline_cfg = TimelineConfig(slo=slo)
    if spec.kind == "serving":
        from repro.bench.serving import simulate_mode
        from repro.gpu.spec import get_spec

        report = simulate_mode(
            spec.mode, spec=get_spec(spec.gpu), kv_hbm_gb=spec.kv_hbm_gb,
            rate_rps=spec.rate_rps, n_requests=spec.n_requests,
            prompt_mean=spec.prompt_mean, output_mean=spec.output_mean,
            token_budget=spec.token_budget, max_seqs=spec.max_seqs,
            seed=spec.trial_seed, trace_kind=spec.trace_kind,
            admission=spec.admission, block_tokens=spec.block_tokens,
            prefix_caching=spec.prefix_caching,
            trace=trace_path is not None, timeline=timeline_cfg)
        metrics = report.metrics()
    else:
        from repro.bench.serving import (
            make_cost_model,
            make_kv_budget,
            make_trace,
        )
        from repro.core.engine import ComputeEngine
        from repro.gpu.spec import get_spec
        from repro.llm.config import llama_7b
        from repro.serve.api import FleetConfig, SchedulerConfig

        gpu, config = get_spec(spec.gpu), llama_7b()
        trace = make_trace(spec.trace_kind, spec.rate_rps, spec.n_requests,
                           spec.prompt_mean, spec.output_mean,
                           seed=spec.trial_seed)
        # Per-replica budget exactly as simulate_mode builds it: an
        # explicit kv_hbm_gb, or None to derive it from the GPU.
        budget = make_kv_budget(
            config, spec.mode,
            capacity_bytes=(None if spec.kv_hbm_gb is None
                            else spec.kv_hbm_gb * 1e9),
            spec=gpu)
        fleet_config = FleetConfig(
            scheduler=SchedulerConfig(
                token_budget=spec.token_budget, max_seqs=spec.max_seqs,
                admission=spec.admission, block_tokens=spec.block_tokens,
                prefix_caching=spec.prefix_caching),
            policy=spec.policy, name=spec.trial_id,
            trace=trace_path is not None, timeline=timeline_cfg)
        cost_model = make_cost_model(ComputeEngine(gpu), config, spec.mode)
        report = fleet_config.build(spec.n_replicas, budget,
                                    cost_model).run(trace)
        metrics = report.metrics(slo)
    if trace_path is not None and report.tracer is not None:
        from repro.obs import write_perfetto
        write_perfetto(trace_path, report.tracer, name=spec.trial_id)
    if timeline_path is not None and report.timeline is not None:
        doc = {"trial_id": spec.trial_id,
               "timeline": report.timeline.to_json()}
        if report.slo is not None:
            doc["slo"] = report.slo.to_json()
        timeline_path.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return TrialResult(spec=spec, metrics=metrics,
                       wall_time_s=time.perf_counter() - start)


def _run_trial_payload(
        payload: Tuple[dict, Optional[str], Optional[str]]) -> dict:
    """Worker-process entry point (module-level so it pickles)."""
    spec_dict, trace_path, timeline_path = payload
    return run_trial(
        TrialSpec.from_dict(spec_dict),
        trace_path=Path(trace_path) if trace_path else None,
        timeline_path=Path(timeline_path) if timeline_path else None,
    ).to_dict()


def _warm_sample_cache(specs: Sequence[TrialSpec]) -> None:
    """Quantize each mode's sample tensors once, up front.

    Building a VQ mode's cost model trains codebooks on sample tensors
    (:mod:`repro.bench.workloads`), which costs ~10 s per algorithm and
    is cached in-process.  Warming the cache in the parent before the
    pool forks makes every worker inherit it, so trials pay only their
    own simulation time; on spawn-based platforms workers re-quantize
    (correct, just slower).  Quantization is seed-deterministic, so
    where the cache is filled cannot change any metric.
    """
    from repro.bench.serving import mode_cost_kwargs
    for mode in sorted({spec.mode for spec in specs}):
        mode_cost_kwargs(mode)


def _trial_trace_path(trace_dir: Optional[Path],
                      spec: TrialSpec) -> Optional[Path]:
    """Per-trial Perfetto path under ``trace_dir`` (``/`` flattened)."""
    if trace_dir is None:
        return None
    return trace_dir / f"{spec.trial_id.replace('/', '__')}.perfetto.json"


def _trial_timeline_path(timeline_dir: Optional[Path],
                         spec: TrialSpec) -> Optional[Path]:
    """Per-trial timeline-series path under ``timeline_dir``."""
    if timeline_dir is None:
        return None
    return (timeline_dir
            / f"{spec.trial_id.replace('/', '__')}.timeline.json")


def run_sweep(
    config: SweepConfig,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    trace_dir: Optional[Path] = None,
    timeline_dir: Optional[Path] = None,
) -> "Trajectory":
    """Run every trial of a sweep; returns the unsaved trajectory.

    ``workers > 1`` fans trials out over that many worker processes;
    each trial derives its trace from :attr:`TrialSpec.trial_seed`,
    and results are collected in grid order, so the persisted
    trajectory is identical for any worker count.  ``trace_dir``
    records one Perfetto timeline per trial under that directory;
    ``timeline_dir`` records one windowed time-series document per
    trial (both observation-only: the trajectory metrics do not move).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    specs = config.trials()
    _warm_sample_cache(specs)
    results: List[TrialResult] = []
    if workers == 1:
        for i, spec in enumerate(specs):
            result = run_trial(
                spec, trace_path=_trial_trace_path(trace_dir, spec),
                timeline_path=_trial_timeline_path(timeline_dir, spec))
            results.append(result)
            if progress:
                progress(f"[{i + 1}/{len(specs)}] {result.trial_id}: "
                         f"{result.wall_time_s:.2f} s")
    else:
        payloads = []
        for spec in specs:
            path = _trial_trace_path(trace_dir, spec)
            tl_path = _trial_timeline_path(timeline_dir, spec)
            payloads.append((spec.to_dict(),
                             str(path) if path is not None else None,
                             str(tl_path) if tl_path is not None else None))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() preserves submission order, which is grid order.
            for i, data in enumerate(pool.map(_run_trial_payload, payloads)):
                result = TrialResult.from_dict(data)
                results.append(result)
                if progress:
                    progress(f"[{i + 1}/{len(specs)}] {result.trial_id}: "
                             f"{result.wall_time_s:.2f} s")
    return Trajectory(pr=PR_NUMBER, name=config.name,
                      config=config.to_dict(), trials=results,
                      git_sha=git_sha())


# ----------------------------------------------------------------------
# Results store: the BENCH_<pr>.json perf trajectory
# ----------------------------------------------------------------------
def git_sha(root: Optional[Path] = None) -> Optional[str]:
    """The checkout's commit SHA, or ``None`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root or Path(__file__).resolve().parents[3],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass
class Trajectory:
    """The persisted result set of one orchestrated sweep.

    ``extra`` carries any top-level fields this schema version does
    not know about, so a trajectory written by a newer minor revision
    survives a load/save round trip losslessly.
    """

    pr: int
    name: str
    config: dict
    trials: List[TrialResult]
    git_sha: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    extra: Dict[str, Any] = field(default_factory=dict)

    _KNOWN_FIELDS = ("schema_version", "pr", "name", "git_sha", "config",
                     "trials")

    @property
    def total_wall_time_s(self) -> float:
        return sum(t.wall_time_s for t in self.trials)

    def metrics_by_trial(self) -> Dict[str, Dict[str, float]]:
        """``trial_id -> metrics``, the join key for regression deltas."""
        return {t.trial_id: t.metrics for t in self.trials}

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "pr": self.pr,
            "name": self.name,
            "git_sha": self.git_sha,
            "config": self.config,
            "trials": [t.to_dict() for t in self.trials],
        }
        for key, value in self.extra.items():
            out.setdefault(key, value)
        return out

    def save(self, path) -> Path:
        """Write the trajectory as stable, diff-friendly JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def from_dict(cls, data: dict, source: str = "trajectory") -> "Trajectory":
        if not isinstance(data, dict):
            raise TrajectoryError(f"{source}: top level must be an object, "
                                  f"got {type(data).__name__}")
        version = data.get("schema_version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise TrajectoryError(
                f"{source}: missing or non-integer 'schema_version'")
        if version > SCHEMA_VERSION:
            raise TrajectoryError(
                f"{source}: schema_version {version} is newer than this "
                f"reader ({SCHEMA_VERSION}); upgrade before comparing")
        for key in ("pr", "name", "trials"):
            if key not in data:
                raise TrajectoryError(f"{source}: missing {key!r}")
        if not isinstance(data["pr"], int) or isinstance(data["pr"], bool):
            raise TrajectoryError(f"{source}: 'pr' must be an integer")
        if not isinstance(data["trials"], list):
            raise TrajectoryError(f"{source}: 'trials' must be a list, got "
                                  f"{type(data['trials']).__name__}")
        config = data.get("config", {})
        if not isinstance(config, dict):
            raise TrajectoryError(f"{source}: 'config' must be an object")
        trials = []
        for i, entry in enumerate(data["trials"]):
            try:
                trials.append(TrialResult.from_dict(entry))
            except TrajectoryError as exc:
                raise TrajectoryError(
                    f"{source}: trial #{i} is malformed: {exc}") from None
        ids = [t.trial_id for t in trials]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise TrajectoryError(f"{source}: duplicate trial ids {dupes}")
        extra = {k: v for k, v in data.items() if k not in cls._KNOWN_FIELDS}
        return cls(pr=data["pr"], name=str(data["name"]), config=config,
                   trials=trials, git_sha=data.get("git_sha"),
                   schema_version=version, extra=extra)

    @classmethod
    def load(cls, path) -> "Trajectory":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise TrajectoryError(
                f"cannot read trajectory {path}: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TrajectoryError(
                f"trajectory {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data, source=str(path))


def bench_path(root, pr: int = PR_NUMBER) -> Path:
    """``<root>/BENCH_<pr>.json`` — the trajectory file convention."""
    return Path(root) / f"BENCH_{pr}.json"


def find_previous(root, pr: int = PR_NUMBER,
                  exclude: Optional[Path] = None) -> Optional[Path]:
    """The newest ``BENCH_<n>.json`` under ``root`` with ``n < pr``.

    This is what the regression report compares against; ``None`` when
    this PR starts the trajectory.  ``exclude`` skips one path — the
    trajectory just written, which must never be its own baseline
    (possible when ``--out`` carries a lower ``BENCH_<n>`` number).
    """
    skip = Path(exclude).resolve() if exclude is not None else None
    best: Optional[Tuple[int, Path]] = None
    for path in Path(root).glob("BENCH_*.json"):
        stem = path.stem[len("BENCH_"):]
        if not stem.isdigit():
            continue
        if skip is not None and path.resolve() == skip:
            continue
        n = int(stem)
        if n < pr and (best is None or n > best[0]):
            best = (n, path)
    return best[1] if best else None


# ----------------------------------------------------------------------
# Regression comparison and markdown report
# ----------------------------------------------------------------------
#: Metrics where a larger value is an improvement.
HIGHER_BETTER = frozenset({
    "throughput_rps", "output_tokens_per_s", "goodput_rps",
    "slo_attainment", "prefix_hit_rate", "cached_token_fraction",
})

#: Metrics where a smaller value is an improvement.
LOWER_BETTER = frozenset({
    "ttft_p50_ms", "ttft_p95_ms", "tpot_p50_ms", "latency_p50_s",
    "latency_p99_s", "n_rejected",
})

#: Headline columns of the per-trial summary table, in order.
_SUMMARY_METRICS = ("throughput_rps", "ttft_p50_ms", "tpot_p50_ms",
                    "peak_kv_occupancy", "n_preempted", "prefix_hit_rate")


@dataclass(frozen=True)
class Delta:
    """One metric's change between two trajectories' matching trials."""

    trial_id: str
    metric: str
    before: float
    after: float

    @property
    def rel_change(self) -> float:
        """Signed relative change; ``inf`` when appearing from zero."""
        if self.before == self.after:
            return 0.0
        if self.before == 0:
            return float("inf") if self.after > 0 else float("-inf")
        return (self.after - self.before) / abs(self.before)

    def is_regression(self, tolerance: float) -> bool:
        """Whether this delta worsens a directional metric beyond tol."""
        if self.metric in HIGHER_BETTER:
            return self.rel_change < -tolerance
        if self.metric in LOWER_BETTER:
            return self.rel_change > tolerance
        return False

    def is_improvement(self, tolerance: float) -> bool:
        if self.metric in HIGHER_BETTER:
            return self.rel_change > tolerance
        if self.metric in LOWER_BETTER:
            return self.rel_change < -tolerance
        return False


def compare(current: Trajectory, previous: Trajectory) -> List[Delta]:
    """Per-metric deltas over the trials both trajectories ran.

    Only *directional* metrics (``HIGHER_BETTER`` / ``LOWER_BETTER``)
    produce deltas — informational counters like ``peak_seqs`` change
    legitimately with any behavioural PR and would only add noise.
    Trials present on one side only are skipped; the report names them.
    """
    prev = previous.metrics_by_trial()
    deltas: List[Delta] = []
    for trial in current.trials:
        before = prev.get(trial.trial_id)
        if before is None:
            continue
        for metric in sorted(trial.metrics):
            if metric not in HIGHER_BETTER and metric not in LOWER_BETTER:
                continue
            if metric not in before:
                continue
            deltas.append(Delta(trial.trial_id, metric,
                                float(before[metric]),
                                float(trial.metrics[metric])))
    return deltas


def _fmt_num(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}"
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.3f}"


def render_report(
    current: Trajectory,
    previous: Optional[Trajectory] = None,
    tolerance: float = 0.05,
) -> str:
    """Markdown report: per-trial summary plus deltas vs ``previous``.

    Regressions (a directional metric worse by more than ``tolerance``
    relative) are flagged with ``**REGRESSION**``; CI greps the word,
    and :func:`main` exits non-zero under ``--check`` when any is
    present.
    """
    lines = [
        f"# Perf trajectory — PR {current.pr} ({current.name})",
        "",
        f"- trials: {len(current.trials)}",
        f"- git SHA: `{current.git_sha or 'unknown'}`",
        f"- total simulated-trial wall time: "
        f"{current.total_wall_time_s:.1f} s",
        "",
        "## Trials",
        "",
    ]
    cols = [m for m in _SUMMARY_METRICS
            if any(m in t.metrics for t in current.trials)]
    lines.append("| trial | " + " | ".join(cols) + " |")
    lines.append("|---" * (len(cols) + 1) + "|")
    for trial in current.trials:
        cells = [_fmt_num(trial.metrics[m]) if m in trial.metrics else "-"
                 for m in cols]
        lines.append(f"| `{trial.trial_id}` | " + " | ".join(cells) + " |")
    lines.append("")

    lines.append(f"## Regression check (tolerance {tolerance:.0%})")
    lines.append("")
    if previous is None:
        lines.append("No previous `BENCH_<n>.json` trajectory found — "
                     "this file starts the perf-trajectory convention; "
                     "the next PR should compare against it.")
        lines.append("")
        return "\n".join(lines)

    lines.append(f"Compared against PR {previous.pr} "
                 f"(`{previous.git_sha or 'unknown'}`, "
                 f"{len(previous.trials)} trials).")
    lines.append("")
    deltas = compare(current, previous)
    prev_ids = set(previous.metrics_by_trial())
    cur_ids = {t.trial_id for t in current.trials}
    for label, missing in (("only in current", sorted(cur_ids - prev_ids)),
                           ("only in previous", sorted(prev_ids - cur_ids))):
        if missing:
            lines.append(f"- trials {label} (not compared): "
                         + ", ".join(f"`{m}`" for m in missing))
    if not deltas:
        lines.append("No overlapping trials to compare.")
        lines.append("")
        return "\n".join(lines)

    regressions = [d for d in deltas if d.is_regression(tolerance)]
    improvements = [d for d in deltas if d.is_improvement(tolerance)]
    lines.append(f"- directional metric deltas: {len(deltas)} "
                 f"({len(improvements)} improved, "
                 f"{len(regressions)} regressed beyond tolerance)")
    lines.append("")
    for title, flagged, tag in (
            ("### Regressions", regressions, " **REGRESSION**"),
            ("### Improvements", improvements, "")):
        if not flagged:
            continue
        lines.append(title)
        lines.append("")
        lines.append("| trial | metric | before | after | change |")
        lines.append("|---|---|---|---|---|")
        for d in sorted(flagged,
                        key=lambda d: -abs(d.rel_change
                                           if d.rel_change not in
                                           (float("inf"), float("-inf"))
                                           else 1e9)):
            lines.append(
                f"| `{d.trial_id}` | {d.metric} | {_fmt_num(d.before)} | "
                f"{_fmt_num(d.after)} | {d.rel_change:+.1%}{tag} |")
        lines.append("")
    if not regressions:
        lines.append("No regressions beyond tolerance.")
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Presets and CLI
# ----------------------------------------------------------------------
def demo_config() -> SweepConfig:
    """The committed trajectory grid (``BENCH_6.json`` onward).

    Nine serving trials on a sessionized chat trace at a deliberately
    tight 1 GB KV budget: three KV schemes crossed with (reserve,
    paged, paged+prefix) — pressure enough that admission policy and
    prefix caching visibly move the metrics, yet small enough that the
    whole grid runs in well under a minute.
    """
    return SweepConfig(
        name="bench6-serving",
        kind="serving",
        modes=("fp16", "kv-cq-4", "kv-cq-2"),
        admissions=("reserve", "paged"),
        prefix_caching=(False, True),
        trace_kinds=("chat",),
        rates=(12.0,),
        n_requests=48,
        prompt_mean=160,
        output_mean=48,
        kv_hbm_gb=1.0,
        max_seqs=48,
        seed=0,
    )


def mini_config() -> SweepConfig:
    """A 2x2 (scheme x admission) grid for smoke tests: 4 fast trials."""
    return SweepConfig(
        name="mini",
        kind="serving",
        modes=("fp16", "kv-cq-4"),
        admissions=("reserve", "paged"),
        trace_kinds=("poisson",),
        rates=(16.0,),
        n_requests=24,
        prompt_mean=128,
        output_mean=32,
        seed=0,
    )


PRESETS: Dict[str, Callable[[], SweepConfig]] = {
    "demo": demo_config,
    "mini": mini_config,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.bench.orchestrator``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.orchestrator",
        description="Run a declarative sweep grid over the serving/fleet "
                    "experiments, persist the BENCH_<pr>.json perf "
                    "trajectory and render its regression report.")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", type=Path, default=None,
                        help="sweep config JSON file (see SweepConfig)")
    source.add_argument("--preset", default="demo",
                        choices=sorted(PRESETS),
                        help="built-in sweep grid (default: demo, the "
                             "committed trajectory grid)")
    parser.add_argument("--out", type=Path, default=None,
                        help=f"trajectory output path (default: "
                             f"BENCH_{PR_NUMBER}.json in the repo root)")
    parser.add_argument("--report", type=Path, default=None,
                        help="markdown report path (default: --out with "
                             "a .md suffix)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="trajectory to diff against (default: the "
                             "newest BENCH_<n>.json with n < pr next to "
                             "--out)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for trial execution")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="record one Perfetto timeline per trial "
                             "into this directory (created if missing); "
                             "observation-only, metrics do not move")
    parser.add_argument("--timeline-dir", type=Path, default=None,
                        help="record one windowed time-series document "
                             "(Timeline.to_json, plus the SLO report when "
                             "the sweep sets slo_ttft_s) per trial into "
                             "this directory (created if missing); "
                             "observation-only, metrics do not move")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative regression tolerance (default 5%%)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any regression beyond tolerance "
                             "is flagged")
    args = parser.parse_args(argv)

    config = (SweepConfig.from_json_file(args.config)
              if args.config else PRESETS[args.preset]())
    out = args.out or bench_path(Path(__file__).resolve().parents[3])
    report_path = args.report or out.with_suffix(".md")

    print(f"sweep {config.name!r}: {len(config.trials())} trials, "
          f"{args.workers} worker(s)")
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        print(f"traces     -> {args.trace_dir}/<trial_id>.perfetto.json")
    if args.timeline_dir is not None:
        args.timeline_dir.mkdir(parents=True, exist_ok=True)
        print(f"timelines  -> {args.timeline_dir}/"
              f"<trial_id>.timeline.json")
    trajectory = run_sweep(config, workers=args.workers, progress=print,
                           trace_dir=args.trace_dir,
                           timeline_dir=args.timeline_dir)
    trajectory.save(out)
    print(f"trajectory -> {out}")

    previous = None
    baseline = args.baseline or find_previous(out.parent, trajectory.pr,
                                              exclude=out)
    if baseline is not None:
        previous = Trajectory.load(baseline)
        print(f"baseline   <- {baseline} (PR {previous.pr})")
    report = render_report(trajectory, previous, tolerance=args.tolerance)
    report_path.write_text(report + "\n")
    print(f"report     -> {report_path}")

    if previous is not None:
        regressions = [d for d in compare(trajectory, previous)
                       if d.is_regression(args.tolerance)]
        for d in regressions:
            print(f"REGRESSION {d.trial_id} {d.metric}: "
                  f"{d.before:.6g} -> {d.after:.6g} ({d.rel_change:+.1%})")
        if regressions and args.check:
            return 1
        if not regressions:
            print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
