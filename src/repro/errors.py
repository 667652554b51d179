"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Subclasses are deliberately fine-grained: the
simulator, the scheduler framework, the redundancy manager and the safety
model each have their own error type, which makes test assertions precise
and error messages actionable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or out-of-range parameters.

    Examples: a GPU with zero SMs, a kernel whose thread block exceeds the
    per-SM thread limit, a HALF partition that does not cover all SMs.
    """


class SchedulingError(ReproError):
    """A kernel scheduler produced an invalid decision.

    Raised, for instance, when a scheduler places a thread block on an SM
    outside its allowed mask, or admits a kernel that violates its own
    serialization rules.  These indicate bugs in scheduler implementations
    (or deliberately injected scheduler faults escaping their sandbox).
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state.

    Examples: time moving backwards, a thread block completing twice, or a
    deadlock in which undispatched work exists but no progress is possible.
    """


class CapacityError(ReproError):
    """A kernel can never fit on the configured GPU.

    Raised when a single thread block requires more threads, registers or
    shared memory than one SM provides, so no scheduler could ever place it.
    """


class RedundancyError(ReproError):
    """The redundant-execution protocol was violated.

    Examples: comparing outputs of kernels with different grids, requesting
    a redundancy degree below two, or collecting results before all copies
    completed.
    """


class SafetyViolation(ReproError):
    """An ISO 26262 requirement check failed.

    Raised by the safety model when, e.g., an ASIL decomposition is invalid,
    a diagnostic-coverage target is not met, or a fault was not handled
    within the fault-tolerant time interval (FTTI).
    """


class FaultInjectionError(ReproError):
    """A fault-injection campaign was configured inconsistently.

    Examples: injecting into a trace that does not contain the target SM,
    or classifying outcomes before the campaign ran.
    """


class CampaignError(ReproError):
    """Sharded campaign orchestration failed or was asked the impossible.

    Examples: resuming a store created by a different :class:`CampaignSpec`,
    a corrupt shard artifact whose digest does not match its payload, or
    requesting an aggregate report before every shard has completed.
    """


class StreamError(ReproError):
    """Stream execution or its online analytics were asked the impossible.

    Examples: a stream whose workload resolves to no kernels (no frame job
    to execute), reading a latency quantile before any frame completed, or
    feeding the windowed-rate fold completions that go backwards in time.
    """


class PlatformError(ReproError):
    """A vehicle-platform simulation was configured or placed impossibly.

    Examples: a placement policy that cannot fit a task stream on any
    device without exceeding its utilisation capacity (the message names
    the unplaceable task), a ``pinned`` placement whose pins do not cover
    every task, or a pin naming a device the platform does not have.
    """


class LintError(ReproError):
    """The determinism linter (:mod:`repro.lint`) was misused.

    Examples: an unknown rule ID passed to ``--rule``, a lint target
    that does not exist, or a ``repro-lint.toml`` line outside the
    accepted TOML subset.  Contract *violations* are not errors — they
    are the linter's report — so this type only covers misconfiguration
    of the linter itself.
    """


class ObsError(ReproError):
    """The observability layer (:mod:`repro.obs`) was misused or fed garbage.

    Examples: a telemetry line that is not a JSON object, an event of an
    unknown type, a sequence number that goes backwards inside one
    session, or a non-positive heartbeat interval.  Telemetry problems
    never surface as any other error type: the instrumented runners only
    ever *emit*, so a broken telemetry file can only be detected by the
    reader (``repro obs validate`` / ``repro obs report``).
    """


class StatsError(ReproError):
    """A statistical estimator or comparison was asked the impossible.

    Examples: a confidence level outside ``(0, 1)``, a Wilson interval on
    zero trials, a stratified estimator whose population weights name a
    stratum with no samples, or comparing two artifacts of different
    kinds (a campaign against a stream report).
    """


class RepeatBudgetError(StatsError):
    """A repeat-until-confidence run exhausted its budget unconverged.

    Raised by :meth:`repro.stats.repeater.RepeatResult.check` when the
    injection (or frame) budget cap was reached before the target CI
    half-width on the chosen metric was met.  The repeat result — and the
    partial aggregate report inside it — remain available on the
    exception's originating :class:`~repro.stats.repeater.RepeatResult`.
    """


class PoolError(ReproError):
    """A process-pool worker died before returning its task's result.

    Raised by :func:`repro.exec.map_tasks` in place of ``BrokenProcessPool``
    (e.g. a worker killed by the OOM killer); the message names the task.
    """


class WorkerCountError(ConfigurationError, StreamError, ValueError):
    """A parallel executor was handed a non-positive worker count.

    Raised eagerly — before any process pool is created — by
    :meth:`repro.api.engine.Engine.run_many`,
    :func:`repro.streams.jobs.resolve_jobs` and
    :func:`repro.platform.runner.run_platform`.  Subclasses both the
    legacy per-subsystem types (:class:`ConfigurationError`,
    :class:`StreamError`) and :class:`ValueError`, so existing handlers
    keep working while plain ``except ValueError`` callers see the bad
    argument for what it is.
    """
