"""Statistical estimation layer: intervals, estimators, repeaters, compare.

Campaign and stream metrics are Monte-Carlo estimates of rare-event
rates (the paper's quantity of interest is the silent-data-corruption
rate under redundant execution), so every point estimate needs an error
bar and every sampling shortcut needs an unbiasedness argument.  This
package provides both, as pure functions of the *aggregated integer
counts* the runners already fold — never of per-injection records:

* :mod:`repro.stats.intervals` — Wilson, normal and bootstrap confidence
  intervals on rates (:class:`RateEstimate`), the Welch interval on a
  difference of means, plus the exact binomial / multinomial resamplers
  the bootstrap is built on;
* :mod:`repro.stats.estimators` — uniform, stratified and importance
  (Horvitz–Thompson) rate estimators over per-stratum outcome counts,
  with matching variance formulas and bootstrap resampling;
* :mod:`repro.stats.repeater` — repeat-until-confidence bookkeeping:
  target evaluation and the :class:`RepeatResult` returned by
  :func:`repro.campaigns.runner.repeat_campaign`;
* :mod:`repro.stats.compare` — two-proportion and bootstrap significance
  tests between two campaign/stream/platform/BENCH artifacts (the ``repro
  compare`` CLI and the CI perf gate sit on top of this).

Everything here is deterministic: bootstrap draws come from explicit
:class:`random.Random` instances seeded by the caller, and all estimates
are pure functions of integer counts, so they can never perturb the
digest bit-identity contracts of the reports they annotate (see
``docs/STATISTICS.md``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stats.compare": (
        "COMPARE_SCHEMA", "RateComparison", "compare_artifacts",
        "compare_rates", "two_proportion_test",
    ),
    "repro.stats.estimators": ("ImportanceRate", "StratifiedRate", "UniformRate"),
    "repro.stats.intervals": (
        "RateEstimate", "binomial_draw", "bootstrap_interval",
        "multinomial_draw", "normal_interval", "welch_interval",
        "wilson_interval",
    ),
    "repro.stats.repeater": ("RepeatResult", "target_met"),
})
