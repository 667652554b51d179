"""Sampling and repeat-until-confidence specifications.

Two small frozen specs extend :class:`~repro.api.campaign.CampaignSpec`
(and the stream soak repeater) with the statistical machinery of
:mod:`repro.stats`:

* :class:`SamplingSpec` — how the campaign draws its fault population:
  ``stratified`` (fixed per-kind sample shares via a deterministic block
  layout) or ``importance`` (per-index kind draw from a proposal
  distribution, estimates reweighted Horvitz–Thompson style).  The
  nominal fault mix — the population the estimate is *about* — stays in
  :class:`~repro.api.spec.FaultPlanSpec`; this spec only reallocates
  where the injection budget is spent.
* :class:`RepeatSpec` — when to stop: a confidence-interval half-width
  target on one metric, a batch size (the checkpoint granularity) and a
  hard budget cap.

Both are plain frozen dataclasses: hashable, picklable and
JSON-round-trippable, like every spec in :mod:`repro.api`.
"""

from dataclasses import dataclass
from typing import Optional

from repro.api.spec import Codec
from repro.errors import ConfigurationError

__all__ = ["SamplingSpec", "RepeatSpec"]

#: Sampling methods a :class:`SamplingSpec` can name.
SAMPLING_METHODS = ("stratified", "importance")

#: Interval methods a :class:`RepeatSpec` can name.
INTERVAL_METHODS = ("auto", "wilson", "normal", "bootstrap")


@dataclass(frozen=True)
class SamplingSpec(Codec):
    """Fault-space sampling design (the v2, prefix-stable layouts).

    The three integer fields are *relative allocation weights* over the
    fault kinds, mirroring :class:`~repro.api.spec.FaultPlanSpec`'s
    field names: ``transient_ccf=1, permanent_sm=8, seu=1`` spends 80%
    of the injection budget on permanent SM faults regardless of their
    (tiny) nominal population share.  Estimates are reweighted back to
    the nominal mix, so oversampling a rare stratum changes variance,
    never the expected value.

    Attributes:
        method: ``"stratified"`` or ``"importance"``.
        transient_ccf: allocation weight of transient CCFs.
        permanent_sm: allocation weight of permanent SM defects.
        seu: allocation weight of SEUs.
    """

    method: str
    transient_ccf: int = 1
    permanent_sm: int = 1
    seu: int = 1

    def __post_init__(self) -> None:
        if self.method not in SAMPLING_METHODS:
            raise ConfigurationError(
                f"unknown sampling method {self.method!r}; "
                f"known: {', '.join(SAMPLING_METHODS)}"
            )
        for name in ("transient_ccf", "permanent_sm", "seu"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"sampling allocation {name} must be an integer, "
                    f"got {value!r}"
                )
            if value < 0:
                raise ConfigurationError(
                    f"sampling allocation {name} cannot be negative"
                )
        if self.transient_ccf + self.permanent_sm + self.seu == 0:
            raise ConfigurationError(
                "at least one sampling allocation weight must be positive"
            )


@dataclass(frozen=True)
class RepeatSpec(Codec):
    """Repeat-until-confidence stopping rule.

    Attributes:
        metric: the targeted rate — for campaigns one of ``"masked"``,
            ``"detected"``, ``"sdc"``; for streams one of
            ``"deadline_miss"``, ``"drop"``, ``"unsafe"``,
            ``"fault_sdc"`` (the runners validate their own vocabulary).
        confidence: two-sided confidence level of the interval tested.
        relative_half_width: stop once ``half_width / rate`` drops to
            this (mutually exclusive with ``half_width``).
        half_width: stop once the absolute half-width drops to this.
        batch: injections (or frames) added per evaluation point — the
            campaign repeater's shard size, i.e. its checkpoint/resume
            granularity.
        max_total: hard budget cap on total injections (or frames).
        interval: interval construction (``auto``/``wilson``/``normal``/
            ``bootstrap``); ``auto`` picks Wilson for uniform sampling
            and normal for weighted estimators.
    """

    metric: str = "sdc"
    confidence: float = 0.95
    relative_half_width: Optional[float] = None
    half_width: Optional[float] = None
    batch: int = 1000
    max_total: int = 100_000
    interval: str = "auto"

    def __post_init__(self) -> None:
        if not self.metric:
            raise ConfigurationError("repeat metric must be non-empty")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if (self.relative_half_width is None) == (self.half_width is None):
            raise ConfigurationError(
                "set exactly one of relative_half_width / half_width"
            )
        target = (self.relative_half_width
                  if self.relative_half_width is not None else self.half_width)
        if target <= 0.0:
            raise ConfigurationError(
                f"the CI half-width target must be positive, got {target}"
            )
        if self.batch < 1:
            raise ConfigurationError("repeat batch must be >= 1")
        if self.max_total < self.batch:
            raise ConfigurationError(
                f"max_total ({self.max_total}) must be >= batch "
                f"({self.batch})"
            )
        if self.interval not in INTERVAL_METHODS:
            raise ConfigurationError(
                f"unknown interval method {self.interval!r}; "
                f"known: {', '.join(INTERVAL_METHODS)}"
            )
