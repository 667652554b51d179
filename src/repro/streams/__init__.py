"""Streaming workload subsystem: continuous frame traffic with online analytics.

Everything the repo did before this package was single-shot — one
:class:`~repro.api.spec.RunSpec`, one campaign, one report.  The paper's
safety case, however, is about *continuous* operation: camera/lidar
frames arriving every N milliseconds, each offloaded redundantly, with
errors detected and handled inside the FTTI.  :mod:`repro.streams` turns
the per-offload machinery into a sustained-traffic simulator:

* :mod:`repro.streams.arrivals` — deterministic open-loop arrival
  processes (periodic / jittered / Poisson), indexed per-frame PRNG
  substreams;
* :mod:`repro.streams.jobs` — resolves a stream's distinct frame jobs
  (kernel DAGs from :mod:`repro.workloads`) into simulated redundant
  service profiles, optionally on a process pool;
* :mod:`repro.streams.analytics` — online, O(1)-memory statistics: the
  P² streaming quantile estimator, Welford mean/variance, tumbling
  throughput/utilisation windows;
* :mod:`repro.streams.runner` — the virtual-time stream engine: bounded
  FIFO queueing with drop-on-full backpressure, per-frame deadline
  accounting, per-frame fault overlay (detected errors re-execute and
  surface as latency; silent corruptions are counted);
* :mod:`repro.streams.report` — the canonical :class:`StreamReport`
  (``to_dict()`` / ``digest()`` / ``from_dict()``), bit-identical for a
  given :class:`~repro.api.stream.StreamSpec` + seed at any
  worker/chunk configuration.

Quickstart::

    from repro.api import RunSpec, StreamSpec, WorkloadSpec
    from repro.streams import run_stream

    spec = StreamSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        frames=10_000,
    )
    report = run_stream(spec)
    assert report.frames == 10_000 and report.deadline_misses == 0
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.streams.arrivals": (
        "frame_substream", "iter_arrivals", "substream_factory",
    ),
    "repro.streams.analytics": (
        "P2Quantile", "StreamAccumulator", "WindowedRates",
    ),
    "repro.streams.jobs": ("JobProfile", "resolve_jobs"),
    "repro.streams.report": ("STREAM_RATE_METRICS", "StreamReport"),
    "repro.streams.runner": ("run_stream",),
})
