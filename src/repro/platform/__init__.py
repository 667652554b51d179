"""Vehicle-platform subsystem: many devices, one safety verdict.

Every subsystem below this one models a single GPU —
:mod:`repro.streams` is explicitly a single-server queue.  The paper's
setting, however, is a *vehicle platform*: a heterogeneous fleet of COTS
GPUs running the whole ADAS task set concurrently, each task redundantly
and on time.  :mod:`repro.platform` closes that gap:

* :mod:`repro.platform.placement` — pure, deterministic placement
  policies (``first_fit`` / ``worst_fit`` / ``pinned`` / ``balanced``)
  binding each task stream to a device by simulated utilisation demand,
  with a typed admission verdict (:class:`~repro.errors.PlatformError`
  names any unplaceable task);
* :mod:`repro.platform.runner` — executes the per-device streams
  (reusing :func:`repro.streams.runner.run_stream`, optionally on a
  process pool with one pool task per device) with each device's COTS
  protocol overhead folded into service times;
* :mod:`repro.platform.report` — the canonical
  :class:`PlatformReport`: per-device utilisation, global
  deadline/FTTI accounting and the ISO 26262 rollup (worst per-task
  ASIL verdict), bit-identical (``digest()``) for any worker count and
  any task-declaration order.

Quickstart::

    from repro.api import DeviceSpec, PlatformSpec, StreamSpec
    from repro.platform import run_platform

    spec = PlatformSpec(
        devices=(DeviceSpec(name="gpu0"),
                 DeviceSpec(name="gpu1", preset="pcie4-discrete")),
        tasks=(StreamSpec.for_task("camera-perception", frames=2000),
               StreamSpec.for_task("radar-cfar", frames=2000)),
    )
    report = run_platform(spec, workers=2)
    assert report.all_ok and report.asil["worst_asil"] == "D"
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.platform.placement": (
        "PlatformPlan", "TaskDemand", "bind_task", "plan_placement",
        "task_demand",
    ),
    "repro.platform.report": ("PlatformReport", "task_asil", "task_verdict"),
    "repro.platform.runner": ("run_platform",),
})
