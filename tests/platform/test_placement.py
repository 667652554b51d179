"""Tests for the deterministic placement policies (repro.platform.placement)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import RunSpec, StreamSpec, WorkloadSpec
from repro.api.platform import DeviceSpec, PlacementSpec, PlatformSpec
from repro.errors import PlatformError
from repro.platform.placement import bind_task, plan_placement, task_demand


def _task(name: str, **overrides) -> StreamSpec:
    return StreamSpec.for_task(name, frames=100, **overrides)


_TASKS = tuple(_task(name) for name in (
    "camera-perception", "radar-cfar", "lidar-segmentation",
    "trajectory-scoring",
))


def _platform(n_devices: int = 2, policy: str = "balanced",
              **kwargs) -> PlatformSpec:
    defaults = dict(
        devices=tuple(DeviceSpec(name=f"gpu{i}") for i in range(n_devices)),
        tasks=_TASKS,
        placement=PlacementSpec(policy=policy),
    )
    defaults.update(kwargs)
    return PlatformSpec(**defaults)


class TestTaskDemand:
    def test_demand_is_positive_and_period_scaled(self):
        demand = task_demand(_task("radar-cfar"), DeviceSpec(name="gpu0"))
        assert demand.service_ms > 0
        assert demand.protocol_ms > 0
        assert demand.utilisation == pytest.approx(
            (demand.service_ms + demand.protocol_ms) / 50.0
        )

    def test_slower_device_has_higher_demand(self):
        task = _task("camera-perception")
        slow = task_demand(task, DeviceSpec(name="s", preset="embedded-igpu"))
        fast = task_demand(task, DeviceSpec(name="f", preset="pcie4-discrete"))
        assert slow.utilisation > fast.utilisation

    def test_seed_independent(self):
        device = DeviceSpec(name="gpu0")
        a = task_demand(_task("radar-cfar"), device)
        b = task_demand(_task("radar-cfar", seed=99), device)
        assert a == b

    def test_bind_task_swaps_the_gpu(self):
        bound = bind_task(_task("radar-cfar"),
                          DeviceSpec(name="d", preset="embedded-igpu"))
        assert bound.run.gpu.to_config().name == "embedded-igpu"


class TestPolicies:
    def test_first_fit_packs_onto_first_device(self):
        plan = plan_placement(_platform(3, policy="first_fit"))
        assert {device for _, device in plan.assignments} == {"gpu0"}

    def test_worst_fit_spreads_across_devices(self):
        plan = plan_placement(_platform(4, policy="worst_fit"))
        assert {device for _, device in plan.assignments} == {
            "gpu0", "gpu1", "gpu2", "gpu3"
        }

    def test_balanced_places_hungriest_first(self):
        plan = plan_placement(_platform(2, policy="balanced"))
        utils = plan.device_utilisation
        # both devices used and the spread is modest
        assert all(u > 0 for u in utils.values())
        total = sum(d.utilisation for d in plan.demands.values())
        assert max(utils.values()) < total

    def test_pinned_honours_pins(self):
        pins = tuple((t.label, "gpu1") for t in _TASKS)
        plan = plan_placement(_platform(2, policy="pinned",
                                        placement=PlacementSpec(
                                            policy="pinned", pins=pins)))
        assert {device for _, device in plan.assignments} == {"gpu1"}

    def test_pinned_requires_full_cover(self):
        placement = PlacementSpec(policy="pinned",
                                  pins=(("radar-cfar", "gpu0"),))
        with pytest.raises(PlatformError, match="unpinned"):
            plan_placement(_platform(2, placement=placement))

    def test_pins_constrain_other_policies(self):
        placement = PlacementSpec(policy="worst_fit",
                                  pins=(("camera-perception", "gpu1"),))
        plan = plan_placement(_platform(2, placement=placement))
        assert dict(plan.assignments)["camera-perception"] == "gpu1"

    @pytest.mark.parametrize("policy", ["first_fit", "worst_fit",
                                        "balanced"])
    def test_every_task_placed_once_with_its_demand(self, policy):
        plan = plan_placement(_platform(3, policy=policy))
        assert [label for label, _ in plan.assignments] == sorted(
            t.label for t in _TASKS)
        assert sum(plan.device_utilisation.values()) == pytest.approx(
            sum(d.utilisation for d in plan.demands.values()))

    def test_first_fit_peaks_above_worst_fit(self):
        peaks = {
            policy: max(plan_placement(_platform(
                3, policy=policy)).device_utilisation.values())
            for policy in ("first_fit", "worst_fit")
        }
        assert peaks["first_fit"] > peaks["worst_fit"] > 0

    def test_plan_is_deterministic_and_order_independent(self):
        a = plan_placement(_platform(3))
        b = plan_placement(_platform(3, tasks=tuple(reversed(_TASKS))))
        assert a == b


class TestAdmission:
    def test_infeasible_names_the_task(self):
        tiny = (DeviceSpec(name="tiny", capacity=1e-6),)
        with pytest.raises(PlatformError, match="camera-perception"):
            plan_placement(_platform(devices=tiny,
                                     tasks=(_task("camera-perception"),)))

    def test_overcommitted_pin_rejected(self):
        placement = PlacementSpec(
            policy="worst_fit", pins=(("camera-perception", "tiny"),)
        )
        devices = (DeviceSpec(name="gpu0"),
                   DeviceSpec(name="tiny", capacity=1e-6))
        with pytest.raises(PlatformError, match="camera-perception"):
            plan_placement(_platform(devices=devices, placement=placement))

    def test_task_without_kernels_rejected(self):
        # cfd is COTS-only: there is no frame job to simulate
        run = RunSpec(workload=WorkloadSpec(benchmark="cfd"), policy="srrs")
        task = StreamSpec(run=run, frames=10, tag="cfd-task")
        with pytest.raises(PlatformError,
                           match="'cfd' resolves to no kernels"):
            plan_placement(_platform(1, tasks=(task,)))

    def test_capacity_fold_accumulates(self):
        # capacity below the summed demand of all four tasks but above
        # each single demand: some tasks must spill to the second device
        single = plan_placement(_platform(1))
        total = sum(d.utilisation for d in single.demands.values())
        cap = total * 0.6
        devices = (DeviceSpec(name="gpu0", capacity=cap),
                   DeviceSpec(name="gpu1", capacity=cap))
        plan = plan_placement(_platform(devices=devices, policy="first_fit"))
        assert {device for _, device in plan.assignments} == {"gpu0", "gpu1"}
        assert all(u <= cap for u in plan.device_utilisation.values())

    def test_plan_to_dict_shape(self):
        payload = plan_placement(_platform(2)).to_dict()
        assert set(payload) == {"policy", "assignments", "demand",
                                "device_utilisation"}
        assert set(payload["assignments"]) == {t.label for t in _TASKS}


class TestWorkloadMixDemand:
    def test_mix_uses_mean_over_rotation(self):
        from repro.api import RunSpec, WorkloadSpec

        base = StreamSpec(
            run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                        policy="srrs"),
            frames=100,
        )
        mixed = replace(base, workload_mix=(
            WorkloadSpec(benchmark="hotspot"),
            WorkloadSpec(synthetic="short"),
        ))
        device = DeviceSpec(name="gpu0")
        plain = task_demand(base, device)
        mix = task_demand(mixed, device)
        assert mix.service_ms < plain.service_ms  # short pulls the mean down
