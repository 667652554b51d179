"""RL006 negative fixture: only module-level callables reach map_tasks."""

from repro.exec import map_tasks


def work(item, telemetry):
    """Module-level: picklable by reference."""
    return item + 1


def run_all(items):
    """Map the module-level function, in and out of task order."""
    keys = [str(i) for i in items]
    ordered = list(map_tasks(work, items, workers=2, keys=keys))
    unordered = list(map_tasks(work, items, workers=2, keys=keys,
                               ordered=False))
    return ordered, unordered
