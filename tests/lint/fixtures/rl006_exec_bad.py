"""RL006 positive fixture: non-picklable map_tasks callables (3 violations)."""

from repro import exec as repro_exec
from repro.exec import map_tasks


def run_all(items):
    """Hand map_tasks a lambda and a nested function."""
    def nested(item, telemetry):
        return item + 1

    a = list(map_tasks(lambda item, telemetry: item, items, workers=2,
                       keys=[str(i) for i in items]))
    b = list(repro_exec.map_tasks(nested, items, workers=2,
                                  keys=[str(i) for i in items]))
    return a, b


class Runner:
    """Holds a bound method that must not cross the fork."""

    def _work(self, item, telemetry):
        return item

    def run(self, items):
        """Map the bound method (hidden instance state)."""
        return list(map_tasks(self._work, items, workers=2,
                              keys=[str(i) for i in items]))
