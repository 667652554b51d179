"""RL004 negative fixture: contract-complete Spec dataclasses."""

from dataclasses import dataclass

from repro.api.spec import SpecCodec


@dataclass(frozen=True)
class GoodSpec:
    """Frozen and dict-round-trippable."""

    frames: int = 1

    def to_dict(self):
        """JSON-ready mapping."""
        return {"frames": self.frames}

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`to_dict` output."""
        return cls(frames=data["frames"])


@dataclass(frozen=True)
class DerivedSpec(SpecCodec):
    """Frozen; the codec base derives the dict round-trip from fields."""

    frames: int = 1


class NotASpecHolder:
    """Name does not end in Spec — the rule must ignore it."""
