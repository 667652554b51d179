"""RL004 positive fixture: Spec classes breaking the contract (4 violations)."""

from dataclasses import dataclass


@dataclass
class MutableSpec:
    """Not frozen — hashed provenance could silently change."""

    frames: int = 1

    def to_dict(self):
        """Round-trip half exists."""
        return {"frames": self.frames}

    @classmethod
    def from_dict(cls, data):
        """Round-trip half exists."""
        return cls(frames=data["frames"])


@dataclass(frozen=True)
class HalfSpec:
    """Frozen but missing both halves of the dict round-trip."""

    frames: int = 1


class Loader:
    """An unrelated base class — not the field-derived spec codec."""

    @classmethod
    def from_dict(cls, data):
        """Inherited half the rule cannot vouch for."""
        return cls(**data)


@dataclass(frozen=True)
class UnrelatedBaseSpec(Loader):
    """Frozen, writes to_dict, but from_dict comes from a non-codec base."""

    frames: int = 1

    def to_dict(self):
        """Round-trip half exists."""
        return {"frames": self.frames}
