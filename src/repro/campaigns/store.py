"""JSONL shard-artifact store: the checkpoint/resume substrate.

Layout of a campaign directory::

    <root>/
        campaign.json    # manifest: the CampaignSpec + its config hash
        shards.jsonl     # one JSON line per *completed* shard, append-only

Each shard line carries the shard's identity (``shard``/``start``/
``stop``), its aggregated ``fault-kind -> outcome -> count`` table, a
bounded sample of SDC fault labels, and a SHA-256 ``digest`` of the
canonical payload.  Appends are flushed and fsynced, so a killed campaign
loses at most the shard lines that were mid-write.  A torn trailing line
is ignored on load (that shard simply re-runs) and repaired by the next
append; the manifest is replaced atomically.  Corruption anywhere else —
or a digest mismatch — raises :class:`~repro.errors.CampaignError`
instead of silently folding bad counts into a safety argument.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Dict, Mapping, Tuple, Union

from repro.api.campaign import CampaignSpec
from repro.errors import CampaignError, ConfigurationError
from repro.faults.outcomes import FaultOutcome

__all__ = ["CampaignStore", "ShardRecord", "OUTCOME_KEYS", "OUTCOMES_BY_KEY"]

#: ``FaultOutcome -> stable JSON key`` ("masked" / "detected" / "sdc").
OUTCOME_KEYS: Dict[FaultOutcome, str] = {o: o.name.lower() for o in FaultOutcome}
#: Inverse of :data:`OUTCOME_KEYS`.
OUTCOMES_BY_KEY: Dict[str, FaultOutcome] = {v: k for k, v in OUTCOME_KEYS.items()}

_MANIFEST_NAME = "campaign.json"
_SHARDS_NAME = "shards.jsonl"
_SCHEMA = "campaign-store/v1"


def _canonical(payload: Mapping[str, Any]) -> str:
    """Canonical JSON text (sorted keys, no whitespace variance)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ShardRecord:
    """Aggregated outcome of one completed shard.

    Attributes:
        shard: shard index in the campaign's shard plan.
        start: first fault index covered (inclusive).
        stop: last fault index covered (exclusive).
        policy: scheduler label of the attacked run (must agree across
            shards; the fold verifies it).
        counts: ``fault-kind -> outcome-key -> count`` with outcome keys
            from :data:`OUTCOME_KEYS`.
        sdc_samples: first few SDC fault labels, in fault-index order.
    """

    shard: int
    start: int
    stop: int
    policy: str
    counts: Dict[str, Dict[str, int]]
    sdc_samples: Tuple[str, ...] = ()

    @property
    def injections(self) -> int:
        """Number of injections the record aggregates."""
        return sum(n for bucket in self.counts.values() for n in bucket.values())

    def outcome_totals(self) -> Dict[FaultOutcome, int]:
        """Counts summed across fault kinds, keyed by outcome."""
        totals: Dict[FaultOutcome, int] = {}
        for bucket in self.counts.values():
            for key, count in bucket.items():
                outcome = OUTCOMES_BY_KEY[key]
                totals[outcome] = totals.get(outcome, 0) + count
        return totals

    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """Digest-covered plain-data form (everything but the digest)."""
        return {
            "shard": self.shard,
            "start": self.start,
            "stop": self.stop,
            "policy": self.policy,
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "sdc_samples": list(self.sdc_samples),
        }

    @property
    def digest(self) -> str:
        """SHA-256 hex digest of the canonical payload."""
        return hashlib.sha256(
            _canonical(self.payload()).encode("utf-8")
        ).hexdigest()[:16]

    def to_line(self) -> str:
        """One JSONL line: the payload plus its digest."""
        payload = self.payload()
        payload["digest"] = self.digest
        return _canonical(payload)

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "ShardRecord":
        """Rebuild a record from a parsed shard line, verifying its digest.

        Raises:
            CampaignError: on malformed payloads, unknown outcome keys, or
                a digest that does not match the payload.
        """
        try:
            record = cls(
                shard=int(data["shard"]),
                start=int(data["start"]),
                stop=int(data["stop"]),
                policy=str(data["policy"]),
                counts={
                    str(kind): {str(k): int(n) for k, n in bucket.items()}
                    for kind, bucket in dict(data["counts"]).items()
                },
                sdc_samples=tuple(str(s) for s in data.get("sdc_samples", ())),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CampaignError(f"malformed shard record: {exc}") from None
        for bucket in record.counts.values():
            unknown = sorted(set(bucket) - set(OUTCOMES_BY_KEY))
            if unknown:
                raise CampaignError(
                    f"shard {record.shard}: unknown outcome key(s) "
                    f"{', '.join(unknown)}"
                )
        claimed = data.get("digest")
        if claimed != record.digest:
            raise CampaignError(
                f"shard {record.shard}: digest mismatch (stored {claimed!r}, "
                f"recomputed {record.digest!r}) — artifact corrupt"
            )
        return record


def _repair_torn_tail(handle: BinaryIO) -> None:
    """Make an append-mode log end on a line boundary (see ``append``)."""
    end = handle.seek(0, os.SEEK_END)
    if end == 0:
        return
    handle.seek(end - 1)
    if handle.read(1) == b"\n":
        return
    handle.seek(0)
    start = handle.read().rfind(b"\n") + 1  # rare path: whole-file read
    handle.seek(start)
    try:
        json.loads(handle.read())
    except ValueError:
        handle.truncate(start)
    else:
        handle.write(b"\n")


class CampaignStore:
    """One campaign directory: manifest plus append-only shard artifacts.

    Args:
        root: directory holding (or to hold) the campaign's artifacts.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)

    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The campaign directory."""
        return self._root

    @property
    def manifest_path(self) -> Path:
        """Path of the ``campaign.json`` manifest."""
        return self._root / _MANIFEST_NAME

    @property
    def shards_path(self) -> Path:
        """Path of the ``shards.jsonl`` artifact log."""
        return self._root / _SHARDS_NAME

    def exists(self) -> bool:
        """True when the directory already holds a campaign manifest."""
        return self.manifest_path.is_file()

    # ------------------------------------------------------------------
    def initialise(self, spec: CampaignSpec) -> None:
        """Create the store for ``spec``, or verify it already matches.

        Idempotent: re-initialising with the same spec is a no-op (the
        resume path); a differing spec raises instead of mixing two fault
        populations in one artifact log.

        Raises:
            CampaignError: when the directory belongs to a different
                campaign.
        """
        if self.exists():
            existing = self.load_spec()
            if existing.config_hash != spec.config_hash:
                raise CampaignError(
                    f"campaign store {self._root} was created for spec "
                    f"{existing.config_hash}, not {spec.config_hash}; "
                    "use a fresh directory for a different campaign"
                )
            return
        self._root.mkdir(parents=True, exist_ok=True)
        from repro import __version__

        manifest = {
            "schema": _SCHEMA,
            "spec": spec.to_dict(),
            "spec_hash": spec.config_hash,
            "total_injections": spec.total_injections,
            "version": __version__,
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)

    def load_spec(self) -> CampaignSpec:
        """The :class:`CampaignSpec` this store was created for.

        Raises:
            CampaignError: when the manifest is missing or unreadable.
        """
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except OSError as exc:
            raise CampaignError(
                f"no campaign manifest at {self.manifest_path}: {exc}"
            ) from None
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"corrupt campaign manifest {self.manifest_path}: {exc}"
            ) from None
        if manifest.get("schema") != _SCHEMA:
            raise CampaignError(
                f"{self.manifest_path}: unsupported schema "
                f"{manifest.get('schema')!r} (expected {_SCHEMA!r})"
            )
        try:
            return CampaignSpec.from_dict(manifest["spec"])
        except (KeyError, ConfigurationError) as exc:
            raise CampaignError(
                f"{self.manifest_path}: invalid spec: {exc}"
            ) from None

    # ------------------------------------------------------------------
    def append(self, record: ShardRecord) -> None:
        """Persist one completed shard (flushed and fsynced).

        A torn trailing line left by a killed writer is repaired first —
        truncated (that shard re-runs anyway), or newline-terminated when
        only the newline was lost — instead of being appended onto.
        """
        with open(self.shards_path, "ab+") as handle:
            _repair_torn_tail(handle)
            handle.write(record.to_line().encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load_records(self) -> Dict[int, ShardRecord]:
        """All completed shards, keyed by shard index.

        A torn *trailing* line (the signature of a killed writer) is
        ignored — that shard merely re-runs on resume.  Corruption
        anywhere else, digest mismatches, or two conflicting records for
        the same shard raise.

        Raises:
            CampaignError: on mid-file corruption, digest mismatch, or
                duplicate shards with differing payloads.
        """
        try:
            text = self.shards_path.read_text(encoding="utf-8")
        except OSError:
            return {}
        records: Dict[int, ShardRecord] = {}
        lines = text.split("\n")
        last_content = len(lines) - 1
        while last_content >= 0 and not lines[last_content].strip():
            last_content -= 1
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                if lineno == last_content:
                    # torn final line: the writer died mid-append
                    continue
                raise CampaignError(
                    f"{self.shards_path}:{lineno + 1}: corrupt shard line "
                    "(not valid JSON) in the middle of the artifact log"
                ) from None
            record = ShardRecord.from_payload(data)
            previous = records.get(record.shard)
            if previous is not None and previous.to_line() != record.to_line():
                raise CampaignError(
                    f"{self.shards_path}: shard {record.shard} recorded "
                    "twice with different payloads — artifact log corrupt"
                )
            records[record.shard] = record
        return records
