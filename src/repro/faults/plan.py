"""Declarative, deterministic fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries: *at sim-time T
(or at a seeded random time drawn from a window), apply fault ``kind`` to
``target``, optionally recovering after ``duration`` seconds*.  Plans
round-trip through JSON (``python -m repro chaos --plan plan.json``) and
resolve their random times through :class:`~repro.sim.rng.RngFactory`
substreams, so the same root seed always reproduces the identical fault
sequence -- the property the replay tests pin down.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..sim.rng import RngFactory

__all__ = ["FaultSpec", "FaultPlan", "ResolvedFault", "FAULT_KINDS",
           "dump_failure_artifact"]

#: Every fault the injector knows how to apply, with the target it expects.
FAULT_KINDS: Dict[str, str] = {
    "cxl.latency_spike": "host (None = all links)",
    "cxl.throttle": "host (None = all links)",
    "cache.writeback_loss": "host",
    "nic.fail": "nic",
    "nic.dma_abort": "nic",
    "ssd.fail": "ssd",
    "ssd.media_error": "ssd",
    "switch.drop": "switch (target ignored)",
    "switch.duplicate": "switch (target ignored)",
    "switch.port_down": "nic (its switch port)",
    "host.crash": "host",
    "raft.leader_crash": "ignored (whichever node leads at fire time)",
    "notify.delay": "host (frontend whose notifications lag)",
    "notify.drop": "host (frontend losing the next notification(s))",
    "report.duplicate": "nic (re-deliver its failure report)",
    "overload.surge": "ignored (every registered open-loop load source)",
}

#: Kinds that model one-shot events: ``duration`` makes no sense for them.
_ONE_SHOT_KINDS = frozenset({
    "cache.writeback_loss", "nic.dma_abort", "ssd.media_error",
    "switch.drop", "switch.duplicate", "notify.drop", "report.duplicate",
})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Exactly one of ``at`` (a fixed sim time) or ``window`` (a ``[lo, hi)``
    interval the injection time is drawn from, seeded) must be given.
    ``params`` carries kind-specific knobs (counts, derates, extra latency).
    """

    kind: str
    target: Optional[str] = None
    at: Optional[float] = None
    window: Optional[Tuple[float, float]] = None
    duration: Optional[float] = None
    params: Dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(sorted(FAULT_KINDS))}"
            )
        if (self.at is None) == (self.window is None):
            raise ConfigError(
                f"fault {self.kind!r}: exactly one of 'at' and 'window' required"
            )
        if self.at is not None and self.at < 0:
            raise ConfigError(f"fault {self.kind!r}: 'at' must be >= 0")
        if self.window is not None:
            lo, hi = self.window
            if lo < 0 or hi <= lo:
                raise ConfigError(
                    f"fault {self.kind!r}: window must satisfy 0 <= lo < hi"
                )
        if self.duration is not None:
            if self.duration <= 0:
                raise ConfigError(f"fault {self.kind!r}: duration must be > 0")
            if self.kind in _ONE_SHOT_KINDS:
                raise ConfigError(
                    f"fault {self.kind!r} is one-shot; 'duration' is meaningless"
                )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.target is not None:
            out["target"] = self.target
        if self.at is not None:
            out["at"] = self.at
        if self.window is not None:
            out["window"] = list(self.window)
        if self.duration is not None:
            out["duration"] = self.duration
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultSpec":
        known = {"kind", "target", "at", "window", "duration", "params"}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown fault spec keys: {sorted(extra)}")
        window = raw.get("window")
        spec = cls(
            kind=raw.get("kind", ""),
            target=raw.get("target"),
            at=raw.get("at"),
            window=tuple(window) if window is not None else None,
            duration=raw.get("duration"),
            params=dict(raw.get("params", {})),
        )
        spec.validate()
        return spec


@dataclass(frozen=True)
class ResolvedFault:
    """A :class:`FaultSpec` with its injection time pinned down."""

    index: int
    time: float
    spec: FaultSpec


class FaultPlan:
    """An ordered collection of fault specs, replayable from one root seed."""

    def __init__(self, faults: Sequence[FaultSpec], name: str = "plan"):
        self.faults: List[FaultSpec] = list(faults)
        self.name = name
        for spec in self.faults:
            spec.validate()

    def resolve(self, rng: RngFactory) -> List[ResolvedFault]:
        """Pin every windowed fault to a concrete time.

        Each fault draws from its own ``fresh`` substream (keyed by plan
        position and kind), so resolution is independent of call order and of
        any other consumer of the factory -- same root seed, same times.
        """
        resolved = []
        for index, spec in enumerate(self.faults):
            if spec.at is not None:
                time = float(spec.at)
            else:
                lo, hi = spec.window
                stream = rng.fresh(f"faults/{self.name}/{index}/{spec.kind}")
                time = float(stream.uniform(lo, hi))
            resolved.append(ResolvedFault(index=index, time=time, spec=spec))
        resolved.sort(key=lambda rf: (rf.time, rf.index))
        return resolved

    # -- JSON round-trip -----------------------------------------------------

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(
            {"name": self.name,
             "faults": [spec.to_dict() for spec in self.faults]},
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}") from exc
        if isinstance(raw, list):
            raw = {"faults": raw}
        if not isinstance(raw, dict) or "faults" not in raw:
            raise ConfigError(
                "fault plan must be a JSON object with a 'faults' list"
            )
        faults = [FaultSpec.from_dict(entry) for entry in raw["faults"]]
        return cls(faults, name=raw.get("name", "plan"))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def dump_failure_artifact(name: str, payload: dict) -> str:
    """Write a failing chaos schedule (plan + seed) for CI artifact upload.

    The directory defaults to ``chaos-artifacts/`` and can be overridden with
    ``CHAOS_ARTIFACT_DIR``.  Returns the path written.
    """
    directory = os.environ.get("CHAOS_ARTIFACT_DIR", "chaos-artifacts")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, default=str)
        fh.write("\n")
    return path
