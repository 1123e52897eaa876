"""Agent hierarchy for classifying handoffs and picking signaling delays.

Base stations hang off foreign agents, foreign agents off a per-system
gateway agent.  Moving between base stations then falls into one of three
classes: under the same foreign agent (link layer only), across foreign
agents within one gateway (intra-system), or across gateways
(inter-system).  Only the latter two involve registration signaling, so the
default delay profile has no link-layer delay.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    InvalidParameterError,
    UnknownBaseStationError,
    UnsupportedHandoffTypeError,
    coerce_numbers,
)


class HandoffType(Enum):
    LINK_LAYER = "link_layer"
    INTRA_SYSTEM = "intra"
    INTER_SYSTEM = "inter"


@dataclass(frozen=True)
class ForeignAgent:
    fa_id: str
    bs_ids: Tuple[str, ...]

    def __post_init__(self):
        if not self.bs_ids:
            raise InvalidParameterError(f"foreign agent {self.fa_id!r} has no base stations")


@dataclass(frozen=True)
class AccessSystem:
    """One administrative system: a gateway agent over its foreign agents."""

    system_id: str
    gfa_id: str
    fas: Tuple[ForeignAgent, ...]

    def __post_init__(self):
        if not self.fas:
            raise InvalidParameterError(f"system {self.system_id!r} has no foreign agents")


class NetworkTopology:
    """Validated forest of systems; identifiers are nonempty and globally unique."""

    def __init__(self, systems: Sequence[AccessSystem]):
        systems = tuple(systems)
        if not systems:
            raise InvalidParameterError("topology needs at least one system")
        seen: Dict[str, str] = {}
        for kind, ident in _iter_identifiers(systems):
            if not ident:
                raise InvalidParameterError(f"empty {kind} (identifiers must be nonempty strings)")
            if ident in seen:
                raise InvalidParameterError(
                    f"duplicate identifier {ident!r} ({kind} vs earlier {seen[ident]})"
                )
            seen[ident] = kind
        self.systems = systems
        self._by_bs: Dict[str, Tuple[str, str]] = {}
        for sys_ in systems:
            for fa in sys_.fas:
                for bs in fa.bs_ids:
                    self._by_bs[bs] = (fa.fa_id, sys_.gfa_id)

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkTopology":
        """Build from plain data: {"systems": [{system_id, gfa_id, fas: [...]}]}."""
        if not isinstance(doc, dict) or "systems" not in doc:
            raise InvalidParameterError("topology must be a mapping with a 'systems' list")
        raw_systems = doc["systems"]
        if not isinstance(raw_systems, list):
            raise InvalidParameterError("'systems' must be a list")
        systems = []
        for i, raw in enumerate(raw_systems):
            where = f"systems[{i}]"
            if not isinstance(raw, dict):
                raise InvalidParameterError(f"{where} must be a mapping")
            for key in ("system_id", "gfa_id", "fas"):
                if key not in raw:
                    raise InvalidParameterError(f"{where} is missing {key!r}")
            if not isinstance(raw["fas"], list):
                raise InvalidParameterError(f"{where}.fas must be a list")
            fas = []
            for j, raw_fa in enumerate(raw["fas"]):
                fa_where = f"{where}.fas[{j}]"
                if not isinstance(raw_fa, dict) or "fa_id" not in raw_fa or "bs_ids" not in raw_fa:
                    raise InvalidParameterError(f"{fa_where} needs 'fa_id' and 'bs_ids'")
                bs_ids = raw_fa["bs_ids"]
                if not isinstance(bs_ids, list) or not all(isinstance(b, str) for b in bs_ids):
                    raise InvalidParameterError(f"{fa_where}.bs_ids must be a list of strings")
                fas.append(ForeignAgent(fa_id=_text(raw_fa, "fa_id", fa_where), bs_ids=tuple(bs_ids)))
            systems.append(
                AccessSystem(
                    system_id=_text(raw, "system_id", where),
                    gfa_id=_text(raw, "gfa_id", where),
                    fas=tuple(fas),
                )
            )
        return cls(systems)

    def locate(self, bs_id: str) -> Tuple[str, str]:
        """(fa_id, gfa_id) for a base station; unknown ids raise."""
        try:
            return self._by_bs[bs_id]
        except KeyError:
            raise UnknownBaseStationError(f"unknown base station {bs_id!r}") from None


@dataclass(frozen=True)
class DelayProfile:
    """Signaling delay per handoff class, seconds.

    Link-layer handoffs complete without registration signaling, so a delay
    for them must be opted into explicitly.
    """

    intra_s: float = 1.5
    inter_s: float = 3.0
    link_layer_s: Optional[float] = None

    def __post_init__(self):
        coerce_numbers(self, "intra_s", "inter_s", finite=True)
        if self.link_layer_s is not None:
            coerce_numbers(self, "link_layer_s", finite=True)
        if not self.intra_s > 0:
            raise InvalidParameterError(f"intra_s must be positive, got {self.intra_s!r}")
        if not self.inter_s >= self.intra_s:
            raise InvalidParameterError(
                f"inter_s must be at least intra_s, got {self.inter_s!r} < {self.intra_s!r}"
            )
        if self.link_layer_s is not None and not self.link_layer_s >= 0:
            raise InvalidParameterError(
                f"link_layer_s must be nonnegative when set, got {self.link_layer_s!r}"
            )


def classify_handoff(topology: NetworkTopology, from_bs: str, to_bs: str) -> HandoffType:
    """Class of the move between two distinct base stations.

    Same foreign agent: link layer.  Same gateway, different foreign agent:
    intra-system.  Different gateway: inter-system.  Symmetric in its
    endpoints by construction.
    """
    from_fa, from_gfa = topology.locate(from_bs)
    to_fa, to_gfa = topology.locate(to_bs)
    if from_bs == to_bs:
        raise InvalidParameterError(f"handoff endpoints must differ, got {from_bs!r} twice")
    if from_fa == to_fa:
        return HandoffType.LINK_LAYER
    if from_gfa == to_gfa:
        return HandoffType.INTRA_SYSTEM
    return HandoffType.INTER_SYSTEM


def delay_for(profile: DelayProfile, handoff_type: HandoffType) -> float:
    """Signaling delay the profile assigns to a handoff class."""
    if handoff_type is HandoffType.INTRA_SYSTEM:
        return profile.intra_s
    if handoff_type is HandoffType.INTER_SYSTEM:
        return profile.inter_s
    if profile.link_layer_s is None:
        raise UnsupportedHandoffTypeError(
            "link-layer handoffs have no delay in this profile; set link_layer_s to model one"
        )
    return profile.link_layer_s


def _text(raw: dict, key: str, where: str) -> str:
    """raw[key], which must be a string: an id is never converted."""
    value = raw[key]
    if not isinstance(value, str):
        raise InvalidParameterError(f"{where}.{key} must be a string, got {value!r}")
    return value


def _iter_identifiers(systems: Sequence[AccessSystem]):
    for sys_ in systems:
        yield "system_id", sys_.system_id
        yield "gfa_id", sys_.gfa_id
        for fa in sys_.fas:
            yield "fa_id", fa.fa_id
            for bs in fa.bs_ids:
                yield "bs_id", bs
