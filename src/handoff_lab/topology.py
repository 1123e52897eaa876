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
    _shape,
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


@dataclass(frozen=True)
class AccessSystem:
    """One administrative system: a gateway agent over its foreign agents."""

    system_id: str
    gfa_id: str
    fas: Tuple[ForeignAgent, ...]


class NetworkTopology:
    """Validated forest of systems: every system has a foreign agent and every
    foreign agent a base station; identifiers are nonempty strings, globally unique."""

    def __init__(self, systems: Sequence[AccessSystem]):
        systems = tuple(systems)
        if not systems:
            raise InvalidParameterError("systems must not be empty")
        self.systems = systems
        self._by_bs: Dict[str, Tuple[str, str]] = {}
        seen: Dict[str, str] = {}  # id: its kind

        def check(ident, kind: str, path: str, *at: int) -> None:
            """Record ident, of this kind at path.format(*at), if it is a new
            nonempty string; else refuse it.  The path is spelt out only to raise."""
            if not isinstance(ident, str) or not ident or ident in seen:
                path = path.format(*at)
                if not isinstance(ident, str):
                    raise InvalidParameterError(f"{path} must be a string, got {ident!r}")
                if not ident:
                    raise InvalidParameterError(f"empty {kind} at {path}; identifiers must be nonempty")
                raise InvalidParameterError(f"duplicate identifier {ident!r} at {path} (already a {seen[ident]})")
            seen[ident] = kind

        for i, sys_ in enumerate(systems):
            check(sys_.system_id, "system_id", "systems[{}].system_id", i)
            check(sys_.gfa_id, "gfa_id", "systems[{}].gfa_id", i)
            if not sys_.fas:
                raise InvalidParameterError(f"systems[{i}].fas must not be empty")
            for j, fa in enumerate(sys_.fas):
                check(fa.fa_id, "fa_id", "systems[{}].fas[{}].fa_id", i, j)
                if not fa.bs_ids:
                    raise InvalidParameterError(f"systems[{i}].fas[{j}].bs_ids must not be empty")
                for k, bs in enumerate(fa.bs_ids):
                    check(bs, "bs_id", "systems[{}].fas[{}].bs_ids[{}]", i, j, k)
                    self._by_bs[bs] = (fa.fa_id, sys_.gfa_id)

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkTopology":
        """Build from plain data: {"systems": [{system_id, gfa_id, fas: [{fa_id, bs_ids}]}]}.
        Each level is checked by errors._shape, as a scenario is: unknown keys
        are refused, null counts as absent, and a system's ha_id is ignored."""
        raw_systems = _shape(doc, ("systems",), required=("systems",))["systems"]
        if not isinstance(raw_systems, list):
            raise InvalidParameterError("systems must be a list")
        systems = []
        for i, raw in enumerate(raw_systems):
            where = f"systems[{i}]"
            raw = _shape(raw, ("system_id", "gfa_id", "fas", "ha_id"), ("system_id", "gfa_id", "fas"), where)
            if not isinstance(raw["fas"], list):
                raise InvalidParameterError(f"{where}.fas must be a list")
            fas = []
            for j, raw_fa in enumerate(raw["fas"]):
                fa_where = f"{where}.fas[{j}]"
                raw_fa = _shape(raw_fa, ("fa_id", "bs_ids"), ("fa_id", "bs_ids"), fa_where)
                if not isinstance(raw_fa["bs_ids"], list):
                    raise InvalidParameterError(f"{fa_where}.bs_ids must be a list")
                fas.append(ForeignAgent(raw_fa["fa_id"], tuple(raw_fa["bs_ids"])))
            systems.append(AccessSystem(raw["system_id"], raw["gfa_id"], tuple(fas)))
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
            raise InvalidParameterError(f"must be positive, got {self.intra_s!r}", "intra_s")
        if not self.inter_s >= self.intra_s:
            raise InvalidParameterError(
                f"must be at least intra_s, got {self.inter_s!r} < {self.intra_s!r}", "inter_s"
            )
        if self.link_layer_s is not None and not self.link_layer_s >= 0:
            raise InvalidParameterError(
                f"must be nonnegative when set, got {self.link_layer_s!r}", "link_layer_s"
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

