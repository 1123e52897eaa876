import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handoff_lab.errors import (
    InvalidParameterError,
    UnknownBaseStationError,
    UnsupportedHandoffTypeError,
)
from handoff_lab.topology import (
    AccessSystem,
    DelayProfile,
    ForeignAgent,
    HandoffType,
    NetworkTopology,
    classify_handoff,
    delay_for,
)


def two_system_topology() -> NetworkTopology:
    return NetworkTopology(
        systems=(
            AccessSystem(
                system_id="sys1",
                gfa_id="gfa1",
                fas=(
                    ForeignAgent(fa_id="fa1", bs_ids=("bs10", "bs11")),
                    ForeignAgent(fa_id="fa2", bs_ids=("bs12",)),
                ),
            ),
            AccessSystem(
                system_id="sys2",
                gfa_id="gfa2",
                fas=(ForeignAgent(fa_id="fa3", bs_ids=("bs20", "bs21")),),
            ),
        )
    )


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_three_handoff_classes():
    topo = two_system_topology()
    assert classify_handoff(topo, "bs10", "bs11") is HandoffType.LINK_LAYER
    assert classify_handoff(topo, "bs11", "bs12") is HandoffType.INTRA_SYSTEM
    assert classify_handoff(topo, "bs12", "bs20") is HandoffType.INTER_SYSTEM
    assert classify_handoff(topo, "bs20", "bs21") is HandoffType.LINK_LAYER


@st.composite
def topologies(draw):
    """1-3 systems of 1-3 foreign agents, each with 1-3 base stations."""
    shape = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=3))
    ids = itertools.count()
    return NetworkTopology(systems=tuple(
        AccessSystem(system_id=f"s{s}", gfa_id=f"g{s}", fas=tuple(
            ForeignAgent(fa_id=f"f{s}_{f}", bs_ids=tuple(f"b{next(ids)}" for _ in range(n)))
            for f, n in enumerate(sizes)))
        for s, sizes in enumerate(shape)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(topo=topologies())
def test_classification_is_symmetric(topo):
    stations = [bs for system in topo.systems for fa in system.fas for bs in fa.bs_ids]
    for a, b in itertools.combinations(stations, 2):
        assert classify_handoff(topo, a, b) is classify_handoff(topo, b, a)


def test_same_station_rejected():
    topo = two_system_topology()
    with pytest.raises(InvalidParameterError):
        classify_handoff(topo, "bs10", "bs10")


def test_unknown_station_named_in_error():
    topo = two_system_topology()
    with pytest.raises(UnknownBaseStationError) as err:
        classify_handoff(topo, "bs10", "bs99")
    assert "bs99" in str(err.value)
    with pytest.raises(UnknownBaseStationError) as err:
        classify_handoff(topo, "nope", "bs10")
    assert "nope" in str(err.value)


def test_classification_against_brute_force():
    # random topologies, compared with a direct membership scan
    rng = random.Random(71)
    for round_no in range(20):
        systems = []
        station_home = {}
        counter = itertools.count()
        for s in range(rng.randint(1, 4)):
            fas = []
            for f in range(rng.randint(1, 3)):
                bss = tuple(f"b{next(counter)}" for _ in range(rng.randint(1, 4)))
                fa = ForeignAgent(fa_id=f"f{s}_{f}", bs_ids=bss)
                fas.append(fa)
                for bs in bss:
                    station_home[bs] = (f"g{s}", fa.fa_id)
            systems.append(
                AccessSystem(system_id=f"s{s}", gfa_id=f"g{s}", fas=tuple(fas))
            )
        topo = NetworkTopology(systems=tuple(systems))
        stations = sorted(station_home)
        for _ in range(30):
            a, b = rng.sample(stations, 2) if len(stations) > 1 else (None, None)
            if a is None:
                break
            ga, fa = station_home[a]
            gb, fb = station_home[b]
            if fa == fb:
                expected = HandoffType.LINK_LAYER
            elif ga == gb:
                expected = HandoffType.INTRA_SYSTEM
            else:
                expected = HandoffType.INTER_SYSTEM
            assert classify_handoff(topo, a, b) is expected


def test_locate():
    topo = two_system_topology()
    assert topo.locate("bs12") == ("fa2", "gfa1")
    with pytest.raises(UnknownBaseStationError):
        topo.locate("missing")


# ----------------------------------------------------------------------
# structural validation
# ----------------------------------------------------------------------

def test_duplicate_identifiers_rejected():
    with pytest.raises(InvalidParameterError):
        NetworkTopology(
            systems=(
                AccessSystem(
                    system_id="s",
                    gfa_id="g1",
                    fas=(
                        ForeignAgent(fa_id="f1", bs_ids=("b1",)),
                        ForeignAgent(fa_id="f2", bs_ids=("b1",)),
                    ),
                ),
            )
        )
    with pytest.raises(InvalidParameterError):
        NetworkTopology(
            systems=(
                AccessSystem(
                    system_id="dup",
                    gfa_id="dup",
                    fas=(ForeignAgent(fa_id="f1", bs_ids=("b1",)),),
                ),
            )
        )


@pytest.mark.parametrize("kind", ["system_id", "gfa_id", "fa_id", "bs_id"])
def test_empty_identifiers_rejected(kind):
    # an empty id is a typo in the document, and would otherwise classify
    ids = {"system_id": "s", "gfa_id": "g", "fa_id": "f", "bs_id": "b1", kind: ""}
    with pytest.raises(InvalidParameterError, match=f"empty {kind}"):
        NetworkTopology(systems=(
            AccessSystem(system_id=ids["system_id"], gfa_id=ids["gfa_id"], fas=(
                ForeignAgent(fa_id=ids["fa_id"], bs_ids=(ids["bs_id"], "b2")),)),))


ID_PATHS = {"system_id": "systems[1].system_id", "gfa_id": "systems[1].gfa_id",
            "fa_id": "systems[1].fas[1].fa_id", "bs_id": "systems[1].fas[1].bs_ids[1]"}


@pytest.mark.parametrize("kind", list(ID_PATHS))
@pytest.mark.parametrize("ident,message", [
    (7, "{path} must be a string, got 7"),
    ("", "empty {kind} at {path}; identifiers must be nonempty"),
    ("b0", "duplicate identifier 'b0' at {path} (already a bs_id)"),
], ids=["not-a-string", "empty", "duplicate"])
def test_each_id_fault_names_its_path(kind, ident, message):
    # the id of this kind in the second system, its second foreign agent
    # and that agent's second base station is the only one at fault
    ids = {"system_id": "s1", "gfa_id": "g1", "fa_id": "f2", "bs_id": "b3", kind: ident}
    systems = (AccessSystem("s0", "g0", (ForeignAgent("f0", ("b0",)),)),
               AccessSystem(ids["system_id"], ids["gfa_id"], (
                   ForeignAgent("f1", ("b1",)), ForeignAgent(ids["fa_id"], ("b2", ids["bs_id"])))))
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology(systems)
    assert str(err.value) == message.format(path=ID_PATHS[kind], kind=kind)


def test_empty_containers_rejected():
    # the topology checks the whole forest, and names the empty container's path
    full = AccessSystem("s1", "g1", (ForeignAgent("f1", ("b1",)),))
    with pytest.raises(InvalidParameterError, match=r"^systems\[1\]\.fas must not be empty$"):
        NetworkTopology([full, AccessSystem("s2", "g2", ())])
    no_bs = (ForeignAgent("f2", ("b2",)), ForeignAgent("f3", ()))
    with pytest.raises(InvalidParameterError, match=r"^systems\[1\]\.fas\[1\]\.bs_ids must not be empty$"):
        NetworkTopology([full, AccessSystem("s2", "g2", no_bs)])
    with pytest.raises(InvalidParameterError):
        NetworkTopology(systems=())


def test_home_agent_ids_may_repeat():
    # one home agent can anchor several access systems; nothing here keys on it
    doc = {
        "systems": [
            {"system_id": "s1", "gfa_id": "g1", "ha_id": "home",
             "fas": [{"fa_id": "f1", "bs_ids": ["b1"]}]},
            {"system_id": "s2", "gfa_id": "g2", "ha_id": "home",
             "fas": [{"fa_id": "f2", "bs_ids": ["b2"]}]},
        ]
    }
    topo = NetworkTopology.from_dict(doc)
    assert classify_handoff(topo, "b1", "b2") is HandoffType.INTER_SYSTEM


# ----------------------------------------------------------------------
# delays
# ----------------------------------------------------------------------

def test_default_delays():
    profile = DelayProfile()
    assert delay_for(profile, HandoffType.INTRA_SYSTEM) == 1.5
    assert delay_for(profile, HandoffType.INTER_SYSTEM) == 3.0


def test_link_layer_delay_requires_opt_in():
    with pytest.raises(UnsupportedHandoffTypeError):
        delay_for(DelayProfile(), HandoffType.LINK_LAYER)
    assert delay_for(DelayProfile(link_layer_s=0.5), HandoffType.LINK_LAYER) == 0.5
    assert delay_for(DelayProfile(link_layer_s=0.0), HandoffType.LINK_LAYER) == 0.0


def test_delay_profile_validation():
    with pytest.raises(InvalidParameterError):
        DelayProfile(intra_s=0.0)
    with pytest.raises(InvalidParameterError):
        DelayProfile(intra_s=2.0, inter_s=1.0)
    with pytest.raises(InvalidParameterError):
        DelayProfile(link_layer_s=-0.1)


@pytest.mark.parametrize(
    "kwargs,ok",
    [
        ({"intra_s": np.float32(1.0)}, True),
        ({"inter_s": np.int64(4)}, True),
        ({"link_layer_s": np.float64(0.2)}, True),
        ({"intra_s": "1"}, False),
        ({"intra_s": True}, False),
        ({"link_layer_s": False}, False),
        ({"intra_s": math.inf, "inter_s": math.inf}, False),
        ({"link_layer_s": math.nan}, False),
        ({"inter_s": 10**400}, False),
    ],
)
def test_delay_profile_numeric_inputs(kwargs, ok):
    # bools, strings and non-finite values are rejected, numpy scalars are
    # stored as plain float
    if not ok:
        with pytest.raises(InvalidParameterError):
            DelayProfile(**kwargs)
        return
    profile = DelayProfile(**kwargs)
    for key, value in kwargs.items():
        assert type(getattr(profile, key)) is float
        assert getattr(profile, key) == float(value)


# ----------------------------------------------------------------------
# dictionary construction
# ----------------------------------------------------------------------

def test_from_dict_round_trip():
    doc = {
        "systems": [
            {
                "system_id": "sys1",
                "gfa_id": "gfa1",
                "ha_id": "ha0",
                "fas": [
                    {"fa_id": "fa1", "bs_ids": ["bs10", "bs11"]},
                    {"fa_id": "fa2", "bs_ids": ["bs12"]},
                ],
            },
            {
                "system_id": "sys2",
                "gfa_id": "gfa2",
                "fas": [{"fa_id": "fa3", "bs_ids": ["bs20", "bs21"]}],
            },
        ]
    }
    topo = NetworkTopology.from_dict(doc)
    assert classify_handoff(topo, "bs10", "bs12") is HandoffType.INTRA_SYSTEM
    assert classify_handoff(topo, "bs12", "bs21") is HandoffType.INTER_SYSTEM


def test_from_dict_error_paths():
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology.from_dict({"systems": [{"gfa_id": "g"}]})
    assert "systems[0]" in str(err.value)
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology.from_dict(
            {"systems": [{"system_id": "s", "gfa_id": "g", "fas": [{"fa_id": "f"}]}]}
        )
    assert "systems[0].fas[0]" in str(err.value)
    with pytest.raises(InvalidParameterError):
        NetworkTopology.from_dict({})
    with pytest.raises(InvalidParameterError):
        NetworkTopology.from_dict({"systems": "oops"})
    fa = {"fa_id": "f", "bs_ids": ["b"]}
    # a null id counts as absent, as any null key in a scenario does
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology.from_dict({"systems": [{"system_id": None, "gfa_id": "g", "fas": [fa]}]})
    assert str(err.value) == "systems[0].system_id: is required"
    # an id that is not a string is refused, never converted to one (YAML's
    # 012 is the integer 10, not the id "012")
    for system, path in (
        ({"system_id": "s", "gfa_id": [1, 2], "fas": [fa]}, "systems[0].gfa_id"),
        ({"system_id": "s", "gfa_id": "g", "fas": [fa, {"fa_id": 10, "bs_ids": ["c"]}]},
         "systems[0].fas[1].fa_id"),
    ):
        with pytest.raises(InvalidParameterError) as err:
            NetworkTopology.from_dict({"systems": [system]})
        assert str(err.value).startswith(f"{path} must be a string")


def _doc(system_extra=None, fa_extra=None, top_extra=None):
    """A two-system document, with extra keys at the top, in systems[0] and
    in systems[0].fas[1]."""
    fas = [{"fa_id": "f1", "bs_ids": ["b1"]}, {"fa_id": "f2", "bs_ids": ["b2"], **(fa_extra or {})}]
    return {
        "systems": [
            {"system_id": "s1", "gfa_id": "g1", "fas": fas, **(system_extra or {})},
            {"system_id": "s2", "gfa_id": "g2", "fas": [{"fa_id": "f3", "bs_ids": ["b3"]}]},
        ],
        **(top_extra or {}),
    }


@pytest.mark.parametrize("doc,path", [
    (_doc(top_extra={"sytems": 1}), "sytems"),
    (_doc(system_extra={"gfa": "oops"}), "systems[0].gfa"),
    (_doc(fa_extra={"bs_idz": ["c"]}), "systems[0].fas[1].bs_idz"),
    (_doc(fa_extra={"ba": 1}), "systems[0].fas[1].ba"),
], ids=["top", "system", "foreign-agent", "foreign-agent-scalar"])
def test_from_dict_refuses_unknown_keys_at_every_level(doc, path):
    # a misspelt key would otherwise drop what it holds without a word
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology.from_dict(doc)
    assert str(err.value) == f"{path}: is not a recognized key"


@pytest.mark.parametrize("ha_id", ["home", None])
def test_from_dict_allows_and_ignores_ha_id(ha_id):
    topo = NetworkTopology.from_dict(_doc(system_extra={"ha_id": ha_id}))
    assert topo.locate("b2") == ("f2", "g1")
    assert classify_handoff(topo, "b1", "b3") is HandoffType.INTER_SYSTEM


@pytest.mark.parametrize("doc,message", [
    ({"systems": "oops"}, "systems must be a list"),
    ({"systems": [{"system_id": "s", "gfa_id": "g", "fas": {"fa_id": "f"}}]}, "systems[0].fas must be a list"),
    (_doc(fa_extra={"bs_ids": "b2"}), "systems[0].fas[1].bs_ids must be a list"),
], ids=["systems", "fas", "bs_ids"])
def test_from_dict_refuses_a_container_that_is_not_a_list(doc, message):
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology.from_dict(doc)
    assert str(err.value) == message


def test_from_dict_refuses_a_null_list():
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology.from_dict(_doc(fa_extra={"bs_ids": None}))
    assert str(err.value) == "systems[0].fas[1].bs_ids: is required"


@pytest.mark.parametrize("system,path", [
    (AccessSystem("s", 5, (ForeignAgent("f", ("b",)),)), "systems[1].gfa_id"),
    (AccessSystem("s", "g", (ForeignAgent("f", ("b",)), ForeignAgent("f2", ("c", 7)))),
     "systems[1].fas[1].bs_ids[1]"),
    (AccessSystem(None, "g", (ForeignAgent("f", ("b",)),)), "systems[1].system_id"),
    (AccessSystem("s", "g", (ForeignAgent(b"f", ("b",)),)), "systems[1].fas[0].fa_id"),
], ids=["gfa_id", "bs_id", "system_id", "fa_id"])
def test_constructor_refuses_an_id_that_is_not_a_string(system, path):
    first = AccessSystem("s0", "g0", (ForeignAgent("f0", ("b0",)),))
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology((first, system))
    assert str(err.value).startswith(f"{path} must be a string, got ")


def test_duplicate_identifier_names_its_path():
    with pytest.raises(InvalidParameterError) as err:
        NetworkTopology.from_dict(_doc(fa_extra={"bs_ids": ["b2", "g2"]}))
    assert str(err.value) == (
        "duplicate identifier 'g2' at systems[1].gfa_id (already a bs_id)"
    )
