"""Workspace parsing, corpus generators, serialization."""

import json
import os

import pytest

from endolab import workspace
from endolab.verdicts import Caps

HERE = os.path.dirname(__file__)
DEMO = os.path.join(HERE, "..", "workspaces", "demo.json")


def write(tmp_path, data):
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def minimal(extra=None):
    data = {
        "rings": {"z6": {"moduli": [6], "mul": [[[1]]], "one": [1]}},
        "modules": {"m": {"ring": "z6", "regular": True}},
    }
    if extra:
        data.update(extra)
    return data


def test_parse_minimal(tmp_path):
    ws = workspace.parse_workspace(write(tmp_path, minimal()))
    assert "z6" in ws.rings
    assert ws.modules["m"].size() == 6
    assert ws.caps == Caps()


def test_bundled_fixture_parses():
    ws = workspace.parse_workspace(DEMO)
    assert "ut2z2" in ws.rings
    assert ws.modules["e1R"].size() == 4
    assert "diamond" in ws.posets
    assert len(ws.corpora["demo"]) >= 5


def test_unknown_ring_reference(tmp_path):
    data = minimal()
    data["modules"]["bad"] = {"ring": "nope", "regular": True}
    with pytest.raises(workspace.WorkspaceError, match="nope"):
        workspace.parse_workspace(write(tmp_path, data))


def test_corrupted_action_rejected(tmp_path):
    data = minimal()
    data["modules"]["bad"] = {
        "ring": "z6", "moduli": [6], "action": [[[2]]],
    }
    with pytest.raises(workspace.WorkspaceError, match="bad"):
        workspace.parse_workspace(write(tmp_path, data))


def test_broken_ring_axiom_rejected(tmp_path):
    data = {"rings": {"r": {"moduli": [4], "mul": [[[1]]], "one": [2]}}}
    with pytest.raises(workspace.WorkspaceError, match="r"):
        workspace.parse_workspace(write(tmp_path, data))


def test_non_transitive_poset_rejected(tmp_path):
    data = minimal({"posets": {"p": {
        "elements": ["1", "2", "3"],
        "relation": [["1", "2"], ["2", "3"]],
    }}})
    with pytest.raises(workspace.WorkspaceError, match="transitive"):
        workspace.parse_workspace(write(tmp_path, data))


def test_zn_generator(tmp_path):
    ws = workspace.parse_workspace(write(tmp_path, minimal(
        {"corpora": {"c": ["zn:12"]}})))
    members = ws.corpora["c"]
    assert len(members) == 11  # n = 2 .. 12
    assert all(m.projective for m in members)
    sizes = sorted(m.module.size() for m in members)
    assert sizes == list(range(2, 13))


def test_eR_generator_includes_all_idempotent_summands(tmp_path):
    data = minimal()
    data["rings"]["ut2z2"] = {
        "moduli": [2, 2, 2],
        "mul": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        ],
        "one": [1, 0, 1],
    }
    data["corpora"] = {"c": ["eR:ut2z2"]}
    ws = workspace.parse_workspace(write(tmp_path, data))
    members = ws.corpora["c"]
    sizes = sorted(m.module.size() for m in members)
    # idempotents of UT2(Z2) give: 0, full ring, and the corner modules
    assert 1 in sizes and 8 in sizes and 4 in sizes
    assert all(m.projective for m in members)


def test_random_generator_deterministic():
    a = workspace.random_modules(25, 7, Caps())
    b = workspace.random_modules(25, 7, Caps())
    assert [(m.id, m.module) for m in a] == [(m.id, m.module) for m in b]
    c = workspace.random_modules(25, 8, Caps())
    assert [m.module for m in a] != [m.module for m in c]
    assert all(m.module.size() <= workspace.RANDOM_MODULE_SIZE_LIMIT for m in a)


def test_sums_generator(tmp_path):
    data = minimal({"corpora": {"c": ["sums:m,m"]}})
    ws = workspace.parse_workspace(write(tmp_path, data))
    assert ws.corpora["c"][0].module.size() == 36


def test_mx_generator(tmp_path):
    data = minimal({
        "posets": {"chain": {"elements": ["a", "b"], "relation": [["a", "b"]]}},
        "corpora": {"c": ["mx:chain,m"]},
    })
    ws = workspace.parse_workspace(write(tmp_path, data))
    assert ws.corpora["c"][0].module.size() == 36


def test_same_ring_families_respects_rings_and_sizes():
    members = workspace.random_modules(10, 3, Caps())
    fams = workspace.same_ring_families(members)
    for fam in fams:
        ring = fam[0].module.ring
        assert all(m.module.ring == ring for m in fam)
        total = 1
        for m in fam:
            total *= m.module.size()
        assert total <= 64


def test_witness_serialization_roundtrips_to_json():
    ws = workspace.parse_workspace(DEMO)
    m = ws.modules["e1R"]
    from endolab.modules import full_submodule, identity_hom
    payload = workspace.to_jsonable((full_submodule(m), identity_hom(m), 3, "x"))
    json.dumps(payload)  # must be serializable
    assert payload[0]["kind"] == "submodule"
    assert payload[1]["kind"] == "hom"
