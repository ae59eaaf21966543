"""CLI surface: subcommands, exit codes, JSON output."""

import json
import os

import pytest

from endolab import cli

HERE = os.path.dirname(__file__)
DEMO = os.path.join(HERE, "..", "workspaces", "demo.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", DEMO)
    assert code == 0
    assert "ok" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", DEMO, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert "e1R" in payload["modules"]


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/ws.json")
    assert code == 2
    assert "error" in err


def test_corrupted_workspace_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"rings": {"r": {"moduli": [4], "mul": [[[1]]], "one": [2]}}}',
                 encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "r" in err


def test_analyze_e1R(capsys):
    code, out, _ = run(capsys, "analyze", DEMO, "e1R")
    assert code == 0
    assert "abelian endoregular: true" in out
    assert "subdirect product of simples: false" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", DEMO, "e1R", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["end_size"] == 2
    assert payload["properties"]["abelian endoregular"]["value"] is True
    assert payload["radical_order"] == 2


def test_analyze_names_the_cap_instead_of_sentinels(tmp_path, capsys):
    ws = {
        "rings": {"z12": {"moduli": [12], "mul": [[[1]]], "one": [1]}},
        "modules": {"m": {"ring": "z12", "regular": True}},
        "caps": {"submodules": 4},
    }
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(ws), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(p), "m")
    assert code == 0
    cap = "undecided (12 module elements exceeds cap 4)"
    assert f"  |Rad| = {cap}, |Soc| = {cap}" in out.splitlines()
    assert f"  direct summands: {cap}" in out.splitlines()
    assert f"  prime submodules: {cap}" in out.splitlines()
    code, out, _ = run(capsys, "analyze", str(p), "m", "--json")
    assert code == 0
    payload = json.loads(out)
    for key in ("radical_order", "socle_order", "summand_count", "spec"):
        assert payload[key] is None


def test_analyze_unknown_id(capsys):
    code, _, err = run(capsys, "analyze", DEMO, "nope")
    assert code == 2
    assert "nope" in err


def test_incidence_command(capsys):
    code, out, _ = run(capsys, "incidence", DEMO, "diamond", "z2",
                       "--module", "z2-regular", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_pairs"] == 9
    assert payload["end_sizes"] == [2, 2]
    assert payload["isomorphic"] is True


def test_incidence_unknown_poset(capsys):
    code, _, err = run(capsys, "incidence", DEMO, "cube", "z2")
    assert code == 2
    assert "cube" in err


@pytest.mark.parametrize("caps, ring, module, message", [
    (None, "z2", "e1R", "module 'e1R' is over ring 'ut2z2', not over ring 'z2'"),
    ({"homs": 4}, "z6", "z6-regular",
     "module 'z6-regular' has 6 endomorphisms, over the homs cap 4"),
    ({"elements": 4}, "z6", "z6-regular",
     "module 'z6-regular' has 6 module elements, over the elements cap 4"),
])
def test_incidence_module_problems_are_input_errors(tmp_path, capsys, caps, ring, module, message):
    with open(DEMO, encoding="utf-8") as fh:
        ws = json.load(fh)
    # the incidence command reads no corpus, and the demo's generated corpora
    # enumerate rings that a tight elements cap refuses
    del ws["corpora"]
    if caps is not None:
        ws["caps"] = caps
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(ws), encoding="utf-8")
    code, _, err = run(capsys, "incidence", str(p), "diamond", ring, "--module", module)
    assert code == 2
    assert message in err


def test_search_small_deterministic(capsys):
    code1, out1, _ = run(capsys, "search", DEMO, "--count", "5",
                         "--seed", "11", "--json")
    code2, out2, _ = run(capsys, "search", DEMO, "--count", "5",
                         "--seed", "11", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert records
    assert all(r["status"] in ("pass", "skip") for r in records)


def test_suite_json_records_have_schema(tmp_path, capsys):
    ws = {
        "rings": {"z6": {"moduli": [6], "mul": [[[1]]], "one": [1]}},
        "modules": {"m": {"ring": "z6", "regular": True, "projective": True}},
        "corpora": {"c": ["m"]},
    }
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(ws), encoding="utf-8")
    code, out, _ = run(capsys, "suite", str(p), "--json")
    assert code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        assert {"corpus", "object", "check", "status", "detail"} <= set(rec)
        assert rec["status"] in ("pass", "fail", "skip")


def test_suite_without_corpora_is_input_error(tmp_path, capsys):
    p = tmp_path / "ws.json"
    p.write_text('{"rings": {}}', encoding="utf-8")
    code, _, err = run(capsys, "suite", str(p))
    assert code == 2


def _validate(tmp_path, capsys, ws):
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(ws), encoding="utf-8")
    return run(capsys, "validate", str(p))


@pytest.mark.parametrize("ws, message", [
    ({"rings": {"r": {"moduli": [2], "mul": [[[1]]], "one": 1}}},
     "ring r: one must be a list"),
    ({"rings": {"r": {"moduli": [2], "mul": [[1]], "one": [1]}}},
     "ring r: mul[0] rows must be a list"),
    ({"rings": []}, "rings must be an object"),
    ({"modules": {"m": {"ring": ["r"], "regular": True}}},
     "module m: ring reference must be a string"),
    ({"posets": {"p": {"elements": 5, "relation": []}}},
     "poset p: elements and relation must be lists"),
    ({"caps": {"hom": 2}},
     "caps: unknown key 'hom'; expected elements, submodules or homs"),
    ({"rings": {"r": {"moduli": [4], "mul": [[[1]]], "one": [1]}},
      "modules": {"m": {"ring": "r", "regular": "no", "moduli": [2], "action": [[[1]]]}}},
     "module m: regular must be true or false, got 'no'"),
    ({"rings": {"r": {"moduli": [4], "mul": [[[1]]], "one": [1]}},
      "modules": {"m": {"ring": "r", "regular": True, "projective": "no"}}},
     "module m: projective must be true or false, got 'no'"),
    ({"cap": {"homs": 2}},
     "workspace root: unknown key 'cap'; expected rings, modules, posets, corpora, caps or seed"),
    ({"rings": {"r": {"moduli": [2], "mul": [[[1]]], "one": [1]}},
      "modules": {"m": {"ring": "r", "regular": True, "projectve": True}}},
     "module m: unknown key 'projectve'; expected ring, regular, projective, moduli or action"),
    ({"rings": {"r": {"moduli": [2], "mul": [[[1]]], "one": [1], "ones": [1]}}},
     "ring r: unknown key 'ones'; expected moduli, mul or one"),
    ({"posets": {"p": {"elements": [], "relation": [], "order": []}}},
     "poset p: unknown key 'order'; expected elements or relation"),
    ({"caps": {"elements": 4096, "submodules": 1, "homs": 1},
      "corpora": {"c": ["random:count=3"]}},
     "random generator stalled: base modules skipped at the submodules cap 1"),
    ({"rings": {"z4": {"moduli": [4], "mul": [[[1]]], "one": [1]}},
      "caps": {"elements": 2}, "corpora": {"c": ["eR:z4"]}},
     "eR generator: ring 'z4' has 4 elements, over the elements cap 2"),
    ({"rings": {"ut": {"moduli": [2, 2, 2], "one": [1, 0, 1],
                       "mul": [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
                               [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
                               [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]}},
      "modules": {"m": {"ring": "ut", "regular": True}},
      "posets": {"p": {"elements": ["a", "b"], "relation": [["a", "b"]]}},
      "corpora": {"c": ["mx:p,m"]}},
     "mx generator: module 'm' over ring 'ut': coefficient ring is not commutative"),
    ({"rings": {"r": {"moduli": [True], "mul": [[[1]]], "one": [1]}}},
     "ring r: moduli must be a list of integers"),
    ({"rings": {"r": {"moduli": [2], "mul": [[[True]]], "one": [1]}}},
     "ring r: mul[0] rows must be a list of integers"),
    ({"rings": {"r": {"moduli": [2], "mul": [[[1]]], "one": [True]}}},
     "ring r: one must be a list of integers"),
    ({"rings": {"r": {"moduli": [2], "mul": [[[1]]], "one": [1]}},
      "modules": {"m": {"ring": "r", "moduli": [True], "action": [[[1]]]}}},
     "module m: moduli must be a list of integers"),
    ({"rings": {"r": {"moduli": [2], "mul": [[[1]]], "one": [1]}},
      "modules": {"m": {"ring": "r", "moduli": [2], "action": [[[True]]]}}},
     "module m action rows must be a list of integers"),
    ({"corpora": {"c": ["random:count=-1,seed=1"]}},
     "random generator: count must be a positive integer, got -1"),
    ({"corpora": {"c": ["random:count=0"]}},
     "random generator: count must be a positive integer, got 0"),
    ({"rings": {"z4": {"moduli": [4], "mul": [[[1]]], "one": [1]}},
      "modules": {"m": {"ring": "z4", "regular": True, "moduli": [2], "action": [[[1]]]}}},
     "module m: a regular module takes no moduli or action"),
    ({"rings": {"z4": {"moduli": [4], "mul": [[[1]]], "one": [1]}},
      "modules": {"m": {"ring": "z4", "regular": True, "action": [[[1]]]}}},
     "module m: a regular module takes no moduli or action"),
    ({"corpora": {"c": ["zn:1"]}},
     "zn generator: bound must be at least 2, got 1"),
    ({"rings": {"z2": {"moduli": [2], "mul": [[[1]]], "one": [1]}},
      "modules": {"m": {"ring": "z2", "moduli": [4], "action": [[[1]]]}}},
     "module m: action[0]: not annihilated by the order 2 of b_0"),
])
def test_malformed_workspace_shapes_are_input_errors(tmp_path, capsys, ws, message):
    code, _, err = _validate(tmp_path, capsys, ws)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_random_option_without_value_is_input_error(tmp_path, capsys):
    code, _, err = _validate(tmp_path, capsys, {"corpora": {"c": ["random:count"]}})
    assert code == 2
    assert "random generator: bad option 'count'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_search_non_positive_count_is_input_error(capsys, count):
    code, out, err = run(capsys, "search", DEMO, "--count", count)
    assert code == 2
    assert f"random generator: count must be a positive integer, got {count}" in err
    assert "passed" not in out
    assert "Traceback" not in err


def test_non_positive_cap_is_input_error(tmp_path, capsys):
    code, _, err = _validate(tmp_path, capsys, {"caps": {"homs": -5}})
    assert code == 2
    assert "caps: homs must be a positive integer" in err
    assert "Traceback" not in err
