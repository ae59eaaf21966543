"""Workspace files: named rings, modules and posets in JSON, corpus
generator specs, and serialization of results back to JSON.

A workspace validates completely before anything runs; a bad reference or a
failed axiom is reported with the offending name.  Generators are seeded and
produce identical corpora on identical inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from . import incidence, rings
from .lab import CorpusMember, ResultRecord
from .modules import (
    FiniteModule,
    ModuleHom,
    Submodule,
    direct_sum,
    enumerate_submodules,
    extract,
    quotient,
    regular_module,
    submodule_generated,
    validate_module,
)
from .rings import FiniteRing, RingElement, validate_ring
from .verdicts import CapExceeded, Caps

RANDOM_MODULE_SIZE_LIMIT = 64
# Largest direct sum that same_ring_families pairs or triples members into.
FAMILY_SIZE_LIMIT = 64


class WorkspaceError(ValueError):
    """A schema violation or broken reference in a workspace file."""


@dataclass
class Workspace:
    rings: dict[str, FiniteRing]
    modules: dict[str, FiniteModule]
    posets: dict[str, incidence.Preorder]
    projective: dict[str, bool]
    corpora: dict[str, list[CorpusMember]]
    caps: Caps
    seed: int

    def member(self, module_id: str) -> CorpusMember:
        if module_id not in self.modules:
            raise WorkspaceError(f"unknown module id: {module_id}")
        return CorpusMember(
            module_id, self.modules[module_id], self.projective.get(module_id, False)
        )


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise WorkspaceError(msg)


def _known_keys(data: dict, allowed: Sequence[str], what: str) -> None:
    expected = ", ".join(allowed[:-1]) + " or " + allowed[-1]
    for key in data:
        _require(key in allowed, f"{what}: unknown key {key!r}; expected {expected}")


def _int_list(data: Any, what: str) -> tuple[int, ...]:
    _require(isinstance(data, list) and all(type(v) is int for v in data),
             f"{what} must be a list of integers")
    return tuple(data)


def _int_matrix(data: Any, what: str) -> tuple[tuple[int, ...], ...]:
    _require(isinstance(data, list), f"{what} must be a list of rows")
    return tuple(_int_list(r, f"{what} rows") for r in data)


def parse_ring(name: str, data: Any) -> FiniteRing:
    _require(isinstance(data, dict), f"ring {name}: expected an object")
    _known_keys(data, ("moduli", "mul", "one"), f"ring {name}")
    _require("moduli" in data and "mul" in data and "one" in data,
             f"ring {name}: needs moduli, mul, one")
    moduli = _int_list(data["moduli"], f"ring {name}: moduli")
    _require(all(c > 1 for c in moduli), f"ring {name}: moduli must be integers > 1")
    k = len(moduli)
    mul_raw = data["mul"]
    _require(isinstance(mul_raw, list) and len(mul_raw) == k,
             f"ring {name}: mul must have one row per basis element")
    mul = tuple(_int_matrix(row, f"ring {name}: mul[{i}]") for i, row in enumerate(mul_raw))
    one = _int_list(data["one"], f"ring {name}: one")
    ring = FiniteRing(moduli=moduli, mul=mul, one=one, name=name)
    ok, msg = validate_ring(ring)
    _require(ok, f"ring {name}: {msg}")
    return ring


def parse_module(
    name: str, data: Any, known_rings: dict[str, FiniteRing]
) -> FiniteModule:
    _require(isinstance(data, dict), f"module {name}: expected an object")
    _known_keys(data, ("ring", "regular", "projective", "moduli", "action"), f"module {name}")
    _require("ring" in data, f"module {name}: needs a ring reference")
    ring_id = data["ring"]
    _require(isinstance(ring_id, str), f"module {name}: ring reference must be a string")
    _require(ring_id in known_rings, f"module {name}: unknown ring {ring_id!r}")
    ring = known_rings[ring_id]
    for flag in ("regular", "projective"):
        _require(type(data.get(flag, False)) is bool,
                 f"module {name}: {flag} must be true or false, got {data.get(flag)!r}")
    if data.get("regular"):
        _require("moduli" not in data and "action" not in data,
                 f"module {name}: a regular module takes no moduli or action")
        return regular_module(ring, name=name)
    _require("moduli" in data and "action" in data,
             f"module {name}: needs moduli and action")
    moduli = _int_list(data["moduli"], f"module {name}: moduli")
    _require(isinstance(data["action"], list), f"module {name}: action must be a list of matrices")
    action = tuple(_int_matrix(mat, f"module {name} action") for mat in data["action"])
    m = FiniteModule(ring=ring, moduli=moduli, action=action, name=name)
    ok, msg = validate_module(m)
    _require(ok, f"module {name}: {msg}")
    return m


def parse_poset(name: str, data: Any) -> incidence.Preorder:
    _require(isinstance(data, dict), f"poset {name}: expected an object")
    _known_keys(data, ("elements", "relation"), f"poset {name}")
    _require("elements" in data and "relation" in data,
             f"poset {name}: needs elements and relation")
    _require(isinstance(data["elements"], list) and isinstance(data["relation"], list),
             f"poset {name}: elements and relation must be lists")
    elements = [str(e) for e in data["elements"]]
    pairs = []
    for p in data["relation"]:
        _require(isinstance(p, list) and len(p) == 2,
                 f"poset {name}: relation entries must be pairs")
        pairs.append((str(p[0]), str(p[1])))
    try:
        return incidence.preorder_from_pairs(elements, pairs)
    except ValueError as exc:
        raise WorkspaceError(f"poset {name}: {exc}") from exc


def parse_workspace(path: str) -> Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise WorkspaceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "workspace root must be an object")
    _known_keys(data, ("rings", "modules", "posets", "corpora", "caps", "seed"), "workspace root")

    for section in ("rings", "modules", "posets", "corpora", "caps"):
        _require(isinstance(data.get(section, {}), dict), f"{section} must be an object")
    caps_raw = data.get("caps", {})
    _known_keys(caps_raw, ("elements", "submodules", "homs"), "caps")
    caps = Caps(**caps_raw)
    for key, value in vars(caps).items():
        _require(type(value) is int and value > 0,
                 f"caps: {key} must be a positive integer, got {value!r}")
    seed = data.get("seed", 0)
    _require(type(seed) is int, "seed must be an integer")

    known_rings = {}
    for name, spec in data.get("rings", {}).items():
        known_rings[name] = parse_ring(name, spec)
    known_modules = {}
    projective = {}
    for name, spec in data.get("modules", {}).items():
        known_modules[name] = parse_module(name, spec, known_rings)
        projective[name] = spec.get("projective", False)
    posets = {}
    for name, spec in data.get("posets", {}).items():
        posets[name] = parse_poset(name, spec)

    ws = Workspace(
        rings=known_rings,
        modules=known_modules,
        posets=posets,
        projective=projective,
        corpora={},
        caps=caps,
        seed=seed,
    )
    for name, entries in data.get("corpora", {}).items():
        _require(isinstance(entries, list), f"corpus {name}: expected a list")
        members: list[CorpusMember] = []
        for entry in entries:
            members.extend(expand_corpus_entry(ws, name, entry))
        ws.corpora[name] = members
    return ws


# ---------------------------------------------------------------------------
# Corpus generators
# ---------------------------------------------------------------------------


def expand_corpus_entry(ws: Workspace, corpus: str, entry: Any) -> list[CorpusMember]:
    if isinstance(entry, str) and ":" not in entry:
        return [ws.member(entry)]
    if isinstance(entry, str):
        kind, _, arg = entry.partition(":")
        return generate(ws, kind, arg)
    raise WorkspaceError(f"corpus {corpus}: bad entry {entry!r}")


def generate(ws: Workspace, kind: str, arg: str) -> list[CorpusMember]:
    if kind == "zn":
        try:
            top = int(arg)
        except ValueError:
            raise WorkspaceError(f"zn generator: bad bound {arg!r}") from None
        _require(top >= 2, f"zn generator: bound must be at least 2, got {top}")
        return [
            CorpusMember(f"zn-{n}", regular_module(rings.zmod_ring(n), name=f"Z/{n}"),
                         projective=True)
            for n in range(2, top + 1)
        ]
    if kind == "eR":
        _require(arg in ws.rings, f"eR generator: unknown ring {arg!r}")
        try:
            return idempotent_summands(arg, ws.rings[arg], ws.caps)
        except CapExceeded as exc:
            raise WorkspaceError(
                f"eR generator: ring {arg!r} has {exc.total} elements, "
                f"over the elements cap {exc.cap}"
            ) from None
    if kind == "sums":
        ids = [s.strip() for s in arg.split(",") if s.strip()]
        _require(1 < len(ids) <= 3, "sums generator: needs 2 or 3 module ids")
        parts = [ws.member(i) for i in ids]
        base = parts[0].module.ring
        _require(all(p.module.ring == base for p in parts),
                 "sums generator: modules must share a ring")
        total, _, _ = direct_sum([p.module for p in parts])
        return [CorpusMember("sum-" + "+".join(ids), total,
                             projective=all(p.projective for p in parts))]
    if kind == "mx":
        names = [s.strip() for s in arg.split(",")]
        _require(len(names) == 2, "mx generator: needs poset,module")
        poset_id, module_id = names
        _require(poset_id in ws.posets, f"mx generator: unknown poset {poset_id!r}")
        mem = ws.member(module_id)
        try:
            bundle = incidence.build_incidence_algebra(ws.posets[poset_id], mem.module.ring)
        except incidence.NonCommutativeBase as exc:
            raise WorkspaceError(
                f"mx generator: module {module_id!r} over ring {mem.module.ring.name!r}: {exc}"
            ) from None
        mx = incidence.build_mx(mem.module, bundle)
        return [CorpusMember(f"mx-{poset_id}-{module_id}", mx)]
    if kind == "random":
        opts = {"count": 10, "seed": ws.seed}
        for part in filter(None, arg.split(",")):
            key, _, value = part.partition("=")
            try:
                if key not in opts:
                    raise ValueError(key)
                opts[key] = int(value)
            except ValueError:
                raise WorkspaceError(
                    f"random generator: bad option {part!r}; expected count=N or seed=N"
                ) from None
        return random_modules(opts["count"], opts["seed"], ws.caps)
    raise WorkspaceError(f"unknown generator kind {kind!r}")


def idempotent_summands(ring_id: str, ring: FiniteRing, caps: Caps) -> list[CorpusMember]:
    """One module eR per idempotent e, extracted from the regular module."""
    reg = regular_module(ring, name=ring.name or ring_id)
    out = []
    for k, e in enumerate(rings.idempotents(ring, caps.elements)):
        sub = submodule_generated(reg, [e.coords])
        inner, _ = extract(sub)
        out.append(CorpusMember(f"eR-{ring_id}-{k}", inner, projective=True))
    return out


# Rings of at most 64 elements used by the random module generator.
RANDOM_RING_POOL: tuple[FiniteRing, ...] = (
    *(rings.zmod_ring(n) for n in range(2, 17)),
    *(rings.product_ring(rings.zmod_ring(a), rings.zmod_ring(b), name=f"Z/{a}xZ/{b}")
      for a in (2, 3, 4) for b in (2, 3, 4) if a * b <= 16),
    rings.matrix_ring_presentation(2, 2, upper_triangular=True),
    rings.matrix_ring_presentation(2, 2),
    rings.matrix_ring_presentation(2, 4, upper_triangular=True),
)


def random_modules(count: int, seed: int, caps: Caps) -> list[CorpusMember]:
    """Deterministic stream of small modules: random sub or quotient shapes
    of small free modules over a fixed ring pool."""
    _require(count >= 1, f"random generator: count must be a positive integer, got {count}")
    rng = random.Random(seed)
    out: list[CorpusMember] = []
    attempts = 0
    cap_hit: Optional[CapExceeded] = None
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count:
            if cap_hit is not None:
                raise WorkspaceError(
                    f"random generator stalled: base modules skipped at the submodules "
                    f"cap {caps.submodules} ({cap_hit})"
                )
            raise WorkspaceError("random generator stalled; loosen the size limit")
        ring = rng.choice(RANDOM_RING_POOL)
        reg = regular_module(ring, name=ring.name)
        copies = 1 if reg.size() ** 2 > RANDOM_MODULE_SIZE_LIMIT else rng.choice([1, 2])
        base, _, _ = direct_sum([reg] * copies) if copies > 1 else (reg, None, None)
        if base.size() > RANDOM_MODULE_SIZE_LIMIT:
            continue
        try:
            subs = enumerate_submodules(base, caps.submodules)
        except CapExceeded as exc:
            cap_hit = exc
            continue
        sub = subs[rng.randrange(len(subs))]
        mode = rng.choice(["sub", "quot"])
        if mode == "sub":
            m, _ = extract(sub)
        else:
            m, _ = quotient(base, sub)
        if m.size() > RANDOM_MODULE_SIZE_LIMIT:
            continue
        out.append(CorpusMember(f"random-{seed}-{len(out)}", m))
    return out


def same_ring_families(members: Sequence[CorpusMember]) -> list[tuple[CorpusMember, ...]]:
    """Pairs and triples of same-ring members whose direct sum stays small."""
    fams: list[tuple[CorpusMember, ...]] = []
    for i, a in enumerate(members):
        for j in range(i, len(members)):
            b = members[j]
            if a.module.ring != b.module.ring:
                continue
            if a.module.size() * b.module.size() > FAMILY_SIZE_LIMIT:
                continue
            fams.append((a, b))
            for k in range(j, len(members)):
                c = members[k]
                if c.module.ring != a.module.ring:
                    continue
                if a.module.size() * b.module.size() * c.module.size() > FAMILY_SIZE_LIMIT:
                    continue
                fams.append((a, b, c))
    return fams


# ---------------------------------------------------------------------------
# Serialization back to JSON
# ---------------------------------------------------------------------------


def ring_to_json(r: FiniteRing) -> dict:
    return {
        "name": r.name,
        "moduli": list(r.moduli),
        "mul": [[list(cell) for cell in row] for row in r.mul],
        "one": list(r.one),
    }


def module_to_json(m: FiniteModule) -> dict:
    return {
        "name": m.name,
        "ring": ring_to_json(m.ring),
        "moduli": list(m.moduli),
        "action": [[list(row) for row in mat] for mat in m.action],
    }


def to_jsonable(obj: Any) -> Any:
    """Self-contained JSON form of witnesses: a replayable bundle."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, FiniteModule):
        return {"kind": "module", **module_to_json(obj)}
    if isinstance(obj, FiniteRing):
        return {"kind": "ring", **ring_to_json(obj)}
    if isinstance(obj, Submodule):
        return {
            "kind": "submodule",
            "ambient": module_to_json(obj.ambient),
            "gens": [list(g) for g in obj.gens],
        }
    if isinstance(obj, ModuleHom):
        return {
            "kind": "hom",
            "domain": module_to_json(obj.domain),
            "codomain": module_to_json(obj.codomain),
            "matrix": [list(row) for row in obj.matrix],
        }
    if isinstance(obj, RingElement):
        return {"kind": "ring element", "coords": list(obj.coords),
                "ring": ring_to_json(obj.ring)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return repr(obj)


def record_to_json(r: ResultRecord) -> dict:
    out = {
        "object": r.object_id,
        "check": r.check_id,
        "status": r.status,
        "detail": r.detail,
    }
    if r.witness is not None:
        out["witness"] = to_jsonable(r.witness)
    return out
