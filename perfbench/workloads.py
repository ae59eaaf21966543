"""Workload definitions, known answers and the matching CLI invocations.

Every workload's input is fixed, so runs with different ``--seed`` values
measure the same work (the seed only fixes each child's string-hash seed).
Why each input was chosen:

- ``families``: ``suite`` over Z/n (n <= 6) and its same-ring direct-sum
  families.  The same factors are re-decided in every family, so cross-call
  reuse and ``summand_test`` on sums show here.
- ``search``: ``search`` over the first 40 seeded random modules of order
  <= 64 (module seed 7, the gate seed).  Every module is distinct and checked
  once, so per-module ``hom_group``/``end_ring`` construction and submodule
  enumeration are paid every time and cross-object reuse helps little.
- ``end-rings``: ``analyze`` (the report path ``suite`` never takes) over
  modules whose End rings go from |End| = 2 past the hom cap ((Z/3)^3,
  |End| = 19683), with hand-written known answers.  The 512..4096 band is
  left to ``families`` ((Z/5)^2 and (Z/6)^2 appear there as sums) to keep
  enough passes in a run.
"""

from __future__ import annotations

# Module seed of `search` that gates changes.  Seed 11 is held out for
# validating a claim on inputs it was not tuned on (run with --module-seed 11;
# one pass takes about 30 s there).  Both streams are in baseline.json.
GATE_SEED = 7

WORKLOADS = {
    "families": {"workspace": "workspaces/families.json"},
    "search": {"workspace": "workspaces/search.json", "count": 40},
    "end-rings": {"workspace": "workspaces/end-rings.json"},
}


def cli_invocations(workload: str, workspace_path: str, module_seed: int,
                    object_ids: list[str]) -> list[list[str]]:
    """Arguments of the `endolab` runs whose concatenated stdout must equal
    the benchmark's record stream."""
    if workload == "families":
        return [["suite", workspace_path, "--json"]]
    if workload == "search":
        count = WORKLOADS["search"]["count"]
        return [["search", workspace_path, "--count", str(count),
                 "--seed", str(module_seed), "--json"]]
    return [["analyze", workspace_path, obj, "--json"] for obj in object_ids]


def _power(p: int, k: int) -> dict:
    """End((Z/p)^k) = M_k(F_p): |End| = p^(k^2), regular and unit-regular,
    abelian iff k = 1."""
    return {"end_size": p ** (k * k), "endoregular": True,
            "unit endoregular": True, "abelian endoregular": k == 1}


# Taken from the mathematics, not from the program.  End_R(R_R) = R, Z/n is
# von Neumann regular (and then abelian regular) iff n is squarefree, and the
# tuple module of Z/2 over the diamond has End = F_2.
KNOWN_ANSWERS = {
    "(Z/2)^2": _power(2, 2),
    "(Z/3)^2": _power(3, 2),
    "(Z/3)^3": _power(3, 3),
    "M2(Z/2)": {"end_size": 16, "endoregular": True, "unit endoregular": True,
                "abelian endoregular": False},
    "UT2(Z/4)": {"end_size": 64, "endoregular": False, "abelian endoregular": False},
    "Z/30": {"end_size": 30, "endoregular": True, "abelian endoregular": True},
    "Z/60": {"end_size": 60, "endoregular": False, "abelian endoregular": False},
    "Z/2(X)": {"end_size": 2, "endoregular": True, "unit endoregular": True,
               "abelian endoregular": True},
}
