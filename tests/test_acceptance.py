"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
enforces its stated time budget.  Undecided verdicts under the default caps
are counted as loud skips and never as passes.
"""

import itertools
import json
import time

import pytest

from endolab import incidence, lab, modules, rings, workspace
from endolab.verdicts import Caps, InternalInconsistency

CAPS = Caps()


def announce(number, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: acceptance {number} {detail}".rstrip()
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared corpus: Z/n (n <= 30), idempotent summands of three 2x2 rings,
# and direct sums of two same-ring members.
# ---------------------------------------------------------------------------


def ut2(modulus):
    return rings.matrix_ring_presentation(2, modulus, upper_triangular=True)


@pytest.fixture(scope="module")
def corpus():
    members = [
        lab.CorpusMember(f"z{n}", modules.regular_module(rings.zmod_ring(n),
                                                         name=f"Z/{n}"),
                         projective=True)
        for n in range(2, 31)
    ]
    base_rings = {
        "ut2z2": ut2(2),
        "ut2z4": ut2(4),
        "mat2z2": rings.matrix_ring_presentation(2, 2),
    }
    er_members = []
    for rid, ring in base_rings.items():
        er_members.extend(workspace.idempotent_summands(rid, ring, CAPS))
    members.extend(er_members)

    singles = list(members)
    pair_members = []
    seen = set()
    for a, b in itertools.combinations_with_replacement(singles, 2):
        if a.module.ring != b.module.ring:
            continue
        total, _, _ = modules.direct_sum([a.module, b.module])
        if total in seen:
            continue
        seen.add(total)
        pair_members.append(
            lab.CorpusMember(f"{a.id}+{b.id}", total,
                             projective=a.projective and b.projective))
    return members + pair_members


@pytest.fixture(scope="module")
def e1R():
    reg = modules.regular_module(ut2(2), name="UT2Z2")
    inner, _ = modules.extract(modules.submodule_generated(reg, [(1, 0, 0)]))
    return inner


@pytest.fixture(scope="module")
def plane():
    z2 = rings.zmod_ring(2)
    m, _, _ = modules.direct_sum([modules.regular_module(z2)] * 2)
    return m


def test_acceptance_1_corner_module_regression(e1R):
    start = time.time()
    from endolab.homs import end_ring

    end_size = end_ring(e1R).size()
    abelian = lab.is_abelian_endoregular(e1R, CAPS)
    rad = modules.radical(e1R, CAPS.submodules)
    subdirect = lab.is_subdirect_of_simples(e1R, CAPS)
    elapsed = time.time() - start
    ok = (end_size == 2 and abelian.value is True and not rad.is_zero()
          and subdirect.value is False and elapsed < 1.0)
    announce(1, ok,
             f"(|End|={end_size}, abelian={abelian.value}, |Rad|={rad.order()}, "
             f"subdirect={subdirect.value}, {elapsed:.2f}s)")


def test_acceptance_2_diamond_incidence(capfd):
    start = time.time()
    diamond = incidence.preorder_from_pairs(
        ["1", "2", "3", "4"],
        [("1", "2"), ("1", "3"), ("1", "4"), ("2", "4"), ("3", "4")],
    )
    z2 = rings.zmod_ring(2)
    bundle = incidence.build_incidence_algebra(diamond, z2)
    expected_pairs = {(0, 0), (0, 1), (0, 2), (0, 3),
                      (1, 1), (1, 3), (2, 2), (2, 3), (3, 3)}
    report = incidence.incend_check(modules.regular_module(z2), bundle)
    elapsed = time.time() - start
    ok = (set(bundle.pair_index) == expected_pairs
          and len(bundle.pair_index) == 9
          and report.isomorphic
          and report.left_size == report.right_size == 2
          and elapsed < 1.0)
    announce(2, ok, f"(9 pairs, End sizes {report.left_size}/{report.right_size}, "
                    f"{elapsed:.2f}s)")


def test_acceptance_3_azumaya_equivalence(corpus):
    start = time.time()
    disagreements = 0
    skips = 0
    for mem in corpus:
        v = lab.azumaya_agreement(mem.module, CAPS)
        if v.value is False:
            disagreements += 1
            print(f"  disagreement on {mem.id}: {v.reason}")
        elif v.value is None:
            skips += 1
    elapsed = time.time() - start
    ok = disagreements == 0 and elapsed < 300
    announce(3, ok, f"({len(corpus)} members, {skips} cap skips, "
                    f"0 disagreements required, {elapsed:.1f}s < 300s)")


def test_acceptance_4_abelian_route_agreement(corpus):
    disagreements = 0
    skips = 0
    for mem in corpus:
        try:
            v = lab.check_route_agreement(mem.module, CAPS)
        except InternalInconsistency as exc:
            disagreements += 1
            print(f"  route disagreement on {mem.id}: {exc}")
            continue
        if v.value is False:
            disagreements += 1
            print(f"  route disagreement on {mem.id}: {v.reason}")
        elif v.value is None:
            skips += 1
    announce(4, disagreements == 0,
             f"({len(corpus)} members, {skips} cap skips, 0 disagreements)")


def test_acceptance_5_five_way_agreement(corpus, plane):
    disagreements = 0
    skips = 0
    checked = 0
    for mem in corpus:
        endo = lab.is_endoregular(mem.module, CAPS)
        if endo.value is not True:
            continue
        checked += 1
        conditions = lab.five_way_conditions(mem.module, CAPS)
        decided = [v.value for v in conditions if v.decided]
        if len(set(decided)) > 1:
            disagreements += 1
            print(f"  five-way split on {mem.id}: {decided}")
        if len(decided) < 5:
            skips += 1
    negative_ok = all(v.value is False for v in lab.five_way_conditions(plane, CAPS))
    announce(5, disagreements == 0 and negative_ok,
             f"({checked} endoregular members, {skips} partial, "
             f"negative instance all-false={negative_ok})")


def test_acceptance_6_consequence_suites(corpus):
    checks = (
        ("endoregular-implies-ssp-sip",
         lambda mem: lab.check_ssp_sip(mem.module, CAPS)),
        ("generated-iff-summand",
         lambda mem: lab.check_generated_iff_summand(mem.module, CAPS)),
        ("summands-inherit-abelian",
         lambda mem: lab.check_summands_inherit(mem.module, CAPS)),
        ("subdirect-characterization",
         lambda mem: lab.check_subdirect_characterization(
             mem.module, CAPS, mem.projective)),
        ("prime-iff-maximal",
         lambda mem: lab.check_prime_iff_maximal(mem.module, CAPS)
         if mem.projective else None),
    )
    violations = 0
    skips = 0
    for mem in corpus:
        for name, fn in checks:
            v = fn(mem)
            if v is None:
                continue
            if v.value is False:
                violations += 1
                print(f"  violation {name} on {mem.id}: {v.reason}")
            elif v.value is None:
                skips += 1
    # direct-sum characterization over families of <= 3 small members
    small = [m for m in corpus if m.module.size() <= 8 and "+" not in m.id]
    families = workspace.same_ring_families(small)
    for fam in families:
        v = lab.check_direct_sum_family(fam, CAPS)
        if v.value is False:
            violations += 1
            print("  sum-family violation:", "+".join(m.id for m in fam), v.reason)
        elif v.value is None:
            skips += 1
    announce(6, violations == 0,
             f"({len(corpus)} members + {len(families)} families, "
             f"{skips} cap skips, 0 violations)")


def test_acceptance_7_prime_semiprime_z12():
    m = modules.regular_module(rings.zmod_ring(12), name="Z/12")
    sub = lambda k: modules.submodule_generated(m, [(k,)])
    spec = sorted(p.gens for p in lab.spec_of(m, CAPS))
    spec_ok = spec == sorted([sub(2).gens, sub(3).gens])
    v = lab.is_semiprime_in(sub(4), CAPS)
    witness_ok = v.value is False and v.witness.gens == sub(2).gens
    announce(7, spec_ok and witness_ok,
             f"(Spec={{<2>,<3>}}: {spec_ok}, <4> witness <2>: {witness_ok})")


def test_acceptance_8_random_search_deterministic():
    start = time.time()
    members = workspace.random_modules(1000, 7, CAPS)

    def run():
        report = lab.theorem_suites(members, CAPS)
        return [json.dumps(workspace.record_to_json(r), sort_keys=True)
                for r in report.records]

    stream1 = run()
    stream2 = run()
    failures = sum(1 for line in stream1 if '"status": "fail"' in line)
    skips = sum(1 for line in stream1 if '"status": "skip"' in line)
    elapsed = time.time() - start
    ok = (len(members) == 1000 and failures == 0 and stream1 == stream2
          and elapsed < 600)
    announce(8, ok, f"(1000 modules, 0 failures, {skips} skips, "
                    f"bit-identical rerun, {elapsed:.1f}s < 600s)")
