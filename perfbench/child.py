"""One timed pass of a workload in a fresh interpreter.

Usage: python3 child.py '<spec json>'

The spec names the checkout root, the workload, the module seed and, for a
traced pass, the file the raw spans go to.  The pass sets up exactly what
the matching ``endolab`` subcommand sets up, decides every object in corpus
order (the order the CLI uses) and prints one JSON line: the monotonic time
at which set-up ended, each object's time (deciding it and serialising its
records), the reference times (see reference.py), the SHA-256 of the record
stream, the verdict counts and the peak RSS.  Because every pass starts with cold module-level
caches, the memo work inside the library is timed on every pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import reference_seconds  # noqa: E402
from workloads import KNOWN_ANSWERS, WORKLOADS  # noqa: E402


def setup(spec: dict, workspace) -> tuple[list, object]:
    """Objects to decide, in corpus order: (id, kind, corpus, payload)."""
    wl = WORKLOADS[spec["workload"]]
    ws = workspace.parse_workspace(os.path.join(HERE, wl["workspace"]))
    objects = []
    if spec["workload"] == "families":
        for name, members in ws.corpora.items():
            objects += [(m.id, "member", name, m) for m in members]
            for fam in workspace.same_ring_families(members):
                objects.append(("+".join(m.id for m in fam), "family", name, fam))
    elif spec["workload"] == "search":
        seed = spec["module_seed"]
        members = workspace.random_modules(wl["count"], seed, ws.caps)
        objects = [(m.id, "member", f"random-{seed}", m) for m in members]
    else:
        objects = [(m.module.name, "analyze", "", m) for m in ws.corpora["end-rings"]]
    return objects, ws.caps


def analyze_payload(lab, workspace, module_id, module, caps) -> tuple[dict, list]:
    """The `endolab analyze --json` payload and its verdicts."""
    report = lab.analyze(module_id, module, caps)
    payload = {
        "module": report.module_id,
        "end_size": report.end_size,
        "radical_order": report.radical_order,
        "socle_order": report.socle_order,
        "summand_count": report.summand_count,
        "spec": [workspace.to_jsonable(p) for p in report.spec],
        "properties": {
            k: {"value": v.value, "detail": v.reason,
                "witness": workspace.to_jsonable(v.witness)}
            for k, v in report.properties.items()
        },
        "routes": {k: v.value for k, v in report.routes.items()},
    }
    verdicts = [v.value for v in report.properties.values()]
    verdicts += [v.value for v in report.routes.values()]
    return payload, verdicts


def known_answer_failures(payload: dict) -> list[str]:
    """Decided answers that contradict the hand-written known answers."""
    expected = KNOWN_ANSWERS.get(payload["module"], {})
    bad = []
    for key, want in expected.items():
        got = payload["end_size"] if key == "end_size" else payload["properties"][key]["value"]
        if got is not None and got != want:
            bad.append(f"{payload['module']}: {key} = {got}, expected {want}")
    return bad


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from endolab import lab, workspace
    from endolab.verdicts import InternalInconsistency

    tracer = None
    if spec.get("trace_out"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    objects, caps = setup(spec, workspace)
    ready = time.monotonic()
    if spec.get("setup_only"):
        print(json.dumps({"ready": ready}))
        return 0

    # Reference times: one before the first object, then one after every
    # object, so that object i ran between refs[i] and refs[i + 1].
    refs = [reference_seconds()]

    lines: list[list[str]] = [[] for _ in objects]
    times: list[float] = [0.0] * len(objects)
    verdicts: list = []
    fails = 0
    known_bad: list[str] = []
    inconsistent: list[str] = []
    for i, (obj_id, kind, corpus, payload) in enumerate(objects):
        if tracer is not None:
            tracer.object_id = obj_id
        t0 = time.perf_counter()
        try:
            if kind == "analyze":
                out, vs = analyze_payload(lab, workspace, obj_id, payload.module, caps)
                lines[i] = [json.dumps(out, ensure_ascii=False) + "\n"]
                verdicts += vs
                known_bad += known_answer_failures(out)
            else:
                report = (lab.theorem_suites([payload], caps) if kind == "member"
                          else lab.theorem_suites([], caps, families=[payload]))
                for r in report.records:
                    lines[i].append(json.dumps({"corpus": corpus, **workspace.record_to_json(r)},
                                               ensure_ascii=False) + "\n")
                    verdicts.append(None if r.status == "skip" else r.status)
                    fails += r.status == "fail"
        except InternalInconsistency as exc:
            inconsistent.append(f"{obj_id}: {exc}")
        times[i] = time.perf_counter() - t0
        refs.append(reference_seconds())
    digest = hashlib.sha256("".join(x for ls in lines for x in ls).encode("utf-8")).hexdigest()

    result = {
        "ready": ready,
        "ref_s": refs,
        "objects": [[o[0], t] for o, t in zip(objects, times)],
        "hash": digest,
        "verdicts": len(verdicts),
        "decided": sum(v is not None for v in verdicts),
        "fail_records": fails,
        "known_answer_failures": known_bad,
        "internal_inconsistencies": inconsistent,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
