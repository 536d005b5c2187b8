"""Re-check a trace document from the document alone, with no ksgeom rule code.

    PYTHONPATH=src python tests/trace_check.py TRACE [SYSTEM K]

prints TRACE's fact counts by rule and exits 1 at a bad eps, its first bad
branch, fact, split, instance or leaf, or a rule with no fact (a ks demo
trace uses all five). Given SYSTEM and K, ksgeom's core-enumeration oracle
must then refute SYSTEM over the 2^K cases of TRACE's split members and images.
"""

import json
import sys
from pathlib import Path


class Rejected(Exception):
    """The first bad part of a document: its kind and index."""

    def __init__(self, kind, index, why):
        super().__init__(f"{kind} {index} {why}")
        self.kind, self.index = kind, index


def _need(ok, kind, index, why):
    if not ok:
        raise Rejected(kind, index, why)


def _index(x, n):
    return type(x) is int and 0 <= x < n


def check_trace(doc):
    """(fact counts by rule, ray ids of the split members and their instance images)."""
    facts, rays, branches, eps = doc["facts"], doc["rays"], doc["branches"], doc["eps"]
    nf, nb = len(facts), len(branches)
    _need(type(eps) is float and 0.0 < eps < 1e-3, "eps", eps, "is not in (0, 1e-3)")

    def orthogonal(*ids):  # pairwise, within eps
        return all(abs(sum(a * b for a, b in zip(rays[i], rays[j]))) <= eps
                   for n, i in enumerate(ids) for j in ids[n + 1:])

    scopes = []  # a branch's scope: itself and its ancestors, which come before it
    for b, node in enumerate(branches):
        up = node["parent"]
        _need(node["idx"] == b and (_index(up, b) and b in (branches[up]["children"] or ()) if b
                                    else (up, node["assumption"]) == (None, None)),
              "branch", b, "is not a child of an earlier branch")
        scopes.append({b, *(scopes[up] if b else ())})
    # a fact has five keys and cites earlier facts in its scope; a circle
    # step's 1 is on its q circle's pole, by triad_one or a split
    counts = dict.fromkeys("assume orthogonal_zero circle_zero lemma_zero triad_one".split(), 0)
    for fid, f in enumerate(facts):
        _need(list(f) == ["ray", "value", "rule", "premises", "branch"],
              "fact", fid, "has other keys")
        ray, value, rule, prem, home = f.values()
        _need(rule in counts and _index(ray, len(rays)) and _index(home, nb) and all(
            _index(p, fid) and facts[p]["branch"] in scopes[home] for p in prem),
            "fact", fid, "is malformed or cites a fact not earlier in its scope")
        got = [facts[p] for p in prem]
        if rule == "assume":
            _need(not got and branches[home]["assumption"] == fid, "fact", fid, "is a free assume")
        elif rule == "triad_one":
            _need(value == 1 and [p["value"] for p in got] == [0, 0]
                  and orthogonal(got[0]["ray"], got[1]["ray"], ray), "fact", fid, "is no tripod")
        else:
            _need(value == 0 and [p["value"] for p in got] == [1] and orthogonal(got[0]["ray"], ray)
                  and (rule == "orthogonal_zero" or got[0]["rule"] in ("triad_one", "assume")),
                  "fact", fid, "is no zero against its one 1")
        counts[rule] += 1
    for b, node in enumerate(branches):  # a split's two children assume its ray at 0, then 1
        m, kids = node["split"], node["children"] or []
        assumed = [facts[branches[c]["assumption"]] for c in kids if _index(c, nb)
                   and branches[c]["parent"] == b and _index(branches[c]["assumption"], nf)]
        _need((m is None) == (len(kids) != 2) and [(a["rule"], a["ray"], a["value"], a["branch"])
              for a in assumed] == [("assume", m, v, c) for v, c in enumerate(kids)],
              "split", b, "is not assumed at 0 and then at 1 by its two children")
    # an instance maps its body's rays, in first-use order, to images where every step holds
    instances = doc["instances"]
    sources, held = ({i.get(key) for i in instances} for key in ("source", "branch"))
    members = dict.fromkeys(n["split"] for n in branches if n["split"] is not None)
    for k, inst in enumerate(instances):
        _need(list(inst) == ["branch", "source", "pole_fact", "map"] and _index(inst["source"], nb)
              and _index(inst["branch"], nb) and _index(inst["pole_fact"], nf),
              "instance", k, "has other keys or an index out of range")
        src, leaf, pole = inst["source"], inst["branch"], facts[inst["pole_fact"]]
        body = [fid for fid, f in enumerate(facts) if src in scopes[f["branch"]]]
        inside, order = set(body), list(dict.fromkeys(facts[fid]["ray"] for fid in body))
        at, seed = dict(zip(order, inst["map"])), src and facts[branches[src]["assumption"]]
        _need(len(order) == len(inst["map"]) and all(_index(j, len(rays)) for j in inst["map"])
              and seed and (seed["value"], rays[seed["ray"]]) == (1, [0.0, 0.0, 1.0])
              and not branches[leaf]["children"] and not sources & scopes[leaf] and pole["value"] == 1
              and pole["branch"] in scopes[leaf] and at[seed["ray"]] == pole["ray"],
              "instance", k, "is not a leaf outside every body, seeing a 1 on N's image")
        for fid in body:
            prem = facts[fid]["premises"]
            _need(inside.issuperset(prem) and orthogonal(*(at[facts[p]["ray"]] for p in prem),
                                                         at[facts[fid]["ray"]]),
                  "instance", k, f"fails at body fact {fid}")
        members.update(dict.fromkeys(at[n["split"]] for b, n in enumerate(branches)
                                     if n["split"] is not None and src in scopes[b]))
    for b, node in enumerate(branches):  # a leaf clashes, one ray at 0 and 1 in its scope
        pair = node["contradiction"] or []
        _need(node["children"] or b in held or len(pair) == 2 and all(
            _index(f, nf) and facts[f]["branch"] in scopes[b] for f in pair)
            and facts[pair[0]]["ray"] == facts[pair[1]]["ray"]
            and {facts[f]["value"] for f in pair} == {0, 1}, "leaf", b, "holds no clash")
    return counts, list(members)


def check_oracle(system, core, k):
    """Rejected unless the core's coordinates are k system rays, refuted over all 2^k cases."""
    from ksgeom.coloring import refute_by_core_enumeration

    index = {ray.vec: i for i, ray in enumerate(system.rays)}
    core = [index.get(tuple(ray)) for ray in core]
    _need(None not in core and len(core) == k, "oracle", k, f"core {core} is not {k} system rays")
    result = refute_by_core_enumeration(system, core)
    _need(result == (True, 2**k), "oracle", k, f"gave {result}, not {(True, 2**k)}")


def main(argv):
    if len(argv) not in (1, 3):
        sys.exit(__doc__)
    doc = json.loads(Path(argv[0]).read_bytes())
    try:
        counts, core = check_trace(doc)
        print(f"{argv[0]}: {len(doc['facts'])} facts checked {counts}")
        if not all(counts.values()):
            sys.exit(f"{argv[0]}: a rule has no fact")
        if len(argv) == 3:
            from ksgeom.system import load_system

            system, k = load_system(Path(argv[1]).read_bytes()), int(argv[2])
            check_oracle(system, [doc["rays"][m] for m in core], k)
            print(f"{argv[1]}: oracle refuted all {2**k} cases")
    except Rejected as err:
        sys.exit(f"{argv[0]}: {err}")


if __name__ == "__main__":
    main(sys.argv[1:])
