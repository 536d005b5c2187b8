"""Re-check a trace document from the document alone, with no ksgeom rule code.

    PYTHONPATH=src python tests/trace_check.py TRACE [SYSTEM K]

prints TRACE's fact counts by rule and its numbers of instances and of
identity instances, and exits 1 at a file that is not UTF-8 JSON, a key
repeated in an object, a record of the wrong shape, a bad eps, its first
bad branch, fact, split, instance or leaf, or a rule with no fact (a ks
demo trace uses all five). Given SYSTEM and K, SYSTEM must load as a
triad system, and ksgeom's core-enumeration oracle must then refute it
over the 2^K cases of TRACE's split members and images.
"""

import json
import sys
from pathlib import Path


class Rejected(Exception):
    """The first bad part of a document: its kind and index."""

    def __init__(self, kind, index, why):
        super().__init__(f"{kind} {index} {why}")
        self.kind, self.index = kind, index


def _unique_keys(pairs):
    """A JSON object's dict; Rejected when a key repeats (json's default keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise Rejected("document", 0, f"repeats the key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _need(ok, kind, index, why):
    if not ok:
        raise Rejected(kind, index, why)


def _index(x, n):
    return type(x) is int and 0 <= x < n


def _ids(x, n=None):
    """A list of ints, n of them if n is given."""
    return type(x) is list and all(type(i) is int for i in x) and n in (None, len(x))


def _id(x):
    return type(x) is int


def _id_or_none(x):
    return x is None or type(x) is int


def _pair_or_none(x):
    return x is None or _ids(x, 2)


#: Each record's keys, in order, and a test of each field's JSON type.
FIELDS = {
    "branches": ("branch", {"idx": _id, "parent": _id_or_none, "assumption": _id_or_none,
                            "split": _id_or_none, "children": _pair_or_none,
                            "contradiction": _pair_or_none}),
    "facts": ("fact", {"ray": _id, "value": _id, "rule": lambda x: type(x) is str,
                       "premises": _ids, "branch": _id}),
    "instances": ("instance", {"branch": _id, "source": _id, "first": _id, "map": _ids,
                               "hypotheses": _ids, "discharges": _ids}),
}


def _check_shapes(doc):
    """Rejected at the first record whose keys or field types are not the schema's."""
    keys = ["eps", "rays", "facts", "branches", "instances"]
    _need(type(doc) is dict and list(doc) == keys and all(type(doc[k]) is list for k in keys[1:]),
          "document", 0, f"is not an object of the lists {keys[1:]} after eps")
    for k, ray in enumerate(doc["rays"]):
        _need(type(ray) is list and len(ray) == 3 and all(type(c) is float for c in ray),
              "ray", k, "is not three floats")
    for block, (kind, fields) in FIELDS.items():
        for k, record in enumerate(doc[block]):
            _need(type(record) is dict and list(record) == list(fields)
                  and all(ok(record[key]) for key, ok in fields.items()),
                  kind, k, "has other keys or a field of another type")


def check_trace(doc):
    """(fact counts by rule, ray ids of the split members and their instance
    images, indices of the identity instances)."""
    _check_shapes(doc)
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
                                    else (up, node["assumption"]) == (None, None))
              and all(_index(f, nf) for f in node["contradiction"] or ()),
              "branch", b, "is not a child of an earlier branch")
        scopes.append({b, *(scopes[up] if b else ())})
    # a fact has five keys and cites earlier facts in its scope; a circle
    # step's 1 is on its q circle's pole, by triad_one or a split
    counts = dict.fromkeys("assume orthogonal_zero circle_zero lemma_zero triad_one".split(), 0)
    for fid, f in enumerate(facts):
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
    # an instance's body: its source's facts from its first on, after the
    # source's assumption and up to its split, and its descendants' facts; its
    # hypotheses, the facts it cites or clashes on outside it, come before it
    # in its source's scope; its rays in the order its facts first name them
    instances, bodies = doc["instances"], []
    for k, inst in enumerate(instances):
        src, first = inst["source"], inst["first"]
        _need(_index(src, nb) and _index(inst["branch"], nb) and 0 <= first <= nf,
              "instance", k, "has an index out of range")
        body = [fid for fid in range(first, nf) if src in scopes[facts[fid]["branch"]]]
        inside, order, cited = set(body), {}, []
        for fid in body:
            prem = facts[fid]["premises"]
            order.update(dict.fromkeys([facts[p]["ray"] for p in prem] + [facts[fid]["ray"]]))
            cited += prem
        cited += [f for b in range(nb) if src in scopes[b] for f in branches[b]["contradiction"] or ()]
        hyps = sorted(set(cited) - inside)
        order.update(dict.fromkeys(facts[h]["ray"] for h in hyps))
        node = branches[src]
        _need((node["assumption"] is None or node["assumption"] < first)
              and all(branches[c]["assumption"] >= first for c in node["children"] or ())
              and all(h < first and facts[h]["branch"] in scopes[src] for h in hyps),
              "instance", k, "cites a fact neither in its body nor before it in its source's scope")
        bodies.append((inside, dict(zip(order, inst["map"])), hyps))
    # each maps every body ray to an image where every body step holds, and
    # discharges each hypothesis by a fact its leaf sees: the same value on
    # the image of the same ray. An instance in its body is an earlier
    # identity instance whose body and discharges lie in its body too.
    held = [inst["branch"] for inst in instances]
    identity = [k for k, (_, at, _) in enumerate(bodies) if all(r == i for r, i in at.items())]
    members = dict.fromkeys(n["split"] for n in branches if n["split"] is not None)
    for k, (inst, (inside, at, hyps)) in enumerate(zip(instances, bodies)):
        src, leaf = inst["source"], inst["branch"]
        splits = [n["split"] for b, n in enumerate(branches)
                  if n["split"] is not None and src in scopes[b]]
        _need(len(at) == len(inst["map"]) and all(_index(j, len(rays)) for j in inst["map"])
              and all(m in at for m in splits) and not branches[leaf]["children"]
              and src not in scopes[leaf] and held.count(leaf) == 1,
              "instance", k, "is not one leaf outside its body, mapping every body ray")
        _need(inst["hypotheses"] == hyps and len(inst["discharges"]) == len(hyps),
              "instance", k, f"does not list its hypotheses {hyps} and a discharge of each")
        for h, d in zip(hyps, inst["discharges"]):
            _need(_index(d, nf) and facts[d]["branch"] in scopes[leaf],
                  "instance", k, f"discharges hypothesis {h} by a fact its leaf does not see")
            _need(facts[d]["ray"] == at[facts[h]["ray"]],
                  "instance", k, f"discharges hypothesis {h} by a fact off its ray's image")
            _need(facts[d]["value"] == facts[h]["value"],
                  "instance", k, f"discharges hypothesis {h} by a fact of the other value")
        for fid in sorted(inside):
            prem = facts[fid]["premises"]
            _need(orthogonal(*(at[facts[p]["ray"]] for p in prem), at[facts[fid]["ray"]]),
                  "instance", k, f"fails at body fact {fid}")
        for j, other in enumerate(instances):
            if src in scopes[other["branch"]]:
                _need(j < k and j in identity and bodies[j][0] <= inside
                      and inside.issuperset(other["discharges"]),
                      "instance", k, f"holds instance {j}, not an earlier identity instance "
                      "argued and discharged inside its body")
        members.update(dict.fromkeys(at[m] for m in splits))
    for b, node in enumerate(branches):  # a leaf clashes, one ray at 0 and 1 in its scope
        pair = node["contradiction"] or []
        _need(node["children"] or b in held or len(pair) == 2 and all(
            facts[f]["branch"] in scopes[b] for f in pair)
            and facts[pair[0]]["ray"] == facts[pair[1]]["ray"]
            and {facts[f]["value"] for f in pair} == {0, 1}, "leaf", b, "holds no clash")
    return counts, list(members), identity


def check_oracle(system, core, k):
    """Rejected unless the core's coordinates are k system rays, refuted over all 2^k cases."""
    from ksgeom.coloring import refute_by_core_enumeration

    index = {ray.vec: i for i, ray in enumerate(system.rays)}
    core = [index.get(tuple(ray)) for ray in core]
    _need(None not in core and len(core) == k, "oracle", k, f"core {core} is not {k} system rays")
    result = refute_by_core_enumeration(system, core)
    _need(result == (True, 2**k), "oracle", k, f"gave {result}, not {(True, 2**k)}")


def main(argv):
    if len(argv) not in (1, 3) or len(argv) == 3 and not argv[2].isdigit():
        sys.exit(__doc__)
    try:
        text = Path(argv[0]).read_bytes().decode("utf-8")
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as err:  # UnicodeDecodeError is a ValueError
        sys.exit(f"{argv[0]}: not a UTF-8 JSON file: {err}")
    except Rejected as err:
        sys.exit(f"{argv[0]}: {err}")
    try:
        counts, core, identity = check_trace(doc)
        print(f"{argv[0]}: {len(doc['facts'])} facts checked {counts}")
        print(f"{argv[0]}: {len(doc['instances'])} instances, {len(identity)} of them identity")
        if not all(counts.values()):
            sys.exit(f"{argv[0]}: a rule has no fact")
        if len(argv) == 3:
            from ksgeom.errors import KsError
            from ksgeom.system import load_system

            try:
                system = load_system(Path(argv[1]).read_bytes())
            except (OSError, KsError) as err:
                sys.exit(f"{argv[1]}: {err}")
            k = int(argv[2])
            check_oracle(system, [doc["rays"][m] for m in core], k)
            print(f"{argv[1]}: oracle refuted all {2**k} cases")
    except Rejected as err:
        sys.exit(f"{argv[0]}: {err}")


if __name__ == "__main__":
    main(sys.argv[1:])
