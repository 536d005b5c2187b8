"""JSON documents for certificates and derivation traces.

Both are laid out as the triad-system document is (ksgeom.system): compact
JSON, shortest-round-trip floats, fixed key order and a newline after each
"],[" and "},{" (one record per line), so save -> load -> save is byte
identical. A trace's branches go through json's C encoder
(system._compact); a trace's rays are system._ray_block, joined from each
Ray's cached text, byte for byte the encoder's, so the system document
written after the trace reuses that text; save_trace formats each fact and
each instance directly, in the encoder's layout, and save_certificate the
whole certificate. TestTraceWriter and TestCertificateWriter in
tests/test_serialize.py pin them to the compact JSON of a reference dict,
and CI's "CLI end to end" step to the encoder's bytes for both demos and a
certificate.
This module owns the certificate and trace formats. Schemas:

certificate:
  {"eps": e, "shell_n": k | null, "points": [[x,y,z], ...],
   "residuals": [r0, ...]}        # one residual per consecutive link
  e lies in (0, 1e-3); k is the spiral's number of equal azimuth turns and
  the chain's number of links (k + 1 points: the source, the spiral's
  first k - 2 points, one step_one point, the target); null for a direct
  chain

trace:
  {"eps": e,
   "rays": [[x,y,z], ...],
   "facts": [{"ray": i, "value": 0|1, "rule": str, "premises": [...],
              "branch": b}, ...],
   "branches": [{"idx": b, "parent": p | null, "assumption": fid | null,
                 "split": i | null, "children": [b0,b1] | null,
                 "contradiction": [f1,f2] | null}, ...],
   "instances": [{"branch": b, "source": s, "first": f, "map": [i, ...],
                  "hypotheses": [h, ...], "discharges": [d, ...]}, ...]}

A trace holds derivation steps only: no reach certificate and no frame. An
assume fact has no premises and is its branch's assumption; a derived zero
(orthogonal_zero, circle_zero, lemma_zero) has one, a value-1 fact on an
orthogonal ray; a triad_one fact has two value-0 facts, and its tripod is
their rays and its own. A circle step's premise gives 1 to the pole w of q's
circle: w's triad_one fact, whose first premise is q, or the assumption of a
split that already decided w. So a lemma_zero fact is checked as the last
circle step of its chain, each earlier step a circle_zero fact. A branch's
split is the ray it decides: its children assume that ray at 0 and at 1.
An instance's body is the facts of branch s from fact f on, after s's
assumption and up to its split, and the facts of s's descendants. Its
hypotheses, in id order, are the facts the body cites or clashes on outside
it, each before f in s's scope. "map" gives the image index of each body
ray, in the order the body's facts first name them (a fact's premises' rays,
then its own), a clash-only hypothesis's ray last. Its branch b is a leaf
outside s's subtree, closed with the body: every body step holds on the
images, and discharge d, a fact b sees, gives its hypothesis h's value to the
image of h's ray. A seed copy's one hypothesis is v(N) = 1; an identity
instance maps each ray to itself and may lie in an earlier instance's body
if its own body and discharges lie there too.
"""

from __future__ import annotations

import math

from .errors import ParseError
from .reach import ReachCertificate, VerifyReport
from .sphere import EPS
from .system import (
    _compact,
    _json_eps,
    _json_float,
    _json_int,
    _load_doc,
    _ray_block,
)
from .trace import DerivationTrace


def certificate_to_doc(cert: ReachCertificate, residuals: tuple[float, ...] | None = None) -> dict:
    return {
        "eps": cert.eps,
        "shell_n": cert.shell_n,
        "points": [list(p) for p in cert.points],
        "residuals": list(residuals) if residuals is not None else [],
    }


def save_certificate(cert: ReachCertificate, residuals: tuple[float, ...] | None = None) -> str:
    """The certificate document: byte for byte _compact(certificate_to_doc(...)) and a newline.

    Each number is its repr, as the encoder writes it. No finite number's
    repr holds "nan" or "inf", nor does any key, so spelling those as json
    does (NaN, Infinity, -Infinity) is two replaces over the whole text.
    """
    text = '{"eps":%r,"shell_n":%s,"points":[%s],"residuals":[%s]}\n' % (
        cert.eps,
        "null" if cert.shell_n is None else cert.shell_n,
        ",\n".join(["[%r,%r,%r]" % (x, y, z) for x, y, z in cert.points]),
        ",".join(map(repr, residuals)) if residuals else "",
    )
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def load_certificate(text: str | bytes) -> ReachCertificate:
    """The certificate a document holds; ParseError unless it is well formed.

    The stored residuals must be a list of numbers, and are then dropped:
    verify_certificate recomputes every link.
    """
    keys = ("eps", "shell_n", "points", "residuals")
    doc = _load_doc(text, "certificate", keys, ("eps", "points"))
    eps = _json_eps(doc["eps"])
    try:
        points = []
        for i, (x, y, z) in enumerate(doc["points"]):
            if not type(x) is type(y) is type(z) is float:
                x, y, z = [_json_float(c, f"point {i} coordinate") for c in (x, y, z)]
            points.append((x, y, z))
        shell_n = doc.get("shell_n")
        if shell_n is not None:
            shell_n = _json_int(shell_n, "shell_n")
        residuals = doc.get("residuals", [])
        if type(residuals) is not list:
            raise ParseError(f"residuals must be a list, got {residuals!r}")
        for i, r in enumerate(residuals):
            if type(r) is not float:
                _json_float(r, f"residual {i}")
        return ReachCertificate(tuple(points), eps, shell_n)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc


#: One trace fact, laid out as _compact lays out its dict: the keys in the
#: dict's order and integers as json writes them (a fact's fields are ints,
#: and its rule is one of the trace's rule names, which need no escaping).
_FACT = '{"ray":%d,"value":%d,"rule":"%s","premises":[%s],"branch":%d}'
_INSTANCE = '{"branch":%d,"source":%d,"first":%d,"map":[%s],"hypotheses":[%s],"discharges":[%s]}'


def save_trace(t: DerivationTrace) -> str:
    """The trace document: byte for byte _compact of the schema's dict and a newline."""
    facts = [
        _FACT % (ray, value, rule, ",".join(map(str, premises)), branch)
        for ray, value, rule, premises, branch, _ in t.facts
    ]
    branches = [
        {
            "idx": b.idx,
            "parent": b.parent,
            "assumption": b.assumption,
            "split": b.split,
            "children": b.children,
            "contradiction": b.contradiction,
        }
        for b in t.branches
    ]
    return '{"eps":%s,"rays":%s,"facts":[%s],"branches":%s,"instances":[%s]}\n' % (
        _compact(EPS),
        _ray_block(t.rays),
        ",\n".join(facts),
        _compact(branches),
        ",\n".join(_INSTANCE % (*i[:3], *(",".join(map(str, ids)) for ids in (
            i.rays.values(), i.hypotheses, i.hypotheses.values()))) for i in t.instances),
    )


def report_to_doc(report: VerifyReport) -> dict:
    def clean(x: float) -> float | None:
        return None if isinstance(x, float) and math.isnan(x) else x

    return {
        "accepted": report.accepted,
        "link_residuals": [clean(r) for r in report.link_residuals],
        "min_z": clean(report.min_z),
        "failures": list(report.failures),
        "first_bad_link": report.first_bad_link,
    }
