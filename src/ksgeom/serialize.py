"""JSON documents for certificates and derivation traces.

Both use the triad-system document's writer (ksgeom.system): compact JSON
from json's C encoder, shortest-round-trip floats, fixed key order and a
newline after each "],[" and "},{" (one record per line), so save -> load
-> save is byte identical. This module owns the certificate and trace
formats. Schemas:

certificate:
  {"eps": e, "shell_n": k | null, "points": [[x,y,z], ...],
   "residuals": [r0, ...]}        # one residual per consecutive link
  e lies in (0, 1e-3); k is the spiral's number of equal azimuth turns,
  null for a direct chain

trace:
  {"eps": e,
   "rays": [[x,y,z], ...],
   "facts": [{"ray": i, "value": 0|1, "rule": str, "premises": [...],
              "branch": b, "witness": W | null}, ...],
   "branches": [{"idx": b, "parent": p | null, "assumption": fid | null,
                 "split": {"tripod": [i,j,k], "member": i} | null,
                 "children": [b0,b1] | null,
                 "contradiction": [f1,f2] | null}, ...],
   "named_tripods": [[i,j,k], ...]}

fact witness W is null except on lemma_zero facts, where it is
  {"certificate": <certificate doc>, "frame": [[...],[...],[...]] | null}
(frame rows rotate world into certificate coordinates). A triad_one fact's
tripod is its two premises' rays and its own ray.
"""

from __future__ import annotations

import math

from .errors import ParseError
from .reach import ReachCertificate, VerifyReport
from .sphere import EPS
from .system import _canonical_json, _json_eps, _json_float, _json_int, _load_doc
from .trace import CertWitness, DerivationTrace


def certificate_to_doc(cert: ReachCertificate, residuals: tuple[float, ...] | None = None) -> dict:
    return {
        "eps": cert.eps,
        "shell_n": cert.shell_n,
        "points": [list(p) for p in cert.points],
        "residuals": list(residuals) if residuals is not None else [],
    }


def save_certificate(cert: ReachCertificate, residuals: tuple[float, ...] | None = None) -> str:
    return _canonical_json(certificate_to_doc(cert, residuals))


def load_certificate(text: str | bytes) -> ReachCertificate:
    keys = ("eps", "shell_n", "points", "residuals")
    doc = _load_doc(text, "certificate", keys, ("eps", "points"))
    eps = _json_eps(doc["eps"])
    try:
        points = tuple(
            (x, y, z) if type(x) is type(y) is type(z) is float
            else tuple(_json_float(c, f"point {i} coordinate") for c in (x, y, z))
            for i, (x, y, z) in enumerate(doc["points"])
        )
        shell_n = doc.get("shell_n")
        return ReachCertificate(
            points=points,
            eps=eps,
            shell_n=_json_int(shell_n, "shell_n") if shell_n is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc


def _witness_to_doc(w: CertWitness | None) -> dict | None:
    if w is None:
        return None
    return {
        "certificate": certificate_to_doc(w.certificate),
        "frame": [list(row) for row in w.frame.rows] if w.frame is not None else None,
    }


def trace_to_doc(t: DerivationTrace) -> dict:
    return {
        "eps": EPS,
        "rays": [[r.x, r.y, r.z] for r in t.rays],
        "facts": [
            {
                "ray": f.ray,
                "value": f.value,
                "rule": f.rule,
                "premises": list(f.premises),
                "branch": f.branch,
                "witness": _witness_to_doc(f.witness),
            }
            for f in t.facts
        ],
        "branches": [
            {
                "idx": b.idx,
                "parent": b.parent,
                "assumption": b.assumption,
                "split": (
                    {"tripod": list(b.split.tripod), "member": b.split.member}
                    if b.split is not None
                    else None
                ),
                "children": list(b.children) if b.children is not None else None,
                "contradiction": list(b.contradiction) if b.contradiction is not None else None,
            }
            for b in t.branches
        ],
        "named_tripods": [list(tri) for tri in t.named_tripods],
    }


def save_trace(t: DerivationTrace) -> str:
    return _canonical_json(trace_to_doc(t))


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
