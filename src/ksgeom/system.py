"""Finite systems of rays with tripod and orthogonal-pair constraints.

A coloring of a system assigns 0 or 1 to every ray so that each listed
triad gets exactly one 1 and no listed pair gets two 1s. The JSON document
format is the interchange surface shared with the CLI: a single object
{"eps", "rays", "triads", "pairs"} with shortest-round-trip decimal reals
and no extra keys. Every document (system, trace, certificate) has one
layout, _compact's: compact JSON from json's C encoder with a newline after
each "],[" and "},{" (one record per line) and one at the end, so save ->
load -> save is byte identical; `python -m json.tool FILE` indents one for
reading. A ray block (a system's or a trace's rays) is joined by
_ray_block from each Ray's cached text, which is byte for byte json's
encoding of its float coordinates, so a ray's decimals are made once however
many documents list it; save_trace also formats trace facts directly in
this layout, five integer-or-name fields each. TestTraceWriter in
tests/test_serialize.py, the writer tests in tests/test_fuzz.py and the
layout check of TestEndToEnd in tests/test_cli.py pin both writers to the
encoder's bytes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import InvalidSystem, ParseError, ValidationError
from .sphere import EPS, Ray, canonicalize


@dataclass(frozen=True)
class ValidationReport:
    accepted: bool
    worst_residual: float
    offenders: tuple[tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return self.accepted


@dataclass(frozen=True)
class TriadSystem:
    rays: tuple[Ray, ...]
    triads: tuple[tuple[int, int, int], ...]
    pairs: tuple[tuple[int, int], ...] = ()
    eps: float = EPS
    _report = None  # validate_system's, kept in __dict__ once made

    def __post_init__(self) -> None:
        n = len(self.rays)
        for tri in self.triads:
            try:
                a, b, c = tri
            except (TypeError, ValueError):
                raise ValidationError(f"a triad must be 3 indices, got {tri!r}") from None
            if not type(a) is type(b) is type(c) is int:  # refuses floats and booleans
                raise ValidationError(f"triad indices must be integers: {(a, b, c)!r}")
            if not (0 <= a < n and 0 <= b < n and 0 <= c < n and a != b != c != a):
                raise ValidationError(f"triad indices out of range or repeated: {(a, b, c)}")
        for pair in self.pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise ValidationError(f"a pair must be 2 indices, got {pair!r}") from None
            if not type(a) is type(b) is int:
                raise ValidationError(f"pair indices must be integers: {(a, b)!r}")
            if not (0 <= a < n and 0 <= b < n and a != b):
                raise ValidationError(f"pair indices out of range or repeated: {(a, b)}")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_report"}

    @property
    def n_rays(self) -> int:
        return len(self.rays)


def validate_system(s: TriadSystem) -> ValidationReport:
    """Every constrained pairwise dot; accept iff all within eps.

    Triad edges come first, then the pairs; each dot is summed in dot()'s
    order, read from the rays' fields. Fails closed: a NaN dot is an
    offender and makes worst_residual NaN. The report, accepted or not, is
    kept on the system as a Ray keeps its text (no field: not in ==, hash,
    repr, copy or pickle); later calls, as solve's on a system that
    load_system returned, reuse it.
    """
    if s._report is not None:
        return s._report
    rays, eps = s.rays, s.eps
    worst = 0.0
    offenders: list[tuple[int, int]] = []
    for i, j in [e for a, b, c in s.triads for e in ((a, b), (a, c), (b, c))] + list(s.pairs):
        p, q = rays[i], rays[j]
        r = abs(p.x * q.x + p.y * q.y + p.z * q.z)
        if r > worst or r != r:  # r != r: NaN
            worst = r
        if not r <= eps:
            offenders.append((i, j))
    report = s.__dict__["_report"] = ValidationReport(not offenders, worst, tuple(offenders))
    return report


def _compact(obj: object) -> str:
    """obj as compact JSON, with a newline after each "],[" and "},{"."""
    text = json.dumps(obj, separators=(",", ":"))
    return text.replace("],[", "],\n[").replace("},{", "},\n{")


def _ray_block(rays: Iterable[Ray]) -> str:
    """_compact of the rays' coordinate lists, joined from each Ray's text."""
    return "[%s]" % ",\n".join([r.text for r in rays])


def save_system(s: TriadSystem) -> str:
    """The system document: byte for byte _compact of the schema's dict and a newline."""
    return '{"eps":%s,"rays":%s,"triads":%s,"pairs":%s}\n' % (
        _compact(s.eps),
        _ray_block(s.rays),
        _compact(s.triads),
        _compact(s.pairs),
    )


def _json_int(v: object, what: str) -> int:
    """v itself when it is a JSON integer; floats and booleans are refused."""
    if type(v) is not int:
        raise ParseError(f"{what} must be an integer, got {v!r}")
    return v


def _json_float(v: object, what: str) -> float:
    """v as a float when it is a JSON number; strings and booleans are refused."""
    if type(v) not in (int, float):
        raise ParseError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ParseError(f"{what} is out of float range") from None


def _json_eps(v: object) -> float:
    """A document's eps: a JSON number in (0, 1e-3)."""
    eps = _json_float(v, "eps")
    if not 0.0 < eps < 1e-3:
        raise ParseError(f"malformed document: tolerance eps must lie in (0, 1e-3), got {eps!r}")
    return eps


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; ParseError when a key repeats (json's default keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ParseError(f"duplicate key: {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_doc(
    text: str | bytes, what: str, keys: tuple[str, ...], required: tuple[str, ...]
) -> dict:
    """The JSON object a document holds; ParseError unless it is UTF-8 JSON
    with no key repeated in an object and an object root whose keys are
    among keys and include required.

    Every decoder failure is a ParseError, including nesting too deep for
    the decoder and integers past Python's digit limit."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} root must be an object")
    extra = set(doc) - set(keys)
    if extra:
        raise ParseError(f"unexpected keys: {sorted(extra)}")
    for key in required:
        if key not in doc:
            raise ParseError(f"missing key: {key}")
    return doc


def load_system(text: str | bytes) -> TriadSystem:
    """Parse and validate a triad-system document (bytes must be UTF-8).

    ParseError carries line/column for malformed JSON and is also raised
    for text that is not UTF-8, an index that is not a JSON integer, an eps
    or coordinate that is not a JSON number, or an eps outside (0, 1e-3);
    InvalidSystem for a NaN or infinite ray coordinate; ValidationError
    when the document's own eps is violated by its triads or pairs.
    """
    keys = ("eps", "rays", "triads", "pairs")
    doc = _load_doc(text, "document", keys, keys)
    eps = _json_eps(doc["eps"])
    # One pass per list; TriadSystem then checks the indices and
    # validate_system the orthogonality, as for a system built in code.
    rays, triads, pairs = [], [], []
    try:
        for i, v in enumerate(doc["rays"]):
            x, y, z = v if type(v) is list and len(v) == 3 else (None, None, None)
            if not type(x) is type(y) is type(z) is float:
                x, y, z = (_json_float(c, f"ray {i} coordinate") for c in v)
            try:  # canonical coordinates are kept bit for bit: save -> load -> save round trips
                rays.append(Ray(x, y, z))
            except ValueError:
                if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                    raise InvalidSystem(f"ray {i} has a non-finite coordinate: {[x, y, z]!r}")
                rays.append(canonicalize((x, y, z)))
        for a, b, c in doc["triads"]:
            if not type(a) is type(b) is type(c) is int:
                a, b, c = (_json_int(j, "triad index") for j in (a, b, c))
            triads.append((a, b, c))
        for a, b in doc["pairs"]:
            if not type(a) is type(b) is int:
                a, b = (_json_int(j, "pair index") for j in (a, b))
            pairs.append((a, b))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc
    system = TriadSystem(rays=tuple(rays), triads=tuple(triads), pairs=tuple(pairs), eps=eps)
    report = validate_system(system)
    if not report:
        raise ValidationError(
            f"orthogonality violated at {report.offenders[:4]}, "
            f"worst residual {report.worst_residual!r}"
        )
    return system
