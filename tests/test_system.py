import copy
import json
import math
import pickle

import pytest

from ksgeom.errors import InvalidSystem, ParseError, ValidationError
from ksgeom.sphere import Ray, canonicalize
from ksgeom.system import TriadSystem, load_system, save_system, validate_system

R2 = math.sqrt(0.5)


def constant_tripod_system() -> TriadSystem:
    return TriadSystem(
        rays=(
            canonicalize((-0.5, R2, 0.5)),
            canonicalize((-0.5, -R2, 0.5)),
            canonicalize((R2, 0, R2)),
        ),
        triads=((0, 1, 2),),
    )


class TestValidate:
    def test_constant_tripod_residual(self):
        report = validate_system(constant_tripod_system())
        assert report.accepted
        assert report.worst_residual <= 1e-15

    def test_rejects_bad_triple(self):
        s = TriadSystem(
            rays=(
                canonicalize((0, 0, 1)),
                canonicalize((1, 0, 0)),
                canonicalize((0.1, 0.0995037190209989, 0.99)),
            ),
            triads=((0, 1, 2),),
        )
        report = validate_system(s)
        assert not report.accepted
        assert (0, 2) in report.offenders

    def test_nan_ray_fails_closed(self, nan_ray):
        s = TriadSystem(
            rays=(canonicalize((0, 0, 1)), canonicalize((1, 0, 0)), nan_ray),
            triads=((0, 1, 2),),
        )
        report = validate_system(s)
        assert not report.accepted
        assert set(report.offenders) == {(0, 2), (1, 2)}
        assert math.isnan(report.worst_residual)

    def test_empty_system_accepted(self):
        assert validate_system(TriadSystem(rays=(), triads=())).accepted

    def test_index_bounds(self):
        with pytest.raises(ValidationError):
            TriadSystem(rays=(canonicalize((0, 0, 1)),), triads=((0, 1, 2),))
        with pytest.raises(ValidationError):
            TriadSystem(rays=(canonicalize((0, 0, 1)),) * 3, triads=(), pairs=((2, 2),))

    @pytest.mark.parametrize("bad", [1.0, True])
    def test_index_must_be_an_int(self, bad):
        axes = tuple(canonicalize(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ValidationError, match="^triad indices must be integers"):
            TriadSystem(rays=axes, triads=((0, bad, 2),))
        with pytest.raises(ValidationError, match="^pair indices must be integers"):
            TriadSystem(rays=axes, triads=(), pairs=((bad, 2),))

    def test_constraint_arity(self):
        axes = tuple(canonicalize(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        text = save_system(TriadSystem(rays=axes, triads=()))
        for triad in ((0, 1), (0, 1, 2, 0)):
            with pytest.raises(ValidationError, match=r"^a triad must be 3 indices, got \("):
                TriadSystem(rays=axes, triads=(triad,))
            doc = json.loads(text)
            doc["triads"] = [list(triad)]
            with pytest.raises(ParseError, match="^malformed document"):
                load_system(json.dumps(doc))
        for pair in ((0,), (0, 1, 2)):
            with pytest.raises(ValidationError, match=r"^a pair must be 2 indices, got \("):
                TriadSystem(rays=axes, triads=(), pairs=(pair,))
            doc = json.loads(text)
            doc["pairs"] = [list(pair)]
            with pytest.raises(ParseError, match="^malformed document"):
                load_system(json.dumps(doc))


class TestKeptReport:
    """validate_system keeps its report on the system object, outside its fields."""

    def test_report_kept_and_not_a_field(self):
        s = constant_tripod_system()
        report = validate_system(s)
        assert validate_system(s) is report
        fresh = constant_tripod_system()
        assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_or_pickle_carries_the_fields_alone(self, clone):
        s = constant_tripod_system()
        report = validate_system(s)
        again = clone(s)
        assert again == s and "_report" not in again.__dict__
        assert validate_system(again) == report and validate_system(again) is not report


class TestRoundTrip:
    def test_save_load_save_byte_identical(self):
        s = constant_tripod_system()
        text1 = save_system(s)
        text2 = save_system(load_system(text1))
        assert text1 == text2

    def test_int_coordinates_round_trip(self):
        # int coordinates are stored as floats, so the first save is already
        # what load -> save gives back
        s = TriadSystem(rays=(Ray(0, 0, 1), Ray(1, 0, 0), Ray(0, 1, 0)), triads=((0, 1, 2),))
        text = save_system(s)
        assert '"rays":[[0.0,0.0,1.0],\n[1.0,0.0,0.0],\n[0.0,1.0,0.0]]' in text
        assert save_system(load_system(text)) == text

    def test_seventeen_significant_digits_survive(self):
        s = constant_tripod_system()
        loaded = load_system(save_system(s))
        for a, b in zip(s.rays, loaded.rays):
            assert a.vec == b.vec

    def test_unnormalized_input_canonicalized(self):
        doc = json.loads(save_system(constant_tripod_system()))
        for v in doc["rays"]:
            if v[0] == -0.5:
                v[0] = -0.5000000001
        loaded = load_system(json.dumps(doc))
        assert loaded.rays == tuple(canonicalize(tuple(v)) for v in doc["rays"])
        for r in loaded.rays:
            assert abs(r.x * r.x + r.y * r.y + r.z * r.z - 1.0) <= 1e-12

    def test_load_rejects_extra_keys(self):
        text = save_system(constant_tripod_system())
        bad = text.replace('"eps"', '"zzz": 1,\n "eps"', 1)
        with pytest.raises(ParseError):
            load_system(bad)

    def test_load_rejects_missing_key(self):
        doc = json.loads(save_system(constant_tripod_system()))
        del doc["pairs"]
        with pytest.raises(ParseError):
            load_system(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        "[" * 200_000,  # deeper than the decoder's recursion limit
        '{"eps": 1e-09, "rays": [[0, 0, ' + "1" * 5000 + ']], "triads": [], "pairs": []}',
    ], ids=["deep-nesting", "5000-digit-integer"])
    def test_load_rejects_undecodable_json(self, text):
        with pytest.raises(ParseError):
            load_system(text)

    def test_parse_error_carries_position(self):
        try:
            load_system("{ not json")
        except ParseError as exc:
            assert exc.line == 1 and exc.column is not None
        else:
            pytest.fail("expected ParseError")

    def test_load_rejects_non_orthogonal_triad(self):
        s = TriadSystem(
            rays=(
                canonicalize((0, 0, 1)),
                canonicalize((1, 0, 0)),
                canonicalize((0, 1, 0)),
            ),
            triads=((0, 1, 2),),
        )
        doc = json.loads(save_system(s))
        doc["rays"][2] = [0.6, 0.8, 0.0]
        with pytest.raises(ValidationError, match=r"^orthogonality violated at \(\(1, 2\),\)"):
            load_system(json.dumps(doc))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_load_rejects_non_finite_coordinate(self, bad):
        doc = json.loads(save_system(constant_tripod_system()))
        doc["rays"][1][0] = bad
        with pytest.raises(InvalidSystem, match="ray 1"):
            load_system(json.dumps(doc))

    @pytest.mark.parametrize(
        "bad", ["1e-9", True, False, None, [1e-9], pytest.param(10**400, id="10**400")]
    )
    @pytest.mark.parametrize("key", ["ray", "eps"])
    def test_load_rejects_non_number(self, key, bad):
        doc = json.loads(save_system(constant_tripod_system()))
        if key == "eps":
            doc["eps"] = bad
        else:
            doc["rays"][1][0] = bad
        what = "ray 1 coordinate" if key == "ray" else "eps"
        with pytest.raises(ParseError, match=f"^{what} (must be a number|is out of float range)"):
            load_system(json.dumps(doc))

    @pytest.mark.parametrize("eps", [0.0, -1e-9, 1e-3, 5e-2, 0.5])
    def test_load_rejects_eps_out_of_range(self, eps):
        doc = json.loads(save_system(constant_tripod_system()))
        doc["eps"] = eps
        want = f"malformed document: tolerance eps must lie in (0, 1e-3), got {eps!r}"
        with pytest.raises(ParseError) as exc:
            load_system(json.dumps(doc))
        assert str(exc.value) == want

    def test_load_rejects_non_utf8_bytes(self):
        with pytest.raises(ParseError, match="^not UTF-8 text"):
            load_system(b"\xff\xfe{")

    @pytest.mark.parametrize("bad", [0.7, 1.0, True, False, "1", None])
    @pytest.mark.parametrize("key", ["triads", "pairs"])
    def test_load_rejects_non_integer_index(self, key, bad):
        doc = json.loads(save_system(constant_tripod_system()))
        doc["pairs"] = [[0, 1]]
        doc[key][0][0] = bad
        with pytest.raises(ParseError, match="must be an integer"):
            load_system(json.dumps(doc))
