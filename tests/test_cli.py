import ast
import json
from itertools import product
from pathlib import Path
from time import perf_counter

import pytest

import expobs
from expobs import circle, cli
from expobs.cli import main
from expobs.errors import InvariantViolation
from expobs.library import (
    m0_circle_document,
    quarter_turn_circle_document,
    reflection_interval_document,
    rigid_rotation_document,
    valley_interval_document,
)

L4_DOC = json.dumps(
    {
        "points": ["a", "b", "c", "d"],
        "metric": [
            ["0", "1", "2", "3"],
            ["1", "0", "3", "2"],
            ["2", "3", "0", "1"],
            ["3", "2", "1", "0"],
        ],
        "map": {"a": "b", "b": "a", "c": "d", "d": "c"},
    }
)
SPLIT_OBS = json.dumps({"values": {"a": "0", "b": "0", "c": "1", "d": "1"}})
LETTER_OBS = json.dumps(
    {"window": 0, "alphabet": "01", "table": {"0": "0", "1": "1"}}
)
ZERO_PT = json.dumps({"left": "0", "core": "", "right": "0"})
ONE_BUMP = json.dumps({"left": "0", "core": "1", "right": "0"})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_error_line(code, out, err, expected_code=1):
    assert code == expected_code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestAnalyze:
    def test_basic(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--system", L4_DOC, "--observable", SPLIT_OBS,
            "--threshold", "1", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["system"]["e_star"] == "1"
        assert doc["observables"][0]["delta_star"] == "2"
        assert doc["quotients"][0]["blocks"] == [["a", "b"], ["c", "d"]]

    def test_file_arguments_and_out(self, capsys, tmp_path):
        sys_path = tmp_path / "system.json"
        sys_path.write_text(L4_DOC)
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", "--system", str(sys_path), "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["system"]["mesh"] == "1"

    def test_huge_periodic_levels(self, capsys):
        """f^k rotates each cycle by k mod its length, so the cost of a level
        does not grow with k."""
        start = perf_counter()
        code, out, _ = run(
            capsys, "analyze", "--system", L4_DOC, "--observable", SPLIT_OBS,
            "--levels", "1000000000000,1000000000001",
        )
        assert perf_counter() - start < 5
        assert code == 0
        levels = json.loads(out)["periodic_levels"]
        assert [level["fixed_count"] for level in levels] == [4, 0]

    def test_invalid_document_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "--system", '{"points": []}')
        assert code == 1
        assert "error:" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "--system", "/nope/missing.json")
        assert code == 1


class TestHostileSystemDocuments:
    """Malformed system documents get exit 1 and one error line, never a traceback."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"points": [[1], [2]]},
            {"metric": [1, 2]},
            {"points": ["1", "2"], "metric": ["01", "10"], "map": {"1": "2", "2": "1"}},
        ],
        ids=["list-point-ids", "scalar-metric-rows", "string-metric-row"],
    )
    def test_rejected_with_one_error_line(self, capsys, changes):
        doc = {
            "points": ["a", "b"],
            "metric": [["0", "1"], ["1", "0"]],
            "map": {"a": "b", "b": "a"},
            **changes,
        }
        code, out, err = run(
            capsys, "quotient", "--system", json.dumps(doc), "--threshold", "1"
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestHostileSymbolicDocuments:
    """Malformed points and cylinder observables get exit 1 and one error line."""

    @pytest.mark.parametrize(
        "text",
        [
            "5",
            json.dumps({"window": "1", "alphabet": "01", "table": {}}),
            # Read as window 1 before the check, so it needs all 3-letter words.
            json.dumps({"window": True, "alphabet": "01",
                        "table": {"".join(w): "0" for w in product("01", repeat=3)}}),
            json.dumps({"window": 0, "alphabet": [0, 1], "table": {}}),
            json.dumps({"window": 0, "alphabet": "01", "table": []}),
        ],
        ids=["not-an-object", "string-window", "bool-window", "int-letters", "list-table"],
    )
    def test_cylinder_rejected_with_one_error_line(self, capsys, tmp_path, text):
        path = tmp_path / "observable.json"
        path.write_text(text)
        code, out, err = run(
            capsys, "symbolic", "obs-stable", "--x", ZERO_PT, "--y", ONE_BUMP,
            "--observable", str(path),
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bool_offset_rejected(self, capsys):
        point = json.dumps({"left": "0", "right": "0", "offset": True})
        code, out, err = run(capsys, "symbolic", "distance", "--x", point, "--y", ZERO_PT)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("core", [None, ["1"], {"1": 1}, 7],
                             ids=["null-core", "list-core", "object-core", "int-core"])
    def test_non_word_core_rejected(self, capsys, core):
        point = json.dumps({"left": "0", "core": core, "right": "0"})
        assert_one_error_line(*run(capsys, "symbolic", "stable", "--x", point, "--y", ZERO_PT))

    def test_point_symbol_outside_the_observable_alphabet(self, capsys):
        point = json.dumps({"left": "0", "core": "1", "right": "b"})
        assert_one_error_line(*run(
            capsys, "symbolic", "obs-stable", "--x", ONE_BUMP, "--y", point,
            "--observable", LETTER_OBS,
        ))


class TestSharedParser:
    """`main` builds its parser once and reuses it, so every call must act as
    it would on a freshly built parser."""

    def test_observable_lists_do_not_leak_between_calls(self, capsys, monkeypatch):
        other = json.dumps({"values": {"a": "0", "b": "1", "c": "0", "d": "1"}})
        one = ["analyze", "--system", L4_DOC, "--observable", SPLIT_OBS, "--seed", "3"]
        two = one + ["--observable", other]
        fresh = {}
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_shared_parser", cli.build_parser)
            for argv in (one, two):
                fresh[tuple(argv)] = (main(argv), capsys.readouterr().out)
        assert len(json.loads(fresh[tuple(one)][1])["observables"]) == 1
        assert len(json.loads(fresh[tuple(two)][1])["observables"]) == 2
        for argv in (two, one, two, one):
            code, out, err = run(capsys, *argv)
            assert ((code, out), err) == (fresh[tuple(argv)], "")
        shared = cli._shared_parser()
        assert shared.parse_args(["analyze", "--system", L4_DOC]).observable == []

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["--version"], ["symbolic", "ball", "--x", ZERO_PT]],
        ids=["help", "version", "usage-error"],
    )
    def test_exits_match_a_fresh_parser(self, capsys, argv):
        def exit_of(parse):
            with pytest.raises(SystemExit) as info:
                parse(list(argv))
            captured = capsys.readouterr()
            return info.value.code, captured.out, captured.err

        fresh = exit_of(lambda a: cli.build_parser().parse_args(a))
        run(capsys, "dstar", "--system", L4_DOC, "--observable", SPLIT_OBS)
        assert exit_of(main) == fresh
        assert exit_of(main) == fresh
        assert fresh[0] == (2 if argv[0] == "symbolic" else 0)


class TestSmallCommands:
    def test_dstar(self, capsys):
        code, out, _ = run(
            capsys, "dstar", "--system", L4_DOC, "--observable", SPLIT_OBS
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"delta_star": "2", "sigma_star_sq": "1"}

    def test_quotient(self, capsys):
        code, out, _ = run(
            capsys, "quotient", "--system", L4_DOC, "--threshold", "3"
        )
        assert code == 0
        assert json.loads(out)["blocks"] == [["a", "b", "c", "d"]]

    def test_quotient_at_threshold_zero(self, capsys):
        code, out, err = run(
            capsys, "quotient", "--system", L4_DOC, "--threshold", "0"
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {"threshold": "0",
                                   "blocks": [["a"], ["b"], ["c"], ["d"]]}

    def test_laws_pass(self, capsys):
        code, out, _ = run(
            capsys, "laws", "--system", L4_DOC, "--trials", "20", "--seed", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["checks"] == 100

    def test_laws_negative_trials_exit_one(self, capsys):
        code, out, err = run(
            capsys, "laws", "--system", L4_DOC, "--trials", "-5", "--seed", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_conjugacy_identity(self, capsys):
        code, out, _ = run(
            capsys, "conjugacy", "--source", L4_DOC, "--target", L4_DOC,
            "--map", '{"a": "a", "b": "b", "c": "c", "d": "d"}',
            "--observable", SPLIT_OBS,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["isometry"] is True
        assert doc["violations"] == []

    def test_conjugacy_negative_samples_exit_one(self, capsys):
        assert_one_error_line(*run(
            capsys, "conjugacy", "--source", L4_DOC, "--target", L4_DOC,
            "--map", '{"a": "a", "b": "b", "c": "c", "d": "d"}', "--samples", "-3",
        ))

    @pytest.mark.parametrize(
        "argv",
        [
            ["laws", "--system", L4_DOC, "--trials", "100000000", "--seed", "1"],
            ["conjugacy", "--source", L4_DOC, "--target", L4_DOC,
             "--map", '{"a": "a", "b": "b", "c": "c", "d": "d"}',
             "--samples", "100000000"],
        ],
        ids=["laws-trials", "conjugacy-samples"],
    )
    def test_count_over_budget_exits_one_fast(self, capsys, argv):
        start = perf_counter()
        result = run(capsys, *argv)
        assert perf_counter() - start < 1
        assert_one_error_line(*result)


class TestHostileConjugacyMaps:
    """A conjugacy map that is not an object of target points gets exit 1
    and one error line."""

    @pytest.mark.parametrize(
        "mapping",
        [
            [-2, "a", None],
            {"a": [1], "b": "b", "c": "c", "d": "d"},
            {"a": {"b": 1}, "b": "b", "c": "c", "d": "d"},
            {"a": "z", "b": "b", "c": "c", "d": "d"},
            {"a": "a", "b": "a", "c": "c", "d": "d"},
        ],
        ids=["list-map", "list-image", "object-image", "unknown-image", "not-injective"],
    )
    def test_rejected_with_one_error_line(self, capsys, mapping):
        assert_one_error_line(*run(
            capsys, "conjugacy", "--source", L4_DOC, "--target", L4_DOC,
            "--map", json.dumps(mapping),
        ))


class TestSymbolic:
    def test_distance_and_orbit_sup(self, capsys):
        code, out, _ = run(
            capsys, "symbolic", "distance", "--x", ZERO_PT, "--y", ONE_BUMP
        )
        assert code == 0 and json.loads(out)["distance"] == "1"
        code, out, _ = run(
            capsys, "symbolic", "orbit-sup", "--x", ZERO_PT, "--y", ONE_BUMP
        )
        assert code == 0 and json.loads(out)["orbit_sup"] == "1"

    def test_ball_reports_requested_and_effective(self, capsys):
        code, out, _ = run(
            capsys, "symbolic", "ball", "--x", ZERO_PT, "--y", ONE_BUMP,
            "--epsilon", "1/3", "--side", "s",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["requested_epsilon"] == "1/3"
        assert doc["effective_epsilon"] == "1/4"
        assert doc["k"] == 2
        assert doc["in_ball"] is False

    def test_stable_and_obs_stable(self, capsys):
        code, out, _ = run(
            capsys, "symbolic", "stable", "--x", ZERO_PT, "--y", ONE_BUMP,
            "--side", "s",
        )
        assert code == 0 and json.loads(out)["stable_equivalent"] is True
        code, out, _ = run(
            capsys, "symbolic", "obs-stable", "--x", ZERO_PT, "--y", ONE_BUMP,
            "--observable", LETTER_OBS, "--side", "u",
        )
        assert code == 0 and json.loads(out)["values_converge"] is True

    def test_check_inclusion(self, capsys):
        code, out, _ = run(
            capsys, "symbolic", "check-inclusion", "--point", ZERO_PT,
            "--observable", LETTER_OBS, "--epsilon", "1/2", "--bound", "6",
            "--alphabet", "01",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["points_enumerated"] == 576
        assert doc["counterexamples"] == []

    def test_repeated_letters_count_once_in_the_budget(self, capsys):
        # Bound 9 fits the enumeration budget over two letters; "001" spells
        # the same two and must neither be refused nor report differently.
        outs = []
        for alphabet in ("01", "001"):
            code, out, _ = run(
                capsys, "symbolic", "check-inclusion", "--point", ONE_BUMP,
                "--observable", LETTER_OBS, "--epsilon", "1/8", "--bound", "9",
                "--alphabet", alphabet,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_asymptotic_pair(self, capsys):
        code, out, _ = run(
            capsys, "symbolic", "asymptotic-pair", "--alphabet", "01",
            "--bound", "6", "--observable", LETTER_OBS,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == {"left": "0", "core": "", "right": "0"}
        assert doc["y"] == {"left": "0", "core": "1", "right": "0"}
        assert doc["verified_observables"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-inclusion", "--point", ZERO_PT, "--observable", LETTER_OBS,
             "--epsilon", "1/2"],
            ["asymptotic-pair", "--observable", LETTER_OBS],
        ],
        ids=["check-inclusion", "asymptotic-pair"],
    )
    def test_bound_over_enumeration_budget_exits_one_fast(self, capsys, argv):
        start = perf_counter()
        result = run(capsys, "symbolic", *argv, "--alphabet", "01", "--bound", "20")
        assert perf_counter() - start < 1
        assert_one_error_line(*result)

    def test_no_pair_exits_one(self, capsys):
        code, _, err = run(
            capsys, "symbolic", "asymptotic-pair", "--alphabet", "0",
            "--bound", "5",
        )
        assert code == 1
        assert "error:" in err


class TestCircle:
    def test_rotnum(self, capsys):
        code, out, _ = run(
            capsys, "circle", "rotnum", "--map", json.dumps(m0_circle_document())
        )
        assert code == 0 and json.loads(out)["rotation_number"] == "0"

    def test_certify_verify_round_trip(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "circle", "certify", "--map",
            json.dumps(m0_circle_document()), "--delta", "1/16",
            "--out", str(cert_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "circle", "verify", "--cert", str(cert_path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_verify_tampered_exits_two(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        run(
            capsys, "circle", "certify", "--map",
            json.dumps(m0_circle_document()), "--delta", "1/16",
            "--out", str(cert_path),
        )
        doc = json.loads(cert_path.read_text())
        doc["probe"] = ["11/48", "14/48"]
        cert_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "circle", "verify", "--cert", str(cert_path))
        assert code == 2
        assert json.loads(out)["violations"]

    def test_certify_with_gap(self, capsys):
        code, out, _ = run(
            capsys, "circle", "certify", "--map",
            json.dumps(m0_circle_document()), "--delta", "1/16",
            "--gap-observable",
            json.dumps({"breakpoints": ["0", "1"], "values": ["0", "1"]}),
        )
        assert code == 0
        assert json.loads(out)["separation_gap"] == "1/48"

    def test_rigid_rotation_reports_grid_case(self, capsys):
        code, out, _ = run(
            capsys, "circle", "certify", "--map",
            json.dumps(rigid_rotation_document("3/8")), "--delta", "1/16",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "rigid_rotation"
        assert doc["single_block"] is True
        assert doc["e_star"] == "1/8"
        assert doc["wandering_intervals"] == 0

    def test_rigid_rotation_composes_the_power_once(self, capsys, monkeypatch):
        # The certify attempt already found no wandering arc; the report
        # says so without composing the reduced power a second time.
        calls = []
        compose = circle.compose_circle

        def counted(outer, inner):
            calls.append(1)
            return compose(outer, inner)

        monkeypatch.setattr(circle, "compose_circle", counted)
        code, _, _ = run(
            capsys, "circle", "certify", "--map",
            json.dumps(rigid_rotation_document("3/8")), "--delta", "1/16",
        )
        assert code == 0
        assert len(calls) == 7


QUARTER_TURN_MAP = json.dumps(quarter_turn_circle_document())


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PLATEAU_CIRCLE_PATH = str(FIXTURES / "plateau_circle.json")

# The inverse of the plateau map: its backward walk is the plateau's forward one.
PLATEAU_INVERSE_MAP = json.dumps({
    "breakpoints": ["0", "1/8", "1/4", "1/2", "7/8"],
    "lift_values": ["-1/8", "0", "1/4", "1/2", "3/4"],
})


class TestCertifyHorizon:
    """The probe walks stop at --n-max steps in each direction."""

    def test_forward_walk_exceeds_n_max(self, capsys):
        code, out, err = run(capsys, "circle", "certify", "--map", PLATEAU_CIRCLE_PATH,
                             "--delta", "1/64", "--n-max", "1")
        assert_one_error_line(code, out, err)
        assert "forward orbit exceeded n_max = 1" in err

    def test_forward_walk_within_n_max(self, capsys):
        code, out, _ = run(capsys, "circle", "certify", "--map", PLATEAU_CIRCLE_PATH,
                           "--delta", "1/64", "--n-max", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["horizon"] == 2
        assert [entry["n"] for entry in doc["trace"]] == [-2, -1, 0, 1, 2]

    @pytest.mark.parametrize("n_max", ["1", "2"])
    def test_backward_walk_exceeds_n_max(self, capsys, n_max):
        code, out, err = run(capsys, "circle", "certify", "--map", PLATEAU_INVERSE_MAP,
                             "--delta", "1/64", "--n-max", n_max)
        assert_one_error_line(code, out, err)
        assert f"backward orbit exceeded n_max = {n_max}" in err

    def test_backward_walk_within_n_max(self, capsys):
        code, out, _ = run(capsys, "circle", "certify", "--map", PLATEAU_INVERSE_MAP,
                           "--delta", "1/64", "--n-max", "3")
        assert code == 0
        assert json.loads(out)["horizon"] == 3
        code, out, _ = run(capsys, "circle", "verify", "--cert", out)
        assert code == 0 and json.loads(out)["ok"] is True


class TestVerifyBudget:
    """Replaying a circle certificate iterates the map q times per endpoint,
    so verify takes the --q-max budget that certify searched under."""

    def test_huge_q_exits_one_fast(self, capsys):
        doc = _certificate(capsys, "circle", m0_circle_document())
        doc["q"] = 100000
        start = perf_counter()
        code, out, err = run(capsys, "circle", "verify", "--cert", json.dumps(doc))
        assert perf_counter() - start < 2
        assert_one_error_line(code, out, err)
        assert "q_max" in err

    @pytest.mark.parametrize("q_max", ["80", "4"])
    def test_round_trip_at_the_certify_budget(self, capsys, q_max):
        code, out, _ = run(capsys, "circle", "certify", "--map", QUARTER_TURN_MAP,
                           "--delta", "1/16", "--q-max", q_max)
        assert code == 0 and json.loads(out)["q"] == 4
        code, out, _ = run(capsys, "circle", "verify", "--cert", out, "--q-max", q_max)
        assert code == 0 and json.loads(out)["ok"] is True

    def test_verify_composes_nothing(self, capsys, monkeypatch):
        code, cert, _ = run(capsys, "circle", "certify", "--map", QUARTER_TURN_MAP,
                            "--delta", "1/16")
        assert code == 0
        calls = []
        compose = circle.compose_circle

        def counted(outer, inner):
            calls.append(1)
            return compose(outer, inner)

        monkeypatch.setattr(circle, "compose_circle", counted)
        code, out, _ = run(capsys, "circle", "verify", "--cert", cert)
        assert code == 0 and json.loads(out)["ok"] is True
        assert calls == []
        run(capsys, "circle", "certify", "--map", QUARTER_TURN_MAP, "--delta", "1/16")
        assert len(calls) == 3

    def test_q_above_the_verify_budget_exits_one(self, capsys):
        code, cert, _ = run(capsys, "circle", "certify", "--map", QUARTER_TURN_MAP,
                            "--delta", "1/16")
        assert code == 0
        assert_one_error_line(*run(capsys, "circle", "verify", "--cert", cert,
                                   "--q-max", "3"))


class TestInterval:
    def test_valley_certificate(self, capsys):
        code, out, _ = run(
            capsys, "interval", "certify", "--map",
            json.dumps(valley_interval_document()), "--delta", "1/16",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["space"] == "interval"
        assert doc["q"] == 1

    def test_reflection_all_fixed(self, capsys):
        code, out, _ = run(
            capsys, "interval", "certify", "--map",
            json.dumps(reflection_interval_document()), "--delta", "1/16",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "all_fixed"
        assert doc["power"] == 2


class TestHostilePLDocuments:
    """PL map and observable lists that are not JSON lists get exit 1 and one
    error line: no traceback, and a string is not read as its characters."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("circle", "rotnum", "--map",
             json.dumps({"breakpoints": 5, "lift_values": ["1/3"]})),
            ("circle", "rotnum", "--map",
             json.dumps({"breakpoints": "0", "lift_values": ["1/3"]})),
            ("interval", "certify", "--delta", "1/16", "--map",
             json.dumps({"breakpoints": "01", "values": ["0", "1"]})),
            ("interval", "certify", "--delta", "1/16", "--map",
             json.dumps({"breakpoints": ["0", "1"], "values": 7})),
            ("circle", "certify", "--delta", "1/16",
             "--map", json.dumps(m0_circle_document()),
             "--gap-observable", json.dumps({"breakpoints": 3, "values": ["0", "1"]})),
        ],
        ids=["int-breakpoints", "string-breakpoints", "string-interval-breakpoints",
             "int-values", "int-gap-breakpoints"],
    )
    def test_rejected_with_one_error_line(self, capsys, argv):
        assert_one_error_line(*run(capsys, *argv))


def _certificate(capsys, space, map_doc):
    code, out, _ = run(
        capsys, space, "certify", "--map", json.dumps(map_doc), "--delta", "1/16"
    )
    assert code == 0
    return json.loads(out)


class TestHostileCertificates:
    """Certificates of the wrong JSON shape get exit 1 and one error line."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"tail": [1]},
            {"tail": {"forward": 5}},
            {"tail": {"forward": {"span": "0", "slope": "1"}}},
            {"trace": [{"n": 0}]},
            {"trace": 5},
            {"trace": [5]},
            {"q": 1.5},
            {"horizon": True},
            {"horizon": -1, "trace": []},
            {"direction": "1"},
            {"arc": 5},
            {"probe": ["0"]},
            {"space": "banana"},
            {"space": ["circle"]},
            {"direction": 0},
            {"direction": 2},
            {"mode": "banana"},
            {"mode": None},
        ],
        ids=["list-tail", "int-tail-entry", "string-tail-span", "trace-entry-lacks-keys",
             "int-trace", "int-trace-entry", "float-q", "bool-horizon",
             "negative-horizon", "string-direction", "int-arc", "short-probe",
             "unknown-space", "list-space", "zero-direction", "two-direction",
             "unknown-mode", "null-mode"],
    )
    def test_rejected_with_one_error_line(self, capsys, changes):
        doc = {**_certificate(capsys, "circle", m0_circle_document()), **changes}
        assert_one_error_line(*run(capsys, "circle", "verify", "--cert", json.dumps(doc)))

    def test_interval_probe_outside_the_interval_is_a_violation(self, capsys):
        doc = _certificate(capsys, "interval", valley_interval_document())
        doc["probe"] = ["3/2", "7/4"]
        code, out, err = run(capsys, "circle", "verify", "--cert", json.dumps(doc))
        assert code == 2
        assert err == ""
        violations = json.loads(out)["violations"]
        assert "probe interval is not strictly inside the arc" in violations
        assert any(v.startswith("trace mismatch") for v in violations)


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


class TestInvariants:
    def test_no_assert_statements_in_the_package(self):
        # Invariants must survive python -O, which strips assert statements,
        # and reach the user as InvariantViolation (exit 2), not a traceback.
        for path in sorted(Path(expobs.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
            assert not found, f"{path.name} asserts at lines {found}"

    def test_broken_invariant_exits_two(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantViolation("arc interior point 1/4 is fixed")

        monkeypatch.setattr(cli, "interval_pipeline", broken)
        code, out, err = run(
            capsys, "interval", "certify", "--map",
            json.dumps(valley_interval_document()), "--delta", "1/16",
        )
        assert_one_error_line(code, out, err, expected_code=2)


class TestPlot:
    def test_svg_output(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        run(
            capsys, "analyze", "--system", L4_DOC, "--observable", SPLIT_OBS,
            "--out", str(report_path),
        )
        code, out, _ = run(capsys, "plot", "--report", str(report_path))
        assert code == 0
        assert out.startswith("<?xml")
        assert "<svg" in out

    def test_malformed_report_exits_one(self, capsys):
        code, _, err = run(capsys, "plot", "--report", '{"report": "nope"}')
        assert code == 1
