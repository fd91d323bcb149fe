import json

import pytest

from expobs.cli import main
from expobs.library import (
    m0_circle_document,
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

    def test_laws_pass(self, capsys):
        code, out, _ = run(
            capsys, "laws", "--system", L4_DOC, "--trials", "20", "--seed", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["checks"] == 100

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
