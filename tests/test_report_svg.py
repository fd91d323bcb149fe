import json
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from expobs.errors import DegenerateSpace, MalformedReport
from expobs.exact import GaussianRational
from expobs.model import FiniteSystem, Observable
from expobs.report import analyze, law_report_document, render_report
from expobs.sampling import random_observable
from expobs.svg import plot


def observables(system, count, seed):
    rng = random.Random(seed)
    return tuple(random_observable(rng, system) for _ in range(count))


@pytest.fixture(scope="module")
def l4_report(l4):
    phis = observables(l4, 3, seed=5)
    return analyze(l4, phis, thresholds=(Fraction(1), Fraction(3)), seed=123)


class TestAnalyze:
    def test_top_level_shape(self, l4_report):
        assert set(l4_report) == {
            "report",
            "provenance",
            "inputs",
            "system",
            "observables",
            "quotients",
            "periodic_levels",
        }
        assert l4_report["provenance"]["seed"] == 123
        assert "timestamp" not in json.dumps(l4_report)

    def test_system_block(self, l4_report):
        sys_block = l4_report["system"]
        assert sys_block["e_star"] == "1"
        assert sys_block["mesh"] == "1"
        assert len(sys_block["pointwise_constants"]) == 4
        assert sys_block["expansive_at_resolution"] in (True, False)

    def test_observable_entries(self, l4_report):
        assert len(l4_report["observables"]) == 3
        for entry in l4_report["observables"]:
            assert "delta_star" in entry
            assert "sigma_star_sq" in entry
            assert isinstance(entry["omega_obs_table"], list)

    def test_quotients_cover_thresholds(self, l4_report):
        assert [q["threshold"] for q in l4_report["quotients"]] == ["1", "3"]

    def test_degenerate_space_rejected(self):
        one = FiniteSystem.build(("p",), [[Fraction(0)]], {"p": "p"})
        with pytest.raises(DegenerateSpace):
            analyze(one)

    def test_render_is_deterministic(self, l4, cat5):
        for system in (l4, cat5):
            phis = observables(system, 2, seed=8)
            texts = {render_report(analyze(system, phis, seed=9)) for _ in range(3)}
            assert len(texts) == 1

    def test_json_round_trip(self, l4_report):
        text = render_report(l4_report)
        assert json.loads(text) == l4_report
        assert text.endswith("\n")

    def test_self_describing_replay(self, l4_report, l4):
        """The inputs block must regenerate the identical report."""
        from expobs.model import parse_observable, parse_system

        inputs = l4_report["inputs"]
        system = parse_system(inputs["system"])
        phis = tuple(
            parse_observable(doc, system) for doc in inputs["observables"]
        )
        again = analyze(
            system,
            phis,
            resolution=Fraction(inputs["resolution"]),
            thresholds=tuple(Fraction(t) for t in inputs["thresholds"]),
            periodic_levels=tuple(inputs["periodic_levels"]),
            seed=l4_report["provenance"]["seed"],
        )
        assert render_report(again) == render_report(l4_report)


class TestSvg:
    def test_plot_is_valid_xml(self, l4_report):
        text = plot(l4_report)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_plot_deterministic(self, l4_report):
        assert plot(l4_report) == plot(l4_report)

    def test_infinite_bars_are_hatched(self, l4, cat5):
        const = Observable.constant(l4, GaussianRational.of(4))
        report = analyze(l4, (const,), seed=0)
        text = plot(report)
        assert "inf-hatch" in text
        assert "inf" in text

    def test_blocks_panel_lists_points(self, l4_report):
        text = plot(l4_report)
        for p in ("0", "1", "2", "3"):
            assert p in text

    def test_malformed_report_rejected(self):
        with pytest.raises(MalformedReport):
            plot({"report": "wrong-kind"})
        with pytest.raises(MalformedReport):
            plot({})
        with pytest.raises(MalformedReport):
            plot("[]")

    @pytest.mark.parametrize(
        "part",
        [
            {"observables": [5]},
            {"observables": [None]},
            {"observables": [{"delta_star": "1", "index": "a"}, {"delta_star": "1", "index": 0}]},
            {"quotients": [{"threshold": "1", "blocks": 3}]},
            {"quotients": [{"threshold": "1", "blocks": [["0"], 7]}]},
        ],
        ids=["int-observable", "null-observable", "string-index", "int-blocks", "int-block"],
    )
    def test_malformed_entries_rejected(self, l4_report, part):
        with pytest.raises(MalformedReport):
            plot({**l4_report, **part})


class TestLawReportDocument:
    def test_document_carries_provenance(self, l4):
        from expobs.algebra import law_suite

        doc = law_report_document(law_suite(l4, trials=4, seed=2))
        assert doc["passed"] is True
        assert "provenance" in doc
