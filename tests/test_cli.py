"""Scenario parsing, report structure and the command-line interface."""

import json

import pytest
from click.testing import CliRunner

from legfol.cli import demo_names, main
from legfol.runner import IDENTITIES, run_scenario
from legfol.scenario import (
    ScenarioError,
    parse_scenario,
    serialize_scenario,
)

GOOD = """\
scenario smoke

graph paraboloid
  n = 2
  k = 3
  z = (x2^2 + y2^2) / 2  # curved hypersurface
end

check residuals
  kind = residuals
  target = paraboloid
  tol = 1e-10
  samples = 20
end
"""


class TestParsing:
    def test_round_trip(self):
        sc = parse_scenario(GOOD)
        again = parse_scenario(serialize_scenario(sc))
        assert again == sc
        assert sc.name == "smoke"
        assert [b.kind for b in sc.blocks] == ["graph", "check"]

    def test_comments_stripped(self):
        sc = parse_scenario(GOOD)
        assert sc.find("graph", "paraboloid").get("z") \
            == "(x2^2 + y2^2) / 2"

    def test_unknown_block_kind(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("martian x\nend\n")

    def test_unterminated_block(self):
        with pytest.raises(ScenarioError, match="unterminated"):
            parse_scenario("graph g\n  n = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("graph g\n  n 2\nend\n")

    def test_duplicate_declaration(self):
        text = "graph g\n n = 2\n k = 3\nend\ngraph g\n n = 2\n k = 3\nend\n"
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(text)


class TestRunner:
    def test_report_shape(self):
        report = run_scenario(parse_scenario(GOOD), seed=3)
        assert report["schema"] == 1
        assert report["scenario"] == "smoke"
        assert report["seed"] == 3
        assert report["passed"] is True
        (entry,) = report["checks"]
        assert entry["kind"] == "residuals"
        assert entry["identity"] == IDENTITIES["residuals"]
        assert entry["ok"] is True

    def test_deterministic_modulo_wall_time(self):
        a = run_scenario(parse_scenario(GOOD), seed=11)
        b = run_scenario(parse_scenario(GOOD), seed=11)
        a.pop("wall_time")
        b.pop("wall_time")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_expectation_mismatch_fails_report(self):
        text = GOOD.replace("check residuals", "check residuals") \
            .replace("samples = 20", "samples = 20\n  expect = fail")
        report = run_scenario(parse_scenario(text))
        assert report["passed"] is False


class TestCli:
    def test_check_file(self, tmp_path):
        path = tmp_path / "smoke.scn"
        path.write_text(GOOD)
        out = tmp_path / "report.json"
        runner = CliRunner()
        result = runner.invoke(main, ["check", str(path), "--json", str(out)])
        assert result.exit_code == 0, result.output
        assert "PASS smoke" in result.output
        report = json.loads(out.read_text())
        assert report["passed"] is True

    def test_failing_scenario_exits_nonzero(self, tmp_path):
        text = GOOD.replace("tol = 1e-10", "tol = 1e-10\n  expect = fail")
        path = tmp_path / "bad.scn"
        path.write_text(text)
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_parse_error_exits_two(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text("graph g\n  n 2\nend\n")
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 2

    def test_overrides_rewrite_checks(self, tmp_path):
        path = tmp_path / "smoke.scn"
        path.write_text(GOOD)
        out = tmp_path / "report.json"
        result = CliRunner().invoke(
            main, ["check", str(path), "--samples", "5", "--json", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["detail"]["samples"] == 5

    def test_demo_listing_and_unknown(self):
        runner = CliRunner()
        listing = runner.invoke(main, ["demo"])
        assert listing.exit_code == 0
        assert "flat-bundle" in listing.output
        bad = runner.invoke(main, ["demo", "no-such-demo"])
        assert bad.exit_code == 2


ZERO_SAMPLES = GOOD + """
germ wave
  type = nonsingular
  n = 2
  f = 2 + sin(x1)
end

check no-samples
  kind = {kind}
  target = {target}
  samples = 0
  {extra}
end
"""


class TestSampleCount:
    """samples = 0 is an input error for every check kind that samples,
    whatever the expectation."""

    @pytest.mark.parametrize("kind, target, extra", [
        ("residuals", "paraboloid", "expect = refuse"),
        ("claim", "paraboloid", "expect = pass"),
        ("contact-scan", "wave", "expect = refuse"),
        ("germ-volume", "wave", "f = 2 + sin(x1)"),
        ("zero-section", "wave", "f = 2 + sin(x1)"),
    ])
    def test_zero_samples_rejected(self, kind, target, extra):
        text = ZERO_SAMPLES.format(kind=kind, target=target, extra=extra)
        line = text.splitlines().index("check no-samples") + 1
        with pytest.raises(ScenarioError, match=f"line {line}: samples"):
            run_scenario(parse_scenario(text))

    def test_check_exits_two(self, tmp_path):
        path = tmp_path / "zero.scn"
        path.write_text(ZERO_SAMPLES.format(
            kind="residuals", target="paraboloid", extra="expect = refuse"))
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 2
        assert "samples must be at least 1" in result.output
        assert "PASS" not in result.output

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_samples_option_exits_two(self, value):
        result = CliRunner().invoke(
            main, ["demo", "commuting-fields-n2", "--samples", value])
        assert result.exit_code == 2
        assert "--samples" in result.output

    def test_unknown_expectation_exits_two(self, tmp_path):
        path = tmp_path / "maybe.scn"
        path.write_text(GOOD.replace("samples = 20",
                                     "samples = 20\n  expect = maybe"))
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 2
        assert "line 9: expect must be" in result.output


class TestBundledScenarios:
    @pytest.mark.parametrize("name", demo_names())
    def test_demo_passes(self, name):
        result = CliRunner().invoke(main, ["demo", name, "--seed", "5"])
        assert result.exit_code == 0, result.output
