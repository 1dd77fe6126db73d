"""Scenario parsing, report structure and the command-line interface."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from legfol import germ, runner
from legfol.cli import demo_names, main
from legfol.runner import KINDS, REQUIRED, run_scenario
from legfol.scenario import ScenarioError, parse_scenario

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


ROOT = Path(__file__).resolve().parents[1]


class TestParsing:
    def test_comments_stripped(self):
        sc = parse_scenario(GOOD)
        assert sc.name == "smoke"
        assert [(b.kind, b.name) for b in sc.blocks] \
            == [("graph", "paraboloid"), ("check", "residuals")]
        assert sc.blocks[0].get("z") == "(x2^2 + y2^2) / 2"

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
        assert entry["identity"] == KINDS["residuals"].identity
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


CCL_PROBE = """\
bundle circle
  type = rotation
  rates = 0.25
end

form area
  on = fiber circle
  u = 0 - v
  v = u
end

check invariant
  kind = ccl
  target = {target}
  form = {form}
end
"""

SINGULAR_GERM = """\
bundle circle
  type = rotation
  rates = 0.25
end

form area
  on = fiber {on}
  u = 0 - v
  v = u
end

germ sing
  type = singular
  bundle = {bundle}
  form = {form}
end
"""


NONSINGULAR = """\
germ flat
  type = nonsingular
  n = 2
  f = {f}
end

check contact
  kind = contact-scan
  target = flat
  expect = refuse
end

check section
  kind = zero-section
  target = flat
  f = {f}
  expect = refuse
end
"""


class TestUnknownNames:
    """Malformed input exits 2 with the block's line, whatever the
    expectation; kinds and names are resolved before any check runs."""

    def exits_two(self, tmp_path, text, message, line):
        path = tmp_path / "probe.scn"
        path.write_text(text)
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 2, result.output
        assert f"line {line}: {message}" in result.output
        assert not any(row.startswith(("ok", "FAIL", "PASS"))
                       for row in result.output.splitlines())

    def test_unknown_residuals_target_is_not_a_refusal(self, tmp_path):
        text = GOOD.replace("target = paraboloid", "target = nosuch") \
            .replace("samples = 20", "samples = 20\n  expect = refuse")
        self.exits_two(tmp_path, text, "no graph named 'nosuch'", 9)

    @pytest.mark.parametrize("target, form, missing", [
        ("nosuch", "area", "no bundle named 'nosuch'"),
        ("circle", "nosuch", "no form named 'nosuch'"),
        ("area", "area", "no bundle named 'area'"),
    ])
    def test_unknown_ccl_names(self, tmp_path, target, form, missing):
        text = CCL_PROBE.format(target=target, form=form)
        self.exits_two(tmp_path, text, missing, 12)

    def test_unknown_check_kind(self, tmp_path):
        text = GOOD.replace("kind = residuals", "kind = nosuch")
        self.exits_two(tmp_path, text, "unknown check kind 'nosuch'", 9)

    def test_missing_target(self, tmp_path):
        text = GOOD.replace("  target = paraboloid\n", "") \
            .replace("samples = 20", "samples = 20\n  expect = refuse")
        self.exits_two(tmp_path, text, "block 'residuals' is missing "
                       "'target'", 9)

    def test_rejected_before_any_check_runs(self):
        text = GOOD + GOOD.split("\n\n", 2)[2].replace(
            "check residuals", "check later").replace(
            "target = paraboloid", "target = nosuch")
        with pytest.raises(ScenarioError, match="line 15: no graph"):
            run_scenario(parse_scenario(text))

    @pytest.mark.parametrize("on, bundle, form, message, line", [
        ("nosuch", "circle", "area", "no bundle named 'nosuch'", 6),
        ("circle", "nosuch", "area", "no bundle named 'nosuch'", 12),
        ("circle", "circle", "nosuch", "no form named 'nosuch'", 12),
    ])
    def test_unknown_declaration_names(self, tmp_path, on, bundle, form,
                                       message, line):
        text = SINGULAR_GERM.format(on=on, bundle=bundle, form=form)
        self.exits_two(tmp_path, text, message, line)

    def test_malformed_value_is_not_a_refusal(self, tmp_path):
        text = GOOD.replace("tol = 1e-10", "tol = abc\n  expect = refuse")
        self.exits_two(tmp_path, text, "expected a number, got 'abc'", 9)

    @pytest.mark.parametrize("entry, key", [
        ("sampels = 0", "sampels"), ("tolerance = abc", "tolerance")])
    def test_misspelt_key_is_not_ignored(self, tmp_path, entry, key):
        text = GOOD.replace("samples = 20", f"samples = 20\n  {entry}")
        self.exits_two(tmp_path, text, f"unknown key '{key}' for check kind "
                       f"'residuals'", 9)

    @pytest.mark.parametrize("text, message, line", [
        (CCL_PROBE.format(target="circle", form="area").replace(
            "rates = 0.25", "rates = 0.25\n  raduis = -1"),
         "unknown key 'raduis' for bundle 'circle'", 1),
        (SINGULAR_GERM.format(on="circle", bundle="circle", form="area")
         .replace("germ sing\n", "germ sing\n  orientaton = -1\n"),
         "unknown key 'orientaton' for germ 'sing'", 12),
        (NONSINGULAR.format(f="1 + x1^2").replace("n = 2", "n = 2\n  r3 = x1"),
         "unknown key 'r3' for germ 'flat'", 1),
        ("chart plane\n  vars = a b\n  extra = 1\nend\n",
         "unknown key 'extra' for chart 'plane'", 1),
        (CCL_PROBE.format(target="circle", form="area").replace(
            "type = rotation", "type = helix"),
         "unknown bundle type 'helix'", 1),
    ], ids=["bundle-raduis", "germ-orientaton", "germ-r3", "chart-extra",
            "bundle-type"])
    def test_declaration_key_is_not_ignored(self, tmp_path, text, message,
                                            line):
        self.exits_two(tmp_path, text, message, line)

    def test_nonsingular_germ_takes_r1_to_rn(self):
        text = NONSINGULAR.format(f="1 + x1^2").replace(
            "n = 2", "n = 2\n  r1 = x1\n  r2 = x2")
        assert len(runner._resolve(parse_scenario(text), {})) == 2

    def test_values_parsed_before_any_check_runs(self, tmp_path, monkeypatch):
        text = GOOD + GOOD.split("\n\n", 2)[2].replace(
            "check residuals", "check later").replace("tol = 1e-10",
                                                      "tol = abc")
        ran = []
        monkeypatch.setitem(runner.CHECKS, "residuals",
                            lambda env, b: ran.append(b.name))
        with pytest.raises(ScenarioError, match="line 15: expected a number"):
            run_scenario(parse_scenario(text))
        self.exits_two(tmp_path, text, "expected a number, got 'abc'", 15)
        assert ran == []

    @pytest.mark.parametrize("text, message, line", [
        (GOOD.replace("  z = ", "  zz = x1\n  z = "),
         "unexpected components ['zz']", 3),
        (CCL_PROBE.format(target="circle", form="area").replace(
            "rates = 0.25", "rates = 0.25\n  radius = -1"),
         "radius must be positive", 1),
        (CCL_PROBE.format(target="circle", form="area").replace(
            "on = fiber circle", "on = fiber"),
         "form 'on' must be 'fiber NAME' or 'chart NAME'", 6),
    ], ids=["graph-component", "bundle-radius", "form-on-without-name"])
    def test_declaration_value_error_exits_two(self, tmp_path, text, message,
                                               line):
        self.exits_two(tmp_path, text, message, line)

    @pytest.mark.parametrize("text, message, line", [
        (GOOD.replace("(x2^2 + y2^2) / 2", "x9 + 1"),
         "expression references ['x9'] outside chart", 3),
        (GOOD.replace("(x2^2 + y2^2) / 2", "(x2^2 +"),
         "unexpected end of expression", 3),
        (ZERO_SAMPLES.format(kind="germ-volume", target="wave",
                             extra="f = 2 + sin(q1)\n  expect = refuse"),
         "expression references ['q1'] outside chart", 22),
        (ZERO_SAMPLES.format(kind="perturb", target="paraboloid",
                             extra="n = 2\n  bump = 0.1 * y1 * exp(0 - y1^"
                                   "\n  expect = refuse").replace(
            "perturb\n  target = paraboloid\n", "perturb\n"),
         "expected integer exponent", 22),
        (GOOD.replace("(x2^2 + y2^2) / 2", "(" * 300 + "x1" + ")" * 300),
         "nested deeper than 100 levels", 3),
    ], ids=["unknown-variable", "unfinished-graph", "germ-volume-f",
            "perturb-bump", "deep-nesting"])
    def test_malformed_expression_is_not_a_refusal(self, tmp_path, text,
                                                   message, line):
        self.exits_two(tmp_path, text.replace("samples = 0", "samples = 5"),
                       message, line)

    def test_zero_section_needs_form_or_f(self, tmp_path):
        text = ZERO_SAMPLES.format(kind="zero-section", target="wave",
                                   extra="expect = refuse").replace(
            "samples = 0", "samples = 5")
        line = text.splitlines().index("check no-samples") + 1
        self.exits_two(tmp_path, text, "block 'no-samples' is missing "
                       "'form'", line)

    def test_optional_form_may_be_left_out(self):
        text = ZERO_SAMPLES.format(kind="zero-section", target="wave",
                                   extra="f = 2 + sin(x1)").replace(
            "samples = 0", "samples = 5")
        report = run_scenario(parse_scenario(text))
        assert report["checks"][-1]["detail"]["passed"] is True

    def test_bundled_refusals_keep_their_reasons(self):
        for name, check, reason in [
                ("tangency-counterexample", "frame-refused",
                 "not coisotropic at sampled points"),
                ("germ-singular", "flipped-orientation-refused",
                 "co-orientation mismatch at the singular set")]:
            text = (Path(__file__).resolve().parents[1] / "src" / "legfol"
                    / "scenarios" / f"{name}.scn").read_text()
            report = run_scenario(parse_scenario(text), seed=9)
            (entry,) = [c for c in report["checks"] if c["name"] == check]
            assert entry["ok"] and entry["detail"]["refused"]
            assert "error" not in entry
            assert entry["detail"]["reason"] == reason


class TestOverrides:
    """--tol and --samples replace only keys the check's kind declares."""

    def test_samples_skips_kinds_without_samples(self):
        # transport and ccl take no samples
        result = CliRunner().invoke(main, ["demo", "flat-bundle",
                                           "--samples", "5"])
        assert result.exit_code == 0, result.output

    def test_samples_zero_still_exits_two(self):
        result = CliRunner().invoke(main, ["demo", "flat-bundle",
                                           "--samples", "0"])
        assert result.exit_code == 2


def test_benchmark_and_demo_inputs_resolve():
    """Every scenario the benchmark generates, and every demo, uses only the
    keys its check kinds declare."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = [text for w in workloads.WORKLOADS for seed in range(3)
             for text in workloads.generate(w, seed)]
    texts += [(ROOT / "src" / "legfol" / "scenarios" / f"{name}.scn")
              .read_text() for name in demo_names()]
    for text in texts:
        sc = parse_scenario(text)
        assert len(runner._resolve(sc, {})) == len(sc.checks())


def test_benchmark_tracer_imports():
    """The benchmark's tracer reads classes of the package (LinSubspace,
    Chart, ExprField, DiffForm) when it is imported; a change that removes
    one makes every benchmark run fail before any check runs."""
    pytest.importorskip("scipy")
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert Path(tracing.symplin.__file__).is_relative_to(ROOT / "src")


def test_readme_table_is_kinds():
    def value(key, default):
        if default == REQUIRED:
            return f"`{key}` (required)"
        return f"`{key}`" if default is None else f"`{key}` = {default}"

    rows = []
    for name, kind in KINDS.items():
        names = ", ".join(f"`{key}` ({decl})"
                          for key, decl in kind.names.items()) or "none"
        values = ", ".join(value(key, default)
                           for key, (_, default) in kind.values.items())
        rows.append(f"| `{name}` | {names} | {values} |")
    readme = (ROOT / "README.md").read_text().splitlines()
    assert [line for line in readme if line.startswith("| `")] == rows


class TestGermBuilds:
    """A germ is built once, when a check first names it; a failed build
    belongs to every check that names it."""

    def run(self, tmp_path, monkeypatch, f):
        build, calls = germ.build_nonsingular_germ, []
        monkeypatch.setattr(germ, "build_nonsingular_germ",
                            lambda inp: calls.append(inp) or build(inp))
        path, out = tmp_path / "germ.scn", tmp_path / "report.json"
        path.write_text(NONSINGULAR.format(f=f))
        result = CliRunner().invoke(main, ["check", str(path),
                                           "--json", str(out)])
        assert len(calls) == 1
        return result, json.loads(out.read_text())["checks"]

    def test_refused_build_refuses_each_check(self, tmp_path, monkeypatch):
        result, checks = self.run(tmp_path, monkeypatch, "0")
        assert result.exit_code == 0, result.output
        for entry in checks:
            assert entry["ok"]
            assert entry["detail"] == {"passed": False, "refused": True}
            assert entry["error"] == ("GermBuildError: defining form "
                                      "vanishes at a sample")

    def test_faulty_build_is_an_error(self, tmp_path, monkeypatch):
        result, checks = self.run(tmp_path, monkeypatch, "exp(1000 * x1)")
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        for entry in checks:
            assert not entry["ok"]
            assert entry["detail"] == {"passed": False, "refused": False}
            assert entry["error"].startswith("EvaluationError: row ")


NO_SCIPY = """\
import sys
from legfol.cli import main
for name in sys.argv[1:]:
    try:
        main(["demo", name])
    except SystemExit as exc:
        assert exc.code == 0, (name, exc.code)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


class TestNumericalFaults:
    """A numerical fault raised while a check runs is the outcome error: not
    a refusal, ok under no expectation, and exit 1 without a traceback."""

    @pytest.mark.parametrize("z, exception", [
        # the overflow sits at the bottom of a chain 600 terms deep
        (" + ".join(["exp(1000 * x1)"] + ["x1 * x2"] * 599),
         "EvaluationError: row "),
        ("exp(1000 * x1)", "EvaluationError: row "),
    ], ids=["600-term-sum", "exp-overflow"])
    @pytest.mark.parametrize("expect", ["pass", "fail", "refuse"])
    def test_fault_is_an_error(self, tmp_path, z, exception, expect):
        text = GOOD.replace("(x2^2 + y2^2) / 2  # curved hypersurface", z) \
            .replace("samples = 20", f"samples = 20\n  expect = {expect}")
        path, out = tmp_path / "probe.scn", tmp_path / "report.json"
        path.write_text(text)
        result = CliRunner().invoke(main, ["check", str(path),
                                           "--json", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "FAIL residuals [residuals]" in result.output
        (entry,) = json.loads(out.read_text())["checks"]
        assert entry["ok"] is False
        assert entry["detail"] == {"passed": False, "refused": False}
        assert entry["error"].startswith(exception)


class TestLongSums:
    """A sum of thousands of terms is a chain as deep as it is long; every
    walk over it is a loop, so it gets the verdict of the equal product."""

    def run(self, tmp_path, z):
        text = GOOD.replace("(x2^2 + y2^2) / 2  # curved hypersurface", z)
        path, out = tmp_path / "probe.scn", tmp_path / "report.json"
        path.write_text(text)
        result = CliRunner().invoke(main, ["check", str(path),
                                           "--json", str(out)])
        (entry,) = json.loads(out.read_text())["checks"]
        return result, entry

    @pytest.mark.parametrize("terms", [600, 5000])
    def test_verdict_matches_the_product(self, tmp_path, terms):
        result, entry = self.run(tmp_path, " + ".join(["x1 * x2"] * terms))
        _, want = self.run(tmp_path, f"{terms} * x1 * x2")
        assert "error" not in entry and "error" not in want
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "FAIL residuals [residuals]" in result.output
        assert entry["ok"] is want["ok"] is False
        assert want["detail"]["passed"] is False
        assert entry["detail"] == {**want["detail"], "max_residual":
                                   pytest.approx(want["detail"]["max_residual"],
                                                 rel=1e-9)}


def test_demos_load_no_scipy():
    """scipy is a test-only dependency: running demos in a fresh interpreter
    imports none of it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, "legendrian-perturbation",
         "germ-singular"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert "PASS legendrian-perturbation" in proc.stdout
    assert "PASS germ-singular" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"
