"""Tests for the reprolint static-analysis suite (tools/reprolint).

Two halves:

* fixture tests — tiny synthetic source trees violating each of the
  five rule families, asserting rule IDs, file:line locations, JSON
  output, and inline suppressions;
* the tier-1 **gate** (:class:`TestSrcGate`) — runs the default
  configuration over the real ``src/`` tree and fails the suite on any
  gating finding, so invariant violations break ``pytest``, not just CI.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.reprolint import LintConfig, Severity, lint_paths
from tools.reprolint.cli import main as reprolint_main
from tools.reprolint.engine import module_name_for
from tools.reprolint.registry import all_rules
from tools.reprolint.suppressions import disabled_rules_on_line

REPO_ROOT = Path(__file__).resolve().parents[2]


#: This file exercises the v1 per-file rule families in isolation; the
#: flow/whole-program families have their own fixtures in
#: test_reprolint_v2.py and would add noise findings (e.g. RL704 on the
#: deliberately minimal imports) to the assertions below.
V1_FAMILIES = ["layering", "rng", "dtype", "safety", "theory"]


def make_tree(root: Path, files: dict) -> LintConfig:
    """Write ``{relpath: source}`` under ``root`` and return a config."""
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return LintConfig(root=root, enabled_families=list(V1_FAMILIES))


def run_lint(root: Path, files: dict):
    config = make_tree(root, files)
    return lint_paths([root / "src"], config), config


def rule_ids(report):
    return [f.rule_id for f in report.findings]


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# Framework basics
# ---------------------------------------------------------------------------


class TestFramework:
    def test_registry_has_all_eight_families(self):
        families = {cls.family for cls in all_rules()}
        assert families == {
            "layering",
            "rng",
            "dtype",
            "safety",
            "theory",
            "provenance",
            "hygiene",
            "concurrency",
        }

    def test_rule_ids_unique_and_documented(self):
        rules = all_rules()
        ids = [cls.rule_id for cls in rules]
        assert len(ids) == len(set(ids))
        for cls in rules:
            assert cls.description, f"{cls.rule_id} lacks a description"

    def test_module_name_derivation(self, tmp_path):
        config = make_tree(tmp_path, {"src/repro/core/x.py": "pass\n"})
        assert module_name_for(tmp_path / "src/repro/core/x.py", config) == (
            "repro.core.x"
        )
        assert module_name_for(tmp_path / "src/repro/core/x.py", config) is not None
        # __init__ maps to the package, non-src files map to None
        (tmp_path / "src/repro/__init__.py").write_text("")
        assert module_name_for(tmp_path / "src/repro/__init__.py", config) == "repro"
        (tmp_path / "other.py").write_text("")
        assert module_name_for(tmp_path / "other.py", config) is None

    def test_syntax_error_reported_not_raised(self, tmp_path):
        report, _ = run_lint(tmp_path, {"src/repro/bad.py": "def broken(:\n"})
        assert rule_ids(report) == ["RL000"]
        assert report.exit_code == 1


# ---------------------------------------------------------------------------
# RL1xx layering
# ---------------------------------------------------------------------------


class TestLayeringRules:
    def test_upward_import_flagged_with_location(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/core/bad.py": """\
                '''Doc.'''
                from repro.fl.server import FederatedServer
                """
            },
        )
        assert rule_ids(report) == ["RL100"]
        f = report.findings[0]
        assert f.path == "src/repro/core/bad.py"
        assert f.line == 2
        assert "repro.fl.server" in f.message
        assert f.severity is Severity.ERROR

    def test_downward_and_same_layer_imports_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/ok.py": """\
                from repro.core.proximal import QuadraticProx
                from repro.utils.rng import as_generator
                from repro.fl.history import TrainingHistory
                import numpy as np
                """
            },
        )
        assert rule_ids(report) == []

    def test_relative_upward_import_resolved(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/core/local/bad.py": """\
                from ...fl import server
                """
            },
        )
        assert rule_ids(report) == ["RL100"]

    def test_unmapped_module_defaults_to_top_layer(self, tmp_path):
        # Importing an unclassified repro submodule flags until it is
        # added to the layer map (silence is opt-in).
        report, _ = run_lint(
            tmp_path,
            {"src/repro/core/bad.py": "from repro.newthing import x\n"},
        )
        assert rule_ids(report) == ["RL100"]

    def test_wildcard_import_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {"src/repro/fl/agg.py": "from repro.utils.rng import *\n"},
        )
        assert rule_ids(report) == ["RL101"]


# ---------------------------------------------------------------------------
# RL2xx RNG discipline
# ---------------------------------------------------------------------------


class TestRngRules:
    def test_global_seed_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/datasets/bad.py": """\
                import numpy as np
                np.random.seed(0)
                """
            },
        )
        assert rule_ids(report) == ["RL200"]
        assert report.findings[0].line == 2

    def test_randomstate_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/datasets/bad.py": """\
                import numpy as np
                rng = np.random.RandomState(7)
                """
            },
        )
        assert rule_ids(report) == ["RL201"]

    def test_module_level_draws_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/datasets/bad.py": """\
                import numpy as np
                x = np.random.rand(3)
                y = np.random.choice([1, 2])
                """
            },
        )
        assert rule_ids(report) == ["RL202", "RL202"]

    def test_direct_from_import_draw_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/datasets/bad.py": """\
                from numpy.random import randint
                n = randint(10)
                """
            },
        )
        assert rule_ids(report) == ["RL202"]

    def test_generator_api_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/datasets/good.py": """\
                import numpy as np
                rng = np.random.default_rng(0)
                ss = np.random.SeedSequence(1)
                x = rng.normal(size=3)
                """
            },
        )
        assert rule_ids(report) == []

    def test_files_outside_src_not_in_scope(self, tmp_path):
        config = make_tree(
            tmp_path, {"scripts/demo.py": "import numpy as np\nnp.random.seed(0)\n"}
        )
        report = lint_paths([tmp_path / "scripts"], config)
        assert rule_ids(report) == []


# ---------------------------------------------------------------------------
# RL3xx dtype discipline
# ---------------------------------------------------------------------------


class TestDtypeRules:
    def test_narrow_astype_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/nn/bad.py": """\
                import numpy as np
                def f(x):
                    return x.astype(np.float32)
                """
            },
        )
        assert rule_ids(report) == ["RL300"]
        assert report.findings[0].line == 3

    def test_narrow_astype_string_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {"src/repro/nn/bad.py": "def f(x):\n    return x.astype('float16')\n"},
        )
        assert rule_ids(report) == ["RL300"]

    def test_narrow_creation_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/nn/bad.py": """\
                import numpy as np
                w = np.zeros((3, 3), dtype=np.float32)
                """
            },
        )
        assert rule_ids(report) == ["RL301"]

    def test_float64_clean_and_scope_respected(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/nn/good.py": """\
                import numpy as np
                w = np.zeros((3, 3), dtype=np.float64)
                idx = np.zeros(4, dtype=np.int64)
                """,
                # float32 outside the dtype-modules scope is not flagged
                "src/repro/fl/elsewhere.py": """\
                import numpy as np
                buf = np.zeros(8, dtype=np.float32)
                """,
            },
        )
        assert rule_ids(report) == []


# ---------------------------------------------------------------------------
# RL4xx safety
# ---------------------------------------------------------------------------


class TestSafetyRules:
    def test_bare_except_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/bad.py": """\
                def f():
                    try:
                        return 1
                    except:
                        return 0
                """
            },
        )
        assert rule_ids(report) == ["RL400"]
        assert report.findings[0].line == 4

    def test_mutable_default_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {"src/repro/fl/bad.py": "def f(x, acc=[]):\n    return acc\n"},
        )
        assert rule_ids(report) == ["RL401"]

    def test_unclamped_log_flagged_in_numeric_scope(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/core/proximal.py": """\
                import numpy as np
                def f(p):
                    return np.log(p)
                """
            },
        )
        assert rule_ids(report) == ["RL402"]
        assert report.findings[0].severity is Severity.WARNING

    def test_clamped_log_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/core/proximal.py": """\
                import numpy as np
                def f(p, eps=1e-12):
                    a = np.log(np.maximum(p, 1e-12))
                    b = np.log(p + 1e-12)
                    c = np.log(np.clip(p, 1e-12, 1.0))
                    return a + b + c
                """
            },
        )
        assert rule_ids(report) == []

    def test_exp_and_division_are_advisory_only(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/core/proximal.py": """\
                import numpy as np
                def f(x, n):
                    return np.exp(x) / n
                """
            },
        )
        assert sorted(rule_ids(report)) == ["RL403", "RL404"]
        assert all(f.severity is Severity.INFO for f in report.findings)
        assert report.exit_code == 0  # info findings never gate

    def test_log_out_of_scope_module_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {"src/repro/fl/bad.py": "import numpy as np\ny = np.log(3.0)\n"},
        )
        assert rule_ids(report) == []


# ---------------------------------------------------------------------------
# RL404 refinement regressions (positive provenance + lexical guard)
# ---------------------------------------------------------------------------


def run_safety(tmp_path, body):
    """Lint one module ``m`` that the safety family treats as numeric."""
    config = make_tree(tmp_path, {"src/m.py": body})
    config.enabled_families = ["safety"]
    config.numeric_modules = ["m"]
    return lint_paths([tmp_path / "src"], config), config


class TestRL404Refinement:
    def test_check_positive_suppresses(self, tmp_path):
        report, _ = run_safety(
            tmp_path,
            """
            from repro.utils.validation import check_positive

            def f(x, eta):
                check_positive("eta", eta)
                return x / eta
            """,
        )
        assert findings_for(report, "RL404") == []

    def test_len_or_one_suppresses(self, tmp_path):
        report, _ = run_safety(
            tmp_path,
            """
            def f(x, items):
                n = len(items) or 1
                return x / n
            """,
        )
        assert findings_for(report, "RL404") == []

    def test_max_with_positive_floor_suppresses(self, tmp_path):
        report, _ = run_safety(
            tmp_path,
            """
            def f(x, eps):
                den = max(eps, 1e-12)
                return x / den
            """,
        )
        assert findings_for(report, "RL404") == []

    def test_zero_guard_suppresses(self, tmp_path):
        report, _ = run_safety(
            tmp_path,
            """
            def f(x, n):
                if n == 0:
                    return x
                return x / n
            """,
        )
        assert findings_for(report, "RL404") == []

    def test_le_zero_guard_suppresses(self, tmp_path):
        report, _ = run_safety(
            tmp_path,
            """
            def f(x, n):
                if n <= 0:
                    raise ValueError("n")
                return x / n
            """,
        )
        assert findings_for(report, "RL404") == []

    def test_unproven_denominator_still_fires(self, tmp_path):
        report, _ = run_safety(
            tmp_path,
            """
            def f(x, n):
                return x / n
            """,
        )
        assert len(findings_for(report, "RL404")) == 1

    def test_nonterminating_guard_still_fires(self, tmp_path):
        # The guard body falls through, so zero still reaches the div.
        report, _ = run_safety(
            tmp_path,
            """
            def f(x, n):
                if n == 0:
                    x = 0.0
                return x / n
            """,
        )
        assert len(findings_for(report, "RL404")) == 1

    def test_strict_false_check_still_fires(self, tmp_path):
        report, _ = run_safety(
            tmp_path,
            """
            from repro.utils.validation import check_positive

            def f(x, mu):
                check_positive("mu", mu, strict=False)
                return x / mu
            """,
        )
        assert len(findings_for(report, "RL404")) == 1


# ---------------------------------------------------------------------------
# RL5xx theory contracts
# ---------------------------------------------------------------------------


class TestTheoryRules:
    def test_beta_at_most_three_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/bad.py": """\
                def run(cfg_cls):
                    return cfg_cls(beta=2.5, mu=0.1)
                """
            },
        )
        assert rule_ids(report) == ["RL500"]
        assert "beta=2.5" in report.findings[0].message

    def test_beta_grid_with_infeasible_entry_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {"src/repro/fl/bad.py": "space = SearchSpace(beta=(3.0, 5.0))\n"},
        )
        assert rule_ids(report) == ["RL500"]

    def test_tau_above_sarah_bound_flagged(self, tmp_path):
        # beta = 5: SARAH cap (13) is (5*25 - 20)/8 = 13.125 < 100.
        report, _ = run_lint(
            tmp_path,
            {"src/repro/fl/bad.py": "cfg = Config(beta=5.0, num_local_steps=100)\n"},
        )
        assert rule_ids(report) == ["RL501"]
        assert report.findings[0].extra["estimator"] == "sarah"

    def test_tau_within_sarah_bound_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {"src/repro/fl/good.py": "cfg = Config(beta=5.0, num_local_steps=10)\n"},
        )
        assert rule_ids(report) == []

    def test_svrg_bound_is_tighter(self, tmp_path):
        # beta = 10, tau = 20: fine for SARAH (cap 57.5) but the
        # self-consistent SVRG cap (14)/(65) is 0 at beta = 10.
        files = {
            "src/repro/fl/svrg.py": (
                "cfg = Config(algorithm='fedproxvr-svrg', beta=10.0, tau=20)\n"
            ),
            "src/repro/fl/sarah.py": (
                "cfg = Config(algorithm='fedproxvr-sarah', beta=10.0, tau=20)\n"
            ),
        }
        report, _ = run_lint(tmp_path, files)
        assert rule_ids(report) == ["RL501"]
        assert report.findings[0].path.endswith("svrg.py")
        assert report.findings[0].extra["estimator"] == "svrg"

    def test_fallback_bounds_match_repro_core_theory(self, monkeypatch):
        # The linter prefers repro.core.theory when importable; its
        # closed-form fallbacks (used when src/ is not on the path) must
        # agree with that single source of truth.
        theory = pytest.importorskip("repro.core.theory")
        from tools.reprolint.rules import theory as theory_rules

        monkeypatch.setattr(theory_rules, "_theory_module", lambda: None)
        for beta in (4.0, 7.0, 10.0, 15.0, 20.0):
            assert theory_rules._tau_upper_bound(beta, "sarah") == pytest.approx(
                theory.tau_upper_bound_sarah(beta)
            )
            # The fallback clamps the self-consistent SVRG bound at 0
            # (an integer iteration count); theory reports the raw,
            # possibly negative, eq. (14) value when infeasible.
            assert theory_rules._tau_upper_bound(beta, "svrg") == pytest.approx(
                max(0.0, theory.tau_upper_bound_svrg(beta))
            )


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_parse_disable_comment(self):
        assert disabled_rules_on_line("x = 1  # reprolint: disable=RL200") == {"RL200"}
        assert disabled_rules_on_line("x  # reprolint: disable=RL200, RL500") == {
            "RL200",
            "RL500",
        }
        assert disabled_rules_on_line("x  # reprolint: disable=all") == {"all"}
        assert disabled_rules_on_line("x = 1  # a normal comment") == set()

    def test_inline_suppression_silences_named_rule(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/datasets/bad.py": """\
                import numpy as np
                np.random.seed(0)  # reprolint: disable=RL200
                """
            },
        )
        assert rule_ids(report) == []
        assert report.suppressed_count == 1

    def test_suppression_of_other_rule_does_not_silence(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/datasets/bad.py": """\
                import numpy as np
                np.random.seed(0)  # reprolint: disable=RL999
                """
            },
        )
        assert rule_ids(report) == ["RL200"]


# ---------------------------------------------------------------------------
# CLI, reporters, config
# ---------------------------------------------------------------------------


class TestCli:
    """The command line runs the default configuration from the working
    directory, so each test runs from its fixture root."""

    FILES = {
        "src/repro/core/bad.py": """\
        import numpy as np
        from repro.fl.server import FederatedServer
        np.random.seed(3)
        SERVER_CLASS = FederatedServer
        """
    }

    def test_nonzero_exit_and_json_findings(self, tmp_path, capsys, monkeypatch):
        make_tree(tmp_path, self.FILES)
        monkeypatch.chdir(tmp_path)
        code = reprolint_main([str(tmp_path / "src"), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"RL100", "RL200"}
        for f in payload["findings"]:
            assert f["path"] == "src/repro/core/bad.py"
            assert f["line"] in (2, 3)
            assert f["severity"] == "error"
        assert payload["exit_code"] == 1

    def test_text_format_has_locations(self, tmp_path, capsys, monkeypatch):
        make_tree(tmp_path, self.FILES)
        monkeypatch.chdir(tmp_path)
        code = reprolint_main([str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/repro/core/bad.py:2:0: RL100 error:" in out

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert reprolint_main([str(tmp_path / "nope")]) == 2

    def test_module_invocation_on_fixtures(self, tmp_path):
        """End-to-end: ``python -m tools.reprolint`` on violating fixtures."""
        make_tree(tmp_path, self.FILES)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT))
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "src", "--format", "json"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert {f["rule"] for f in payload["findings"]} == {"RL100", "RL200"}


class TestConfig:
    def test_repo_pyproject_roundtrip(self):
        config = LintConfig()
        assert config.root == Path.cwd()
        assert config.layers["repro.fl"] == 3
        assert config.layers["repro.core"] == 2
        assert set(config.enabled_families) == {
            "layering", "rng", "dtype", "safety", "theory",
            "provenance", "hygiene", "concurrency",
        }
        assert config.layer_of("repro.core.local.proxvr") == 2
        assert config.layer_of("repro.unmapped_new_module") == 99
        assert config.layer_of("numpy.random") is None

    def test_obs_v2_modules_pinned_at_layer_zero(self):
        # The ledger/monitor/diff modules must stay stdlib-only at the
        # bottom of the DAG: the Theorem-1 monitor deliberately
        # re-implements core.theory's factor instead of importing it.
        config = LintConfig()
        for module in (
            "repro.obs.ledger",
            "repro.obs.monitors",
            "repro.obs.diff",
        ):
            assert config.layers[module] == 0
            assert config.layer_of(module) == 0

    def test_disabled_family_skips_rules(self, tmp_path):
        config = make_tree(
            tmp_path, {"src/repro/core/bad.py": "from repro.fl import server\n"}
        )
        config.enabled_families = ["rng"]
        report = lint_paths([tmp_path / "src"], config)
        assert report.findings == []


# ---------------------------------------------------------------------------
# The tier-1 gate: the real src/ tree must satisfy every invariant
# ---------------------------------------------------------------------------


class TestSrcGate:
    @pytest.fixture(scope="class")
    def report(self):
        return lint_paths([REPO_ROOT / "src"], LintConfig(root=REPO_ROOT))

    def test_src_has_no_gating_findings(self, report):
        gating = report.gating
        details = "\n".join(
            f"  {f.location()}: {f.rule_id} {f.severity.value}: {f.message}"
            for f in gating
        )
        assert not gating, (
            "reprolint found new violations in src/ (fix them, or suppress "
            f"inline with a justification):\n{details}"
        )
        assert report.exit_code == 0

    def test_core_layering_baseline_is_empty(self, report):
        # The federated drivers (fsvrg, tuning) live in repro/fl; core
        # must stay free of upward imports.
        layering = [
            f
            for f in report.findings
            if f.rule_id.startswith("RL1") and f.path.startswith("src/repro/core")
        ]
        assert layering == []

    def test_src_tree_was_actually_checked(self, report):
        assert report.files_checked > 60
