"""reprolint v2: provenance (RL6xx) and hygiene (RL7xx) rules and
statement-scoped suppressions.

Unlike test_reprolint.py (which scopes fixtures to the v1 per-file
families), every fixture here runs with ALL rule families enabled —
these tests assert the whole-program pipeline end to end.
"""

import textwrap
from pathlib import Path

from tools.reprolint.config import LintConfig
from tools.reprolint.engine import lint_paths


def make_tree(root: Path, files: dict) -> LintConfig:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return LintConfig(root=root)


def run_lint(root: Path, files: dict):
    config = make_tree(root, files)
    return lint_paths([root / "src"], config), config


def rule_ids(report):
    return [f.rule_id for f in report.findings]


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# RL600 — RNG lineage provenance
# ---------------------------------------------------------------------------


class TestRawGenerator:
    def test_raw_default_rng_in_fl_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/bad.py": """\
                import numpy as np

                rng = np.random.default_rng(7)
                """
            },
        )
        [finding] = findings_for(report, "RL600")
        assert finding.line == 3
        assert "SeedSequence lineage" in finding.message

    def test_aliased_factory_flagged_through_dataflow(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/core/sneaky.py": """\
                import numpy as np

                make = np.random.default_rng
                rng = make(3)
                """
            },
        )
        [finding] = findings_for(report, "RL600")
        assert finding.extra["via_alias"] is True

    def test_blessed_factories_pass(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/good.py": """\
                from repro.utils.rng import as_generator, spawn_generators

                rng = as_generator(7)
                gens = spawn_generators(7, 4)
                first = gens[0]
                """
            },
        )
        assert findings_for(report, "RL600") == []

    def test_rng_module_itself_exempt(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/utils/rng.py": """\
                import numpy as np

                def as_generator(seed):
                    return np.random.default_rng(seed)
                """
            },
        )
        assert findings_for(report, "RL600") == []


# ---------------------------------------------------------------------------
# RL601 — hyperparameter provenance (the acceptance fixture)
# ---------------------------------------------------------------------------


class TestHyperparameterProvenance:
    def test_unvalidated_beta_reaching_driver_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/experiments.py": """\
                from repro.fl.runner import run_federated

                beta = 3.0
                result = run_federated(data, beta=beta, mu=0.5)
                """
            },
        )
        [finding] = findings_for(report, "RL601")
        assert finding.extra["beta"] == 3.0
        assert "lemma1_feasible" in finding.message

    def test_validated_beta_passes(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/experiments.py": """\
                from repro.core.theory import lemma1_feasible
                from repro.fl.runner import run_federated

                beta = 3.0
                lemma1_feasible(beta, 0.5)
                result = run_federated(data, beta=beta, mu=0.5)
                """
            },
        )
        assert findings_for(report, "RL601") == []

    def test_feasible_beta_passes_without_validation(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/experiments.py": """\
                from repro.fl.runner import run_federated

                beta = 3.5
                result = run_federated(data, beta=beta, mu=0.5)
                """
            },
        )
        assert findings_for(report, "RL601") == []

    def test_bad_beta_on_one_branch_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/experiments.py": """\
                from repro.fl.runner import run_federated

                beta = 5.0
                if quick:
                    beta = 2.0
                result = run_federated(data, beta=beta)
                """
            },
        )
        [finding] = findings_for(report, "RL601")
        assert finding.extra["beta"] == 2.0

    def test_negative_mu_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/experiments.py": """\
                from repro.fl.runner import run_federated

                penalty = -0.25
                result = run_federated(data, beta=4.0, mu=penalty)
                """
            },
        )
        [finding] = findings_for(report, "RL601")
        assert finding.extra["mu"] == -0.25

    def test_tau_above_sarah_cap_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/experiments.py": """\
                from repro.fl.runner import run_federated

                beta_v = 4.0
                tau_v = 100.0
                result = run_federated(data, beta=beta_v, tau=tau_v)
                """
            },
        )
        [finding] = findings_for(report, "RL601")
        # SARAH cap (eq. 13): (5 * 16 - 16) / 8 = 8.
        assert finding.extra["tau"] == 100.0
        assert finding.extra["bound"] == 8.0

    def test_literal_at_call_site_left_to_rl500(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/experiments.py": """\
                from repro.fl.runner import run_federated

                result = run_federated(data, beta=2.0)
                """
            },
        )
        assert findings_for(report, "RL601") == []
        assert len(findings_for(report, "RL500")) == 1


# ---------------------------------------------------------------------------
# RL7xx — whole-program hygiene
# ---------------------------------------------------------------------------


class TestHygiene:
    def test_import_cycle_reported_once_on_first_member(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/alpha.py": """\
                from repro.bravo import g

                def f():
                    return g()
                """,
                "src/repro/bravo.py": """\
                from repro.alpha import f

                def g():
                    return f()
                """,
            },
        )
        [finding] = findings_for(report, "RL700")
        assert finding.path.endswith("alpha.py")
        assert finding.extra["cycle"] == ["repro.alpha", "repro.bravo"]

    def test_package_reexport_is_not_a_cycle(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/pkg/__init__.py": """\
                from repro.pkg.mod import thing

                __all__ = ["thing"]
                """,
                "src/repro/pkg/sibling.py": """\
                def helper():
                    return 1
                """,
                "src/repro/pkg/mod.py": """\
                from repro.pkg import sibling

                def thing():
                    return sibling.helper()
                """,
            },
        )
        assert findings_for(report, "RL700") == []

    def test_broken_all_entry_flagged_and_dead_export_info(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/leaf.py": """\
                def real():
                    return 1

                __all__ = ["real", "ghost"]
                """
            },
        )
        [broken] = findings_for(report, "RL701")
        assert broken.extra["export"] == "ghost"
        assert broken.extra["fixable"] == "prune_export"
        [dead] = findings_for(report, "RL702")
        assert dead.extra["export"] == "real"
        assert dead.severity.value == "info"

    def test_consumed_export_not_dead(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/leaf.py": """\
                def real():
                    return 1

                __all__ = ["real"]
                """,
                "src/repro/consumer.py": """\
                from repro.leaf import real

                value = real()
                """,
            },
        )
        assert findings_for(report, "RL702") == []

    def test_package_init_exports_exempt_from_dead_export(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/pkg/__init__.py": """\
                from repro.pkg.mod import thing

                __all__ = ["thing"]
                """,
                "src/repro/pkg/mod.py": """\
                def thing():
                    return 1
                """,
            },
        )
        assert findings_for(report, "RL702") == []

    def test_unreachable_code_one_finding_per_block(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/deadcode.py": """\
                def f():
                    return 1
                    a = 2
                    b = 3
                """
            },
        )
        [finding] = findings_for(report, "RL703")
        assert finding.line == 3
        assert finding.severity.value == "warning"

    def test_unused_import_flagged_with_binding(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/tidy.py": """\
                import os
                import sys

                print(sys.argv)
                """
            },
        )
        [finding] = findings_for(report, "RL704")
        assert finding.extra["binding"] == "os"
        assert finding.extra["fixable"] == "remove_import"

    def test_unused_import_exemptions(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                # __future__, TYPE_CHECKING, and ``as``-re-export are exempt.
                "src/repro/exempt.py": """\
                from __future__ import annotations

                from typing import TYPE_CHECKING

                from repro.utils.rng import as_generator as as_generator

                if TYPE_CHECKING:
                    from repro.fl.runner import FederatedRunConfig

                def f(cfg: "FederatedRunConfig"):
                    return as_generator(0)
                """,
                # __init__ without __all__: implicit public surface.
                "src/repro/pkg/__init__.py": """\
                from repro.pkg.mod import thing
                """,
                "src/repro/pkg/mod.py": """\
                def thing():
                    return 1
                """,
            },
        )
        assert findings_for(report, "RL704") == []


# ---------------------------------------------------------------------------
# Statement-scoped suppressions
# ---------------------------------------------------------------------------


class TestSuppressionSpans:
    FILES = {
        "src/repro/multiline.py": """\
        from repro.fl.runner import run_federated

        result = run_federated(  # reprolint: disable=RL500
            data,
            beta=2.0,
        )
        """
    }

    def test_disable_on_first_line_covers_continuation_lines(self, tmp_path):
        report, _ = run_lint(tmp_path, self.FILES)
        assert findings_for(report, "RL500") == []
        assert report.suppressed_count >= 1

    def test_same_fixture_without_comment_is_flagged(self, tmp_path):
        files = {
            "src/repro/multiline.py": self.FILES[
                "src/repro/multiline.py"
            ].replace("  # reprolint: disable=RL500", "")
        }
        report, _ = run_lint(tmp_path, files)
        [finding] = findings_for(report, "RL500")
        assert finding.line == 5  # the beta=2.0 continuation line

    def test_compound_header_comment_covers_body(self, tmp_path):
        # v3 closed the v2 gap: a disable on the compound statement's
        # header now covers its body (rules often anchor construct-level
        # findings to body lines).
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/blockhdr.py": """\
                import numpy as np

                if flag:  # reprolint: disable=RL200
                    np.random.seed(0)
                """
            },
        )
        assert findings_for(report, "RL200") == []
        assert report.suppressed_count >= 1

    def test_body_comment_does_not_leak_to_sibling_lines(self, tmp_path):
        # A disable *inside* the body still scopes to its own statement:
        # the second seed() call must stay flagged.
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/blockbody.py": """\
                import numpy as np

                if flag:
                    np.random.seed(0)  # reprolint: disable=RL200
                    np.random.seed(1)
                """
            },
        )
        [finding] = findings_for(report, "RL200")
        assert finding.line == 5

    def test_header_comment_does_not_cover_following_statement(self, tmp_path):
        # Coverage stops at the compound statement's end_lineno.
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/blockafter.py": """\
                import numpy as np

                if flag:  # reprolint: disable=RL200
                    np.random.seed(0)
                np.random.seed(1)
                """
            },
        )
        [finding] = findings_for(report, "RL200")
        assert finding.line == 5

    def test_def_header_comment_covers_function_body(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/defhdr.py": """\
                import numpy as np


                def reseed():  # reprolint: disable=RL200
                    np.random.seed(0)
                """
            },
        )
        assert findings_for(report, "RL200") == []
