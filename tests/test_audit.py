#!/usr/bin/env python3
"""Fixture tests for tools/hostnet_audit.py.

Each check has a deliberately-bad snippet (must produce findings with the
right check id) and the clean/edge snippets must produce none, under
tests/audit_fixtures/. The fixtures directory is skipped by tree-wide walks
-- only explicit file arguments reach it -- so the bad snippets never fail
the repo gate that scripts/ci_static_analysis.sh runs. Explicit-path runs
also skip the manifest-drift check, so fixtures need no manifest entries.

Run directly (`python3 tests/test_audit.py`) or via ctest
(hostnet_audit_fixtures).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AUDIT = os.path.join(REPO, "tools", "hostnet_audit.py")
FIXTURES = os.path.join(REPO, "tests", "audit_fixtures")


def run_audit(*args):
    return subprocess.run(
        [sys.executable, AUDIT, "--root", REPO, *args],
        capture_output=True, text=True, cwd=REPO)


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


class BadFixtures(unittest.TestCase):
    """Every seeded violation must be detected with the right check id."""

    def assert_findings(self, path, expected):
        """expected: {check id: count}; no other checks may fire."""
        res = run_audit(path)
        self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
        for check, count in expected.items():
            hits = [l for l in res.stdout.splitlines() if f"[{check}]" in l]
            self.assertEqual(len(hits), count,
                             msg=f"expected {count} [{check}] findings, got:\n"
                                 f"{res.stdout}")
        fired = [l for l in res.stdout.splitlines() if "[" in l]
        self.assertEqual(len(fired), sum(expected.values()),
                         msg=f"unexpected extra findings:\n{res.stdout}")

    def test_save_missing(self):
        self.assert_findings(fixture("bad_save_missing.cpp"),
                             {"snapshot-save-missing": 1})

    def test_load_missing(self):
        self.assert_findings(fixture("bad_load_missing.cpp"),
                             {"snapshot-load-missing": 1})

    def test_stack_uncovered_cc_field(self):
        # A TCP-stack-shaped class whose CC filter window is in neither
        # save_state() nor load_state(): both sides must fire.
        self.assert_findings(fixture("bad_stack_uncovered_cc.cpp"),
                             {"snapshot-save-missing": 1,
                              "snapshot-load-missing": 1})

    def test_asymmetric_snapshot_fields(self):
        # write-only, read-only, and dead Snapshot fields: three findings.
        self.assert_findings(fixture("bad_asymmetric.cpp"),
                             {"snapshot-asymmetry": 3})

    def test_unregistered_pool(self):
        self.assert_findings(fixture("bad_unregistered_pool.cpp"),
                             {"pool-unregistered": 1})

    def test_dead_and_unknown_skip(self):
        self.assert_findings(fixture("bad_dead_skip.cpp"),
                             {"snapshot-dead-skip": 1, "snapshot-skip": 1})

    def test_malformed_directives(self):
        # skip() without a reason + allow() of a non-allowable check.
        self.assert_findings(fixture("bad_directive.cpp"),
                             {"bad-directive": 2})

    def test_stale_allow(self):
        self.assert_findings(fixture("bad_stale_allow.cpp"),
                             {"stale-allow": 1})

    def test_config_unvisited(self):
        # A nested member the HostConfig table misses; the optional-held
        # P2MSpec storage struct is fully visited and stays quiet.
        self.assert_findings(fixture("bad_config_unvisited.cpp"),
                             {"config-unvisited": 1})

    def test_config_bad_path(self):
        # A path naming no member and a path visiting another member; the
        # member neither visits is then unvisited.
        self.assert_findings(fixture("bad_config_path.cpp"),
                             {"config-bad-path": 2, "config-unvisited": 1})

    def test_handler_purity(self):
        # The src/sim path component puts the fixture in a handler subsystem.
        self.assert_findings(fixture("src", "sim", "bad_handler_static.cpp"),
                             {"handler-static-state": 1,
                              "handler-global-state": 1})


class CleanFixtures(unittest.TestCase):
    """Clean and parser-edge-case fixtures must produce no findings."""

    CLEAN = [
        "clean_snapshot.cpp",
        "edge_nested_classes.cpp",
        "edge_template_members.cpp",
        "edge_multiline_members.cpp",
        "edge_ifdef_fields.cpp",
    ]

    def test_clean_fixtures(self):
        for name in self.CLEAN:
            with self.subTest(fixture=name):
                res = run_audit(fixture(name))
                self.assertEqual(res.returncode, 0,
                                 msg=res.stdout + res.stderr)

    def test_handler_state_outside_handler_dirs_is_fine(self):
        # The same constructs are legal outside src/{sim,cpu,cha,iio,mc,net}:
        # copy the handler fixture's content under a plain fixtures path and
        # it audits clean.
        res = run_audit(fixture("clean_snapshot.cpp"))
        self.assertNotIn("[handler-static-state]", res.stdout)
        self.assertNotIn("[handler-global-state]", res.stdout)


class TreeAudit(unittest.TestCase):
    """The real tree must audit clean, including the checked-in manifest."""

    def test_tree_is_clean(self):
        res = run_audit()
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)

    def test_tree_covers_snapshot_classes(self):
        res = run_audit("--json")
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)
        report = json.loads(res.stdout)
        self.assertTrue(report["ok"])
        self.assertEqual(report["findings"], [])
        # Every HOSTNET_SNAPSHOT_COVERS class must be in the audited set.
        for qual in ("Simulator", "CalendarQueue", "Channel",
                     "MemoryController", "Cha", "Core", "Iio",
                     "StorageDevice", "NicDevice", "CopyCore", "TcpReceiver",
                     "DctcpStack", "BbrStack", "DavisStack",
                     "CreditPool", "HostSystem"):
            self.assertIn(qual, report["classes"])

    def test_manifest_matches_tree(self):
        with open(os.path.join(REPO, "tools", "snapshot_manifest.json"),
                  encoding="utf-8") as f:
            manifest = json.load(f)
        self.assertGreaterEqual(len(manifest["classes"]), 7)
        for qual, entry in manifest["classes"].items():
            with self.subTest(cls=qual):
                # No unexplained fields: every skipped field carries a reason.
                for field, reason in entry["skipped"].items():
                    self.assertTrue(reason.strip(),
                                    msg=f"{qual}.{field} skip has no reason")

    def test_manifest_drift_is_detected(self):
        with open(os.path.join(REPO, "tools", "snapshot_manifest.json"),
                  encoding="utf-8") as f:
            manifest = json.load(f)
        victim = sorted(manifest["classes"])[0]
        manifest["classes"][victim]["state"].append("bogus_member_")
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as tf:
            json.dump(manifest, tf)
            stale = tf.name
        try:
            res = run_audit("--manifest", stale)
            self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
            self.assertIn("[manifest-drift]", res.stdout)
            self.assertIn(victim, res.stdout)
        finally:
            os.unlink(stale)


class ToolInterface(unittest.TestCase):
    def test_list_checks(self):
        res = run_audit("--list-checks")
        self.assertEqual(res.returncode, 0)
        for check in ("snapshot-save-missing", "snapshot-load-missing",
                      "snapshot-asymmetry", "snapshot-skip",
                      "snapshot-dead-skip", "pool-unregistered",
                      "handler-static-state", "handler-global-state",
                      "config-unvisited", "config-bad-path",
                      "manifest-drift", "stale-allow", "bad-directive"):
            self.assertIn(check, res.stdout)

    def test_json_reports_findings(self):
        res = run_audit("--json", fixture("bad_save_missing.cpp"))
        self.assertEqual(res.returncode, 1)
        report = json.loads(res.stdout)
        self.assertFalse(report["ok"])
        self.assertEqual(report["findings"][0]["check"], "snapshot-save-missing")

    def test_list_skips(self):
        res = run_audit("--list-skips", fixture("bad_dead_skip.cpp"))
        self.assertEqual(res.returncode, 0)
        self.assertIn("skip(level_)", res.stdout)

    def test_write_manifest_refuses_with_findings(self):
        with tempfile.NamedTemporaryFile(suffix=".json") as tf:
            res = run_audit("--write-manifest", "--manifest", tf.name,
                            fixture("bad_save_missing.cpp"))
            self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
            self.assertIn("refusing to write", res.stdout + res.stderr)

    def test_missing_path_is_usage_error(self):
        res = run_audit("definitely/not/a/path.cpp")
        self.assertEqual(res.returncode, 2)

    def test_tree_walk_skips_fixture_corpus(self):
        # Already covered by TreeAudit, but assert the specific guarantee:
        # the deliberately-bad corpus must not leak into default runs.
        res = run_audit("--json")
        report = json.loads(res.stdout)
        self.assertNotIn("Sloppy", report["classes"])


if __name__ == "__main__":
    unittest.main()
