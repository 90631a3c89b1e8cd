#!/usr/bin/env python3
"""Self-tests for tools/mixnet_lint.py (DESIGN.md §10).

Three kinds of coverage:

  * the real tree passes all three analyzers (the gate CI runs is green);
  * fixture trees under tests/lint/fixtures/ each contain one known
    violation class (an include edge missing from the CMake DEPS, dropped
    cache-key field, banned nondeterminism call, unordered container in an
    emit path) and must fail with the precise diagnostic;
  * the acceptance loop: deleting ANY single field-serialization line of
    any gate in tools/lint/cache_key.json (TrainingConfig, ServeConfig,
    GateConfig), or the canonicalize_gate call, must turn the cache-key
    analyzer red.

Run directly (`python3 tests/lint_test.py`) or via CTest (`lint_test`).
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "tools" / "mixnet_lint.py"
FIXTURES = ROOT / "tests" / "lint" / "fixtures"

sys.path.insert(0, str(ROOT / "tools"))
import mixnet_lint  # noqa: E402


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


class RealTree(unittest.TestCase):
    def test_all_analyzers_clean(self):
        code, out, err = run_lint()
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("clean [dag, cache-key, determinism]", out)

    def test_analyzer_subset_selection(self):
        code, out, _ = run_lint("dag")
        self.assertEqual(code, 0)
        self.assertIn("clean [dag]", out)


class DagFixture(unittest.TestCase):
    FIX = FIXTURES / "dag_violation"

    def run_fixture(self):
        return run_lint("dag", "--root", str(self.FIX))

    def test_upward_include_edge_fails_with_precise_diagnostic(self):
        code, out, _ = self.run_fixture()
        self.assertEqual(code, 1)
        self.assertIn(
            "src/common/bad.cc:1: [dag] include edge 'common' -> 'exp' is "
            "not in the DEPS of src/common/CMakeLists.txt", out)
        self.assertIn("declared deps of 'common': <none>", out)

    def test_commented_include_does_not_register_an_edge(self):
        # src/exp/high.h mentions an include inside a comment; the only
        # diagnostic must be the real one.
        _, out, _ = self.run_fixture()
        diags = [l for l in out.splitlines() if ": [dag]" in l]
        self.assertEqual(len(diags), 1, out)

    def test_cycle_in_cmake_deps_is_a_config_error(self):
        with tempfile.TemporaryDirectory() as td:
            tree = Path(td) / "tree"
            shutil.copytree(self.FIX, tree)
            cml = tree / "src" / "common" / "CMakeLists.txt"
            cml.write_text(cml.read_text().replace(
                "SOURCES bad.cc", "SOURCES bad.cc\n  DEPS mixnet_exp"))
            code, _, err = run_lint("dag", "--root", str(tree))
        self.assertEqual(code, 2)
        self.assertIn("cycle through {common, exp}", err)


class CacheKeyFixture(unittest.TestCase):
    FIX = FIXTURES / "cache_key_missing"

    def run_fixture(self):
        return run_lint("cache-key", "--root", str(self.FIX),
                        "--cache-key-config", str(self.FIX / "cache_key.json"))

    def test_dropped_fields_fail_with_field_names_and_lines(self):
        code, out, _ = self.run_fixture()
        self.assertEqual(code, 1)
        self.assertIn("src/sim/training_sim.h:14: [cache-key] TrainingConfig "
                      "field 'beta' is not serialized", out)
        self.assertIn("field 'nest.delta' is not serialized", out)

    def test_stale_serializer_line_is_reported(self):
        _, out, _ = self.run_fixture()
        self.assertIn("serialized field 'cfg.ghost' does not exist", out)

    def test_allowlisted_field_and_serialized_fields_do_not_fire(self):
        _, out, _ = self.run_fixture()
        self.assertNotIn("'display_name'", out)
        self.assertNotIn("'alpha'", out)
        self.assertNotIn("'nest.gamma'", out)
        diags = [l for l in out.splitlines() if ": [cache-key]" in l]
        self.assertEqual(len(diags), 3, out)  # beta, nest.delta, ghost


class CacheKeyAcceptance(unittest.TestCase):
    CONFIG = ROOT / "tools" / "lint" / "cache_key.json"

    def lint_with(self, td, gate, impl):
        """The real cache-key config with `gate`'s impl swapped for `impl`."""
        cfg = json.loads(self.CONFIG.read_text())
        for g in cfg["gates"]:
            if g["struct"] == gate["struct"]:
                g["impl"] = str(impl)
        path = Path(td) / "cache_key.json"
        path.write_text(json.dumps(cfg))
        return [d.render() for d in mixnet_lint.check_cache_key(ROOT, path)]

    def test_deleting_any_serialization_line_turns_the_gate_red(self):
        # The DESIGN.md §9 acceptance criterion, exhaustively: for every
        # `w.field("<name>", <variable>.<path>)` line of every gate's writer,
        # removing just that line must produce a cache-key violation naming
        # that path. Runs in-process (one subprocess per field would
        # dominate the suite's wall time).
        gates = json.loads(self.CONFIG.read_text())["gates"]
        self.assertEqual(sorted(g["struct"] for g in gates),
                         ["GateConfig", "ServeConfig", "TrainingConfig"])
        for gate in gates:
            lines = (ROOT / gate["impl"]).read_text().splitlines(keepends=True)
            field_re = re.compile(
                r'w\.field\("[^"]+",\s*(?:static_cast<[\w:]+>\()?\b'
                + re.escape(gate["variable"]) + r'\.([\w.]+)\)')
            field_lines = [(i, m.group(1)) for i, l in enumerate(lines)
                           for m in [field_re.search(l)] if m]
            self.assertGreaterEqual(len(field_lines), 14,
                                    f"{gate['impl']} lost its field lines?")
            with tempfile.TemporaryDirectory() as td:
                mutated = Path(td) / "impl_mut.cc"
                for i, path in field_lines:
                    mutated.write_text("".join(lines[:i] + lines[i + 1:]))
                    rendered = self.lint_with(td, gate, mutated)
                    self.assertTrue(
                        any(f"{gate['struct']} field '{path}' is not "
                            f"serialized" in r for r in rendered),
                        f"deleting {gate['struct']}'s serialization of "
                        f"'{path}' went undetected; diagnostics: {rendered}")

    def test_training_gate_subtree_is_covered_only_by_its_writer(self):
        # TrainingConfig's `gate` is GateConfig key material: it counts as
        # serialized only through moe::canonicalize_gate, and its fields
        # may not be written a second time anywhere else.
        gate = {"struct": "TrainingConfig"}
        impl = ROOT / "src" / "exp" / "cache_key.cc"
        text = impl.read_text()
        call = "  moe::canonicalize_gate(cfg.gate, w);\n"
        self.assertIn(call, text)
        with tempfile.TemporaryDirectory() as td:
            mutated = Path(td) / "cache_key_mut.cc"
            mutated.write_text(text.replace(call, ""))
            rendered = self.lint_with(td, gate, mutated)
            self.assertTrue(any(
                "TrainingConfig field 'gate' is not serialized" in r and
                "canonicalize_gate" in r for r in rendered), rendered)

            mutated.write_text(text.replace(
                call, call + '  w.field("gate.seed", cfg.gate.seed);\n'))
            rendered = self.lint_with(td, gate, mutated)
            self.assertEqual(len(rendered), 1, rendered)
            self.assertIn("'cfg.gate.seed' is written outside "
                          "canonicalize_gate, the one writer of GateConfig",
                          rendered[0])


class DeterminismFixture(unittest.TestCase):
    FIX = FIXTURES / "banned_call"

    def run_fixture(self, config=None):
        return run_lint(
            "determinism", "--root", str(self.FIX),
            "--determinism-config", str(config or self.FIX / "determinism.json"))

    def test_banned_calls_fail_with_precise_diagnostics(self):
        code, out, _ = self.run_fixture()
        self.assertEqual(code, 1)
        self.assertIn("src/sim/clocky.cc:5: [determinism] banned "
                      "call/construct 'rand()'", out)
        self.assertIn("src/sim/clocky.cc:8: [determinism] banned "
                      "call/construct 'std::chrono::system_clock'", out)

    def test_comments_strings_and_allowlisted_sites_do_not_fire(self):
        _, out, _ = self.run_fixture()
        diags = [l for l in out.splitlines() if ": [determinism]" in l]
        # Exactly the two real hits: not the comment on clocky.cc:4, not the
        # string literal on clocky.cc:6, not the allowlisted seed.cc.
        self.assertEqual(len(diags), 2, out)
        self.assertNotIn("seed.cc", out)

    def test_stale_allowlist_entry_is_an_error(self):
        base = (self.FIX / "determinism.json").read_text()
        stale = base.replace(
            '"file": "src/sim/seed.cc"', '"file": "src/sim/gone.cc"')
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            f.write(stale)
            f.flush()
            code, out, _ = self.run_fixture(config=f.name)
        self.assertEqual(code, 1)
        self.assertIn("stale allowlist entry", out)
        # seed.cc's random_device is no longer excused either.
        self.assertIn("src/sim/seed.cc:4", out)


class GetenvBan(unittest.TestCase):
    """The real determinism config bans environment reads under src/."""
    FIX = FIXTURES / "env_read"

    def test_getenv_call_fires_but_comment_and_string_do_not(self):
        real = json.loads(
            (ROOT / "tools" / "lint" / "determinism.json").read_text())
        cfg = {"paths": ["src"], "banned": real["banned"],
               "canonical_paths": [], "canonical_banned": [], "allow": []}
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(cfg, f)
            f.flush()
            code, out, _ = run_lint(
                "determinism", "--root", str(self.FIX),
                "--determinism-config", f.name)
        self.assertEqual(code, 1)
        diags = [l for l in out.splitlines() if ": [determinism]" in l]
        # Only the call on knob.cc:6, not the comment (:3) or string (:4).
        self.assertEqual(len(diags), 1, out)
        self.assertIn("src/exp/knob.cc:6: [determinism] banned "
                      "call/construct 'getenv()'", out)


class UnorderedEmitFixture(unittest.TestCase):
    FIX = FIXTURES / "unordered_emit"

    def test_unordered_container_in_emit_path_fails(self):
        code, out, _ = run_lint(
            "determinism", "--root", str(self.FIX),
            "--determinism-config", str(self.FIX / "determinism.json"))
        self.assertEqual(code, 1)
        self.assertIn("src/exp/result_table.cc", out)
        self.assertIn("unordered container in canonical/emit path", out)
        # Only the canonical path is policed; other.cc is free to use them.
        self.assertNotIn("other.cc", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
