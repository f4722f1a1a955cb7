#!/usr/bin/env python3
"""Unit tests for mulink-analyze, run under ctest (MulinkAnalyze.UnitTests).

Everything runs in-process through mulink_analyze.run() — the same entry
the CLI uses — so the exit-code contract (0 clean / 1 findings / 2 usage
error, the table tools/cli.h also follows) is pinned where it is
implemented.

Each rule carries planted-defect tests that must exit 1 on the planted
file:line: an allocation anywhere in a hot-path TU (constructors and
initializer lists included, templated make_unique/make_shared too), an
fma or an ambient RNG, an order-less atomic access, a direct obs Registry
call, a stdout write in library code, an intrinsic outside src/kernels.
The negative space is tested just as hard: annotated sites, cold TUs, the
rng home, shadowing locals (the spsc_ring.h `const std::size_t seq = ...`
pattern), presentation code that may print, and rule tokens buried in
comments / strings / multi-line raw strings must all stay clean.
"""

import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import mulink_analyze  # noqa: E402


def make_tree(root: Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


class AnalyzeHarness(unittest.TestCase):
    def run_analyze(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code = mulink_analyze.run(argv, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def analyze_tree(self, files: dict[str, str], extra_argv=()):
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), files)
            return self.run_analyze(["--root", tmp, *extra_argv])

    def assertFindingAt(self, out, where, rule):
        self.assertIn(f"{where}: [{rule}]", out)


class ExitCodeContract(AnalyzeHarness):
    """Exit codes 0/1/2, same table as tools/cli.h."""

    def test_clean_tree_exits_0(self):
        code, out, _ = self.analyze_tree({
            "src/core/thing.cpp":
            "namespace mulink {\n"
            "double Sum(const double* x, int n) {\n"
            "  double s = 0.0;\n"
            "  for (int i = 0; i < n; ++i) s += x[i];\n"
            "  return s;\n"
            "}\n"
            "}  // namespace mulink\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)
        self.assertIn("0 finding(s)", out)

    def test_findings_exit_1(self):
        code, _, _ = self.analyze_tree({
            "src/core/thing.cpp":
            "MULINK_HOT void Hot(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "}\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)

    def test_unknown_flag_exits_2(self):
        code, _, _ = self.run_analyze(["--no-such-flag"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)

    def test_unknown_rule_exits_2(self):
        code, _, _ = self.run_analyze(["--rule", "no-such-rule"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)

    def test_missing_root_exits_2(self):
        code, _, err = self.run_analyze(["--root", "/no/such/dir/anywhere"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)
        self.assertIn("no such directory", err)

    def test_missing_file_argument_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, _, err = self.run_analyze(
                ["--root", tmp, "src/nope.cpp"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)
        self.assertIn("no such file", err)

    def test_list_rules_exits_0(self):
        code, out, _ = self.run_analyze(["--list-rules"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)
        for rule in mulink_analyze.RULES:
            self.assertIn(rule, out)


class HotPathAllocRule(AnalyzeHarness):
    """Every allocation token in a hot-path TU is a finding unless it
    carries the reviewed annotation — wherever it sits in the TU."""

    def test_direct_allocation_in_hot_function_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT double Score(int n) {\n"
            "  double* p = new double[8];\n"
            "  return p[0] * n;\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/score.cpp:2", "hot-path-alloc")
        self.assertIn("`new`", out)
        self.assertIn("(in Score)", out)

    def test_unmarked_function_in_hot_tu_fails(self):
        # No MULINK_HOT anywhere: the TU is the zone, not a call graph.
        code, out, _ = self.analyze_tree({
            "src/core/detector.cpp":
            "void Score() {\n"
            "  double* tmp = new double[64];\n"
            "  delete[] tmp;\n"
            "}\n",
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/detector.cpp:2", "hot-path-alloc")

    def test_unreachable_allocation_fails(self):
        # Setup code in a hot-path TU allocates only with a reviewed
        # annotation saying so; nothing infers "cold" from call edges.
        code, out, _ = self.analyze_tree({
            "src/core/setup.cpp":
            "void BuildTables(std::vector<double>& v) {\n"
            "  v.resize(1024);\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/setup.cpp:2", "hot-path-alloc")
        self.assertIn("(in BuildTables)", out)

    def test_constructor_allocation_fails(self):
        # Hot objects reserve in their constructors; the annotation is what
        # records that the allocation is setup-path.
        code, out, _ = self.analyze_tree({
            "src/serve/slab.h":
            "class Slab {\n"
            " public:\n"
            "  Slab() { storage_.resize(4096); }\n"
            "  MULINK_HOT double* Get() { return storage_.data(); }\n"
            " private:\n"
            "  std::vector<double> storage_;\n"
            "};\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/serve/slab.h:3", "hot-path-alloc")
        self.assertIn("(in Slab::Slab)", out)

    def test_templated_make_unique_and_make_shared_fail(self):
        # The call matcher sees through template arguments: `name<...>(`.
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT double Score(int x) {\n"
            "  auto a = std::make_unique<int>(x);\n"
            "  auto b = std::make_shared<double>(1.0);\n"
            "  return *a + *b;\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/score.cpp:2", "hot-path-alloc")
        self.assertFindingAt(out, "src/core/score.cpp:3", "hot-path-alloc")
        self.assertIn("`make_unique`", out)
        self.assertIn("`make_shared`", out)

    def test_make_unique_array_in_member_initializer_list_fails(self):
        # The SpscRing / LinkState pattern: the allocation sits between the
        # constructor's `)` and its body, and still names the constructor.
        code, out, _ = self.analyze_tree({
            "src/serve/ring.h":
            "namespace serve {\n"
            "class Ring {\n"
            " public:\n"
            "  explicit Ring(std::size_t cap)\n"
            "      : cells_(std::make_unique<Cell[]>(cap)), mask_{cap - 1} {}\n"
            " private:\n"
            "  std::unique_ptr<Cell[]> cells_;\n"
            "  std::size_t mask_;\n"
            "};\n"
            "}  // namespace serve\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/serve/ring.h:5", "hot-path-alloc")
        self.assertIn("(in serve::Ring::Ring)", out)

    def test_out_of_line_constructor_initializer_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "Engine::Engine(int n)\n"
            "    : scratch_(std::make_unique<Scratch>()),\n"
            "      rows_(static_cast<std::size_t>(n)) {\n"
            "  rows_.reserve(8);\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/engine.cpp:2", "hot-path-alloc")
        self.assertFindingAt(out, "src/core/engine.cpp:4", "hot-path-alloc")
        self.assertIn("(in Engine::Engine)", out)

    def test_namespace_scope_and_class_body_fail(self):
        code, out, _ = self.analyze_tree({
            "src/dsp/tables.h":
            "static double* kTable = new double[64];\n"
            "struct Cache {\n"
            "  std::unique_ptr<int> p = std::make_unique<int>(0);\n"
            "};\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/dsp/tables.h:1", "hot-path-alloc")
        self.assertFindingAt(out, "src/dsp/tables.h:3", "hot-path-alloc")

    def test_planted_new_at_namespace_scope_fails(self):
        code, out, _ = self.analyze_tree(
            {"src/core/thing.cpp": "int* p = new int[8];\n"})
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/thing.cpp:1", "hot-path-alloc")

    def test_every_hot_dir_is_in_the_zone(self):
        for rel in ("src/core/a.cpp", "src/linalg/solve.cpp",
                    "src/dsp/b.cpp", "src/kernels/scratch.cpp",
                    "src/serve/c.cpp"):
            code, out, _ = self.analyze_tree(
                {rel: "void F(V& v) { v.push_back(1.0); }\n"})
            self.assertEqual(code, mulink_analyze.EXIT_FINDINGS, rel)
            self.assertFindingAt(out, f"{rel}:1", "hot-path-alloc")

    def test_extra_allocating_tokens_fail(self):
        code, out, _ = self.analyze_tree({
            "src/serve/cb.cpp":
            "void F(std::deque<int>& d, int x) {\n"
            "  d.push_front(x);\n"
            "  d.emplace_front(x);\n"
            "  std::function<void()> cb = [] {};\n"
            "  auto s = std::to_string(x);\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        for line in (2, 3, 4, 5):
            self.assertFindingAt(out, f"src/serve/cb.cpp:{line}",
                                 "hot-path-alloc")

    def test_allow_annotation_suppresses(self):
        code, _, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT double Score(std::vector<double>& v) {\n"
            "  // mulink-lint: allow(alloc): amortized growth, measured\n"
            "  v.push_back(1.0);\n"
            "  v.reserve(4);  // mulink-lint: allow(alloc): same line\n"
            "  return v.back();\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_cold_tu_marker_opts_out(self):
        code, _, _ = self.analyze_tree({
            "src/core/report.cpp":
            "// mulink-lint: cold-tu(report generation, not on any hot path)\n"
            "MULINK_HOT void Oddball(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_alloc_outside_hot_dirs_is_clean(self):
        code, _, _ = self.analyze_tree({
            "src/experiments/campaign.cpp":
            "MULINK_HOT void Run(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "}\n",
            "src/wifi/csi.cpp": "void F(V& v) { v.push_back(1); }\n",
            "tools/cli.cpp": "void G(V& v) { v.push_back(1); }\n",
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class LexerFidelity(AnalyzeHarness):
    """Rule tokens inside comments and literals never produce findings —
    the analyzer lexes for real instead of regex-stripping."""

    def test_tokens_in_comments_and_strings_ignored(self):
        code, _, _ = self.analyze_tree({
            "src/core/doc.cpp":
            "MULINK_HOT double Score(int n) {\n"
            "  // a cold caller may push_back( into the staging vector\n"
            "  /* new int[4] would be wrong here */\n"
            "  const char* msg = \"calls malloc( under the hood\";\n"
            "  (void)msg;\n"
            "  return 1.0 * n;\n"
            "}\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_multiline_raw_string_is_opaque(self):
        # A raw string spanning lines whose body mentions allocation and
        # atomic tokens (usage text) must not produce findings.
        code, _, _ = self.analyze_tree({
            "src/core/doc.cpp":
            "MULINK_HOT const char* Usage() {\n"
            "  return R\"(usage:\n"
            "    push_back( onto the queue; allocates via new int[4]\n"
            "    counter.fetch_add(1) bumps the total\n"
            "  )\";\n"
            "}\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_delimited_raw_string_is_opaque(self):
        code, _, _ = self.analyze_tree({
            "src/core/usage.cpp":
            "const char* kJson = R\"json({\n"
            "  \"hint\": \"resize( the pool)\"\n"
            "})json\";\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_code_after_raw_string_close_is_still_checked(self):
        code, out, _ = self.analyze_tree({
            "src/core/usage.cpp":
            "const char* kDoc = R\"(doc\n"
            "text)\"; int* p = new int[4];\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/usage.cpp:2", "hot-path-alloc")

    def test_preprocessor_lines_are_opaque(self):
        code, _, _ = self.analyze_tree({
            "src/core/config.cpp":
            "#define SCRATCH_HINT push_back\n"
            "MULINK_HOT double Score(int n) { return 1.0 * n; }\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_annotation_after_preprocessor_line_counts(self):
        code, _, _ = self.analyze_tree({
            "src/core/simd.cpp":
            "#include <immintrin.h>  // mulink-lint: allow(intrinsics): probe\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class DeterminismRule(AnalyzeHarness):
    def test_fma_outside_kernels_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "double Blend(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("fma", out)

    def test_fma_inside_kernels_is_the_owners_call(self):
        code, _, _ = self.analyze_tree({
            "src/kernels/poly.cpp":
            "double Horner(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_unordered_iteration_fails(self):
        code, out, _ = self.analyze_tree({
            "src/serve/dump.cpp":
            "std::unordered_map<int, int> table;\n"
            "int Serialize() {\n"
            "  int s = 0;\n"
            "  for (const auto& kv : table) s += kv.second;\n"
            "  return s;\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("unordered", out)

    def test_ordered_iteration_is_clean(self):
        code, _, _ = self.analyze_tree({
            "src/serve/dump.cpp":
            "std::map<int, int> table;\n"
            "int Serialize() {\n"
            "  int s = 0;\n"
            "  for (const auto& kv : table) s += kv.second;\n"
            "  return s;\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_wall_clock_fails_steady_clock_clean(self):
        code, out, _ = self.analyze_tree({
            "src/obs/clock.cpp":
            "long Wall() {\n"
            "  return std::chrono::system_clock::now()"
            ".time_since_epoch().count();\n"
            "}\n"
            "long Mono() {\n"
            "  return std::chrono::steady_clock::now()"
            ".time_since_epoch().count();\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("system_clock", out)
        self.assertNotIn("steady_clock`", out)

    def test_ambient_rng_outside_home_fails(self):
        code, out, _ = self.analyze_tree({
            "src/dsp/jitter.cpp":
            "double Jitter() {\n"
            "  static std::mt19937 gen(std::random_device{}());\n"
            "  return static_cast<double>(gen());\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("mt19937", out)

    def test_ambient_rng_fails_anywhere_in_the_tree(self):
        # Namespace scope, and presentation code too: campaigns stay
        # reproducible only if every draw goes through mulink::Rng.
        for rel in ("src/nic/sim.cpp", "bench/micro.cpp", "tools/x.cpp"):
            code, out, _ = self.analyze_tree({
                rel: "#include <random>\nstd::mt19937 gen(std::rand());\n"
            })
            self.assertEqual(code, mulink_analyze.EXIT_FINDINGS, rel)
            self.assertFindingAt(out, f"{rel}:2", "determinism")

    def test_rng_home_is_exempt(self):
        code, _, _ = self.analyze_tree({
            "src/common/rng.cpp":
            "std::uint32_t x = std::random_device{}();\n"
            "unsigned Draw() {\n"
            "  static std::mt19937_64 gen(0xBEEF);\n"
            "  return static_cast<unsigned>(gen());\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_time_null_seed_fails(self):
        code, _, _ = self.analyze_tree({
            "src/experiments/seed.cpp":
            "long Seed() { return time(nullptr); }\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)

    def test_time_seed_at_namespace_scope_fails(self):
        code, out, _ = self.analyze_tree(
            {"src/nic/sim.cpp": "auto seed = time(nullptr);\n"})
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/nic/sim.cpp:1", "determinism")

    def test_allow_annotation_suppresses(self):
        code, _, _ = self.analyze_tree({
            "src/obs/clock.cpp":
            "long Wall() {\n"
            "  // mulink-analyze: allow(determinism): artifact timestamps\n"
            "  return std::chrono::system_clock::now()"
            ".time_since_epoch().count();\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


ATOMIC_DECL = "std::atomic<std::size_t> head_{0};\n"


class AtomicsRule(AnalyzeHarness):
    def test_orderless_member_call_fails(self):
        code, out, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Bump() { head_.fetch_add(1); }\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("explicit memory_order", out)

    def test_operator_form_access_fails(self):
        code, out, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Bump() { ++head_; }\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("seq_cst by definition", out)

    def test_explicit_orders_are_clean(self):
        code, _, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Publish(std::size_t v) {\n"
            "  head_.store(v, std::memory_order_release);\n"
            "}\n"
            "std::size_t Read() {\n"
            "  return head_.load(std::memory_order_acquire);\n"
            "}\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_relaxed_store_against_acquire_load_fails(self):
        code, out, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Publish(std::size_t v) {\n"
            "  head_.store(v, std::memory_order_relaxed);\n"
            "}\n"
            "std::size_t Read() {\n"
            "  return head_.load(std::memory_order_acquire);\n"
            "}\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("no release edge", out)

    def test_constructor_relaxed_seeding_is_exempt(self):
        # spsc_ring.h's cell-sequence seeding: relaxed stores before the
        # object is published are the idiom, not a missing release edge.
        code, _, _ = self.analyze_tree({
            "src/serve/ring.h":
            "class Ring {\n"
            " public:\n"
            "  Ring() { seq_.store(0, std::memory_order_relaxed); }\n"
            "  std::size_t Read() const {\n"
            "    return seq_.load(std::memory_order_acquire);\n"
            "  }\n"
            " private:\n"
            "  std::atomic<std::size_t> seq_{0};\n"
            "};\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_nested_class_constructor_seeding_is_exempt(self):
        # `struct Outer::Inner {` names the class Inner, so Inner's
        # constructor is recognized as one.
        code, out, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "struct Engine::Slot {\n"
            "  Slot() { seq_.store(0, std::memory_order_relaxed); }\n"
            "  std::size_t Read() const {\n"
            "    return seq_.load(std::memory_order_acquire);\n"
            "  }\n"
            "  std::atomic<std::size_t> seq_{0};\n"
            "};\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN, out)

    def test_shadowing_local_is_not_an_atomic_access(self):
        # Regression pin for the spsc_ring.h pattern: a local `const
        # std::size_t seq = cell.seq.load(...)` shadows the atomic member
        # name; its initialization is not an operator-form atomic store.
        code, _, _ = self.analyze_tree({
            "src/serve/ring.h":
            "class Ring {\n"
            " public:\n"
            "  bool TryPop() {\n"
            "    const std::size_t seq = seq_.load(std::memory_order_acquire);\n"
            "    return seq != 0;\n"
            "  }\n"
            " private:\n"
            "  std::atomic<std::size_t> seq_{0};\n"
            "};\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_allow_annotation_suppresses(self):
        code, _, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Bump() {\n"
            "  // mulink-analyze: allow(atomics): sc fence intended here\n"
            "  head_.fetch_add(1);\n"
            "}\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class ObsDisciplineRule(AnalyzeHarness):
    def test_direct_registry_call_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "void Tick(obs::Registry& metrics) {\n"
            "  metrics.Add(obs::Counter::kFramesIngested, 1);\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("MULINK_OBS_", out)

    def test_direct_registry_call_through_pointer_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "void F(R* m) { m->Add(obs::Counter::kDecisions); }\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/engine.cpp:1", "obs-discipline")

    def test_direct_timer_construction_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "void Tick(obs::Registry& metrics) {\n"
            "  obs::ScopedStageTimer timer(metrics, obs::Stage::kScore);\n"
            "  (void)timer;\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/engine.cpp:2", "obs-discipline")

    def test_macro_call_is_clean(self):
        code, _, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "void Tick(obs::Registry& metrics) {\n"
            "  MULINK_OBS_COUNT(metrics, kFramesIngested, 1);\n"
            "  MULINK_OBS_STAGE_TIMER(metrics, kScore);\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_obs_subsystem_itself_is_exempt(self):
        code, _, _ = self.analyze_tree({
            "src/obs/registry.cpp":
            "void Registry::Add(obs::Counter c, std::uint64_t d) {\n"
            "  counters_[static_cast<std::size_t>(c)]"
            ".fetch_add(d, std::memory_order_relaxed);\n"
            "}\n"
            "void Forward(Registry& r) {\n"
            "  r.Add(obs::Counter::kFramesIngested, 1);\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_presentation_code_is_out_of_scope(self):
        code, _, _ = self.analyze_tree({
            "tools/cli.cpp":
            "void Dump(obs::Registry& r) {\n"
            "  r.Add(obs::Counter::kFramesIngested, 1);\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class StdoutRule(AnalyzeHarness):
    def test_cout_in_library_fails(self):
        code, out, _ = self.analyze_tree(
            {"src/obs/export.cpp": 'void P() { std::cout << "hi"; }\n'})
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/obs/export.cpp:1", "stdout")

    def test_printf_in_library_fails(self):
        code, out, _ = self.analyze_tree(
            {"src/core/engine.cpp": 'void P() { printf("x"); }\n'})
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/engine.cpp:1", "stdout")

    def test_stdout_stream_argument_fails(self):
        code, out, _ = self.analyze_tree({
            "src/wifi/dump.cpp":
            "void P(const char* s) {\n"
            "  std::fputs(s, stdout);\n"
            "  std::fprintf(stdout, \"%s\", s);\n"
            "  puts(s);\n"
            "}\n"
        }, ["--rule", "stdout"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        for line in (2, 3, 4):
            self.assertFindingAt(out, f"src/wifi/dump.cpp:{line}", "stdout")

    def test_ostream_serializer_and_stderr_are_clean(self):
        code, _, _ = self.analyze_tree({
            "src/obs/export.cpp":
            "void Write(std::ostream& os) { os << 1; }\n"
            "void Warn() { std::fprintf(stderr, \"warn\"); }\n"
            "int Fmt(char* b) { return std::snprintf(b, 4, \"%d\", 1); }\n"
        }, ["--rule", "stdout"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_tools_examples_bench_may_print(self):
        code, _, _ = self.analyze_tree({
            "tools/cli.cpp": 'void P() { std::cout << "ok"; }\n',
            "examples/quickstart.cpp": 'void Q() { printf("ok"); }\n',
            "bench/micro.cpp": 'void R() { puts("ok"); }\n',
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_allow_annotation_suppresses(self):
        code, _, _ = self.analyze_tree({
            "src/common/log.cpp":
            "// mulink-lint: allow(stdout): opt-in debug dump\n"
            'void D() { std::cout << "x"; }\n'
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class IntrinsicsRule(AnalyzeHarness):
    """Vector code lives only in src/kernels, behind the dispatch layer."""

    def test_immintrin_include_outside_kernels_fails(self):
        code, out, _ = self.analyze_tree(
            {"src/core/detector.cpp": "#include <immintrin.h>\n"})
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "src/core/detector.cpp:1", "intrinsics")

    def test_mm_call_and_vector_type_fail_outside_kernels(self):
        for rel in ("src/dsp/filter.cpp", "bench/micro.cpp", "tools/x.cpp"):
            code, out, _ = self.analyze_tree({
                rel:
                "void F(double* p) {\n"
                "  __m256d v = _mm256_loadu_pd(p);\n"
                "  _mm256_storeu_pd(p, v);\n"
                "}\n"
            })
            self.assertEqual(code, mulink_analyze.EXIT_FINDINGS, rel)
            self.assertFindingAt(out, f"{rel}:2", "intrinsics")
            self.assertFindingAt(out, f"{rel}:3", "intrinsics")

    def test_intrinsic_in_macro_body_fails(self):
        code, out, _ = self.analyze_tree({
            "examples/x86x.cpp":
            "#include <x86intrin.h>\n"
            "#define RELAX() _mm_pause()\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertFindingAt(out, "examples/x86x.cpp:1", "intrinsics")
        self.assertFindingAt(out, "examples/x86x.cpp:2", "intrinsics")

    def test_kernels_dir_is_exempt(self):
        code, _, _ = self.analyze_tree({
            "src/kernels/kernels_avx2.cpp":
            "#include <immintrin.h>\n"
            "void F(double* p) { _mm256_storeu_pd(p, _mm256_setzero_pd()); }\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_annotated_intrinsic_is_allowed(self):
        code, _, _ = self.analyze_tree({
            "src/dsp/fft.cpp":
            "// mulink-lint: allow(intrinsics): prefetch hint only\n"
            "void F(const double* p) { _mm_prefetch(p, 1); }\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_intrinsic_tokens_in_comments_ignored(self):
        code, _, _ = self.analyze_tree({
            "src/core/detector.cpp":
            "// the kernels layer uses _mm256_fmadd_pd( internally\n"
            'const char* kDoc = "__m256d lanes";\n'
            "#include <vector>  // not <immintrin.h>\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class CliSurface(AnalyzeHarness):
    def test_rule_filter_runs_only_that_rule(self):
        files = {
            "src/core/both.cpp":
            "MULINK_HOT void Hot() { int* p = new int[4]; (void)p; }\n"
            "double Blend(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n",
            "src/nic/sim.cpp": "auto g = std::mt19937{};\n",
        }
        code, out, _ = self.analyze_tree(files, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("fma", out)
        self.assertFindingAt(out, "src/nic/sim.cpp:1", "determinism")
        self.assertNotIn("hot-path-alloc", out)

    def test_json_output_is_machine_readable(self):
        code, out, _ = self.analyze_tree(
            {"src/core/detector.cpp": "int* p = new int[4];\n"}, ["--json"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        payload = json.loads(out)
        self.assertEqual(payload["files_scanned"], 1)
        self.assertEqual(len(payload["findings"]), 1)
        finding = payload["findings"][0]
        self.assertEqual(finding["rule"], "hot-path-alloc")
        self.assertEqual(finding["file"], "src/core/detector.cpp")
        self.assertEqual(finding["line"], 1)

    def test_explicit_file_list_restricts_scan(self):
        files = {
            "src/core/bad.cpp":
            "MULINK_HOT void Hot() { int* p = new int[4]; (void)p; }\n",
            "src/core/good.cpp": "void Fine() {}\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), files)
            code, _, _ = self.run_analyze(
                ["--root", tmp, "src/core/good.cpp"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class RealTree(unittest.TestCase):
    """The gate the TreeIsClean ctest and CI `analyze` job rely on."""

    def test_repository_is_clean(self):
        repo = Path(__file__).resolve().parent.parent.parent
        out, err = io.StringIO(), io.StringIO()
        code = mulink_analyze.run(
            ["--root", str(repo)], stdout=out, stderr=err)
        self.assertEqual(
            code, mulink_analyze.EXIT_CLEAN,
            f"mulink-analyze found defects in the real tree:\n"
            f"{out.getvalue()}{err.getvalue()}")


if __name__ == "__main__":
    unittest.main()
