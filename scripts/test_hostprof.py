#!/usr/bin/env python3
"""Tests for the layer rules and the line split of hostprof/symbolize.py.

    python3 -m unittest discover -s scripts -p 'test_hostprof.py'
"""

import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "hostprof"))
import symbolize  # noqa: E402

BIN = "/build/perfbench/hcbench"
LIBC = "/usr/lib/x86_64-linux-gnu/libc.so.6"


class LayerOf(unittest.TestCase):
    def test_template_function_with_return_type_is_libstdcxx(self):
        name = ("void std::__introsort_loop<__gnu_cxx::__normal_iterator"
                "<unsigned int*, std::vector<unsigned int, std::allocator"
                "<unsigned int> > >, long, __gnu_cxx::__ops::"
                "_Iter_less_iter>(__gnu_cxx::__normal_iterator<unsigned "
                "int*, std::vector<unsigned int> >, long)")
        self.assertEqual(symbolize.layer_of(name, BIN), "libstdc++")
        self.assertEqual(
            symbolize.layer_of("unsigned long std::__lg<long>(long)", BIN),
            "libstdc++")

    def test_unresolved_pc_in_libc_is_libc(self):
        self.assertEqual(symbolize.layer_of("?libc.so.6", LIBC), "libc")

    def test_simulator_type_inside_std_instantiation(self):
        name = ("std::_Hashtable<unsigned long, std::pair<unsigned long "
                "const, hc::mem::Mee::Chunk>, std::allocator<std::pair<"
                "unsigned long const, hc::mem::Mee::Chunk> > >::find("
                "unsigned long const&)")
        self.assertEqual(symbolize.layer_of(name, BIN), "mem")
        self.assertEqual(symbolize.layer_of(
            "void std::vector<hc::sim::Thread*>::_M_realloc_insert<"
            "hc::sim::Thread* const&>(hc::sim::Thread* const&)", BIN),
            "sim scheduler")

    def test_bench_reference(self):
        self.assertEqual(
            symbolize.layer_of("perfbench::referenceSeconds()", BIN),
            "bench reference")
        self.assertEqual(symbolize.layer_of(
            "perfbench::runKv(perfbench::Options const&)", BIN), "bench")

    def test_fiber_switch(self):
        self.assertEqual(symbolize.layer_of("hcFiberSwitch", BIN),
                         "sim fiber")

    def test_vdso_is_unknown(self):
        self.assertEqual(symbolize.layer_of("?[vdso]", "[vdso]"),
                         "unknown")

    def test_operators_and_plain_functions(self):
        self.assertEqual(
            symbolize.layer_of("operator new(unsigned long)", BIN),
            "libstdc++")
        self.assertEqual(symbolize.layer_of(
            "std::vector<int> makeTable<int>(int)", BIN), "other")
        self.assertEqual(symbolize.layer_of("?hcbench", BIN), "other")


# Stands in for addr2line: answers "src/<file>.cc:<addr>" per address
# read from stdin (file "mem/cache" below 0x2000, else "mem/mee"),
# with a discriminator on odd addresses, and records its argv.
FAKE_ADDR2LINE = """#!/usr/bin/env python3
import sys
with open(sys.argv[0] + ".argv", "a") as f:
    f.write(" ".join(sys.argv[1:]) + "\\n")
for tok in sys.stdin.read().split():
    v = int(tok, 16)
    name = "mem/cache" if v < 0x2000 else "mem/mee"
    tail = " (discriminator 2)" if v % 2 else ""
    print(f"/src/{name}.cc:{v}{tail}")
"""


class LineSplit(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.tool = os.path.join(self.tmp.name, "addr2line")
        with open(self.tool, "w") as f:
            f.write(FAKE_ADDR2LINE)
        os.chmod(self.tool, os.stat(self.tool).st_mode | stat.S_IEXEC)

    def tearDown(self):
        self.tmp.cleanup()

    def calls(self):
        with open(self.tool + ".argv") as f:
            return f.read().splitlines()

    def test_source_lines_batches_and_shortens(self):
        table = symbolize.source_lines(BIN, [0x25, 0x10, 0x25],
                                       addr2line=self.tool)
        self.assertEqual(table, {0x10: "mem/cache.cc:16",
                                 0x25: "mem/cache.cc:37"})
        self.assertEqual(self.calls(), [f"-e {BIN} -C"])

    def test_line_profile_one_call_per_file_hot_symbols_only(self):
        acc = "hc::mem::CacheModel::accessImpl(...)"
        meta = "hc::mem::Mee::metaFor(unsigned long)"
        cold = "hc::sim::Engine::run()"
        samples = ([(acc, BIN, 0x25)] * 3 + [(acc, BIN, 0x10)]
                   + [(meta, BIN, 0x2055)] * 2
                   + [(cold, BIN, 0x30), (acc, "[vdso]", None)])
        split = symbolize.line_profile(samples, {acc, meta},
                                       addr2line=self.tool)
        self.assertEqual(split[acc], {"mem/cache.cc:37": 3,
                                      "mem/cache.cc:16": 1, "??:0": 1})
        self.assertEqual(split[meta], {"mem/mee.cc:8277": 2})
        self.assertNotIn(cold, split)
        self.assertEqual(len(self.calls()), 1)  # one mapped file

    def test_missing_tool_reports_unknown_lines(self):
        table = symbolize.source_lines(
            BIN, [0x40], addr2line=os.path.join(self.tmp.name, "none"))
        self.assertEqual(table, {0x40: "??:0"})


if __name__ == "__main__":
    unittest.main()
