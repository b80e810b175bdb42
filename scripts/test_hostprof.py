#!/usr/bin/env python3
"""Tests for the layer rules of hostprof/symbolize.py.

    python3 -m unittest discover -s scripts -p 'test_hostprof.py'
"""

import os
import sys
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


if __name__ == "__main__":
    unittest.main()
