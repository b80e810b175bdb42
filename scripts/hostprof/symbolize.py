#!/usr/bin/env python3
"""Turn a hostprof sample file into flat and per-layer self-time tables.

    python3 scripts/hostprof/symbolize.py hostprof.<pid>.raw [--top N]
        [--lines K]

Each sample is one interrupted program counter (self time only). PCs
are resolved to the mapped file with the recorded /proc/self/maps
lines, to ELF virtual addresses with `readelf -lW`, and to function
symbols with `nm -C -n -S` (falling back to the dynamic table for
stripped libraries). Symbols are grouped into layers by the first
`hc::<namespace>::` they mention, so inlined standard-library helpers
instantiated on simulator types (std::vector<hc::sim::Thread*>, ...)
count toward the layer that uses them.

With --lines K, the K hottest symbols are also split by source line
(self time per line, innermost inlined line first): one batched
`addr2line -e FILE -C` call per mapped file. This is how a single
stalling load, or a prefetch the compiler deleted, shows up.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

LAYER_RE = re.compile(r"hc::([a-z_]+)::")
# nm -S: "address [size] type name" (size absent for some symbols).
NM_RE = re.compile(r"^([0-9a-f]+) (?:([0-9a-f]+) )?([A-Za-z]) (.*)$")


def strip_return_type(name):
    """Drop the return type a demangled template function prints first:
    "void std::sort<...>(...)" -> "std::sort<...>(...)"."""
    depth = 0
    cut = 0
    for i, ch in enumerate(name):
        if name.startswith("operator", i) and (i == 0 or name[i - 1] in " :"):
            break  # "<" and "(" inside an operator's name are not nesting
        if ch == "(" and depth == 0:
            break
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif ch == " " and depth == 0:
            cut = i + 1
    return name[cut:]


def layer_of(name, path):
    if name.startswith("hcFiber") or "hc::sim::Fiber" in name:
        return "sim fiber"
    m = LAYER_RE.search(name)
    if m:
        ns = m.group(1)
        if ns == "sim":
            return "sim scheduler"
        return ns
    if "hc::" in name:
        return "support"  # hc::Rng, hc::SampleSet, hc::mix64, ...
    if "perfbench::" in name:
        if "referenceSeconds" in name:
            return "bench reference"
        return "bench"
    # The mapped file decides before the name: a PC inside libc that
    # no symbol covers is still libc time.
    if "/libc" in path or "/ld-linux" in path or "/libm" in path:
        return "libc"
    if "libstdc++" in path:
        return "libstdc++"
    if name.startswith("?"):
        return "unknown" if path.startswith("[") else "other"
    base = strip_return_type(name)
    if base.startswith("std::") or base.startswith("operator "):
        return "libstdc++"
    return "other"


def load_segments(path):
    """[(file offset, vaddr, filesz)] of the PT_LOAD segments."""
    try:
        out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    segs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[2], 16),
                         int(parts[4], 16)))
    return segs


def load_symbols(path):
    """Sorted ([start], [(start, size, name)]) of text symbols."""
    syms = []
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(
                ["nm", "-C", "-n", "-S", "--defined-only"] + extra + [path],
                capture_output=True, text=True).stdout
        except OSError:
            out = ""
        for line in out.splitlines():
            m = NM_RE.match(line)
            if m and m.group(3) in "tTwWi":
                syms.append((int(m.group(1), 16), int(m.group(2) or "0", 16),
                             m.group(4)))
        if syms:
            break
    syms.sort()
    return [s[0] for s in syms], syms


class Resolver:
    def __init__(self, maps):
        self.maps = sorted(maps)
        self.starts = [m[0] for m in self.maps]
        self.segs = {}
        self.syms = {}

    def resolve(self, pc):
        """@return (symbol, mapped file, ELF virtual address or None)."""
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1]:
            return "?", "[unmapped]", None
        start, _end, off, path = self.maps[i]
        if path.startswith("[") or not path.startswith("/"):
            return "?" + path, path, None
        if path not in self.segs:
            self.segs[path] = load_segments(path)
            self.syms[path] = load_symbols(path)
        file_off = pc - start + off
        vaddr = file_off
        for seg_off, seg_vaddr, filesz in self.segs[path]:
            if seg_off <= file_off < seg_off + filesz:
                vaddr = seg_vaddr + (file_off - seg_off)
                break
        starts, syms = self.syms[path]
        j = bisect.bisect_right(starts, vaddr) - 1
        if j < 0:
            return "?" + path.rsplit("/", 1)[-1], path, vaddr
        sym_start, size, name = syms[j]
        if size and vaddr >= sym_start + size:
            return "?" + path.rsplit("/", 1)[-1], path, vaddr
        return name, path, vaddr


def source_lines(path, vaddrs, addr2line="addr2line"):
    """@return {vaddr: "dir/file:line"} for @p vaddrs of ELF file
    @p path, from one addr2line call ("??:0" when it knows nothing)."""
    vaddrs = sorted(set(vaddrs))
    try:
        out = subprocess.run(
            [addr2line, "-e", path, "-C"],
            input="".join(f"{v:x}\n" for v in vaddrs),
            capture_output=True, text=True).stdout.splitlines()
    except OSError:
        out = []
    table = {}
    for v, loc in zip(vaddrs, out + ["??:0"] * (len(vaddrs) - len(out))):
        loc = loc.split(" (discriminator")[0].strip()
        file, _, line = loc.rpartition(":")
        table[v] = "/".join(file.split("/")[-2:]) + ":" + line
    return table


def line_profile(samples, hot, addr2line="addr2line"):
    """Split the samples of the symbols in @p hot by source line.

    @p samples: [(symbol, mapped file, vaddr or None)], one per sample.
    @return {symbol: Counter({"file:line": samples})}.
    """
    by_path = collections.defaultdict(set)
    for name, path, vaddr in samples:
        if name in hot and vaddr is not None:
            by_path[path].add(vaddr)
    tables = {path: source_lines(path, vaddrs, addr2line)
              for path, vaddrs in by_path.items()}
    out = {name: collections.Counter() for name in hot}
    for name, path, vaddr in samples:
        if name in hot:
            loc = tables[path][vaddr] if vaddr is not None else "??:0"
            out[name][loc] += 1
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("raw", help="hostprof.<pid>.raw written by the sampler")
    ap.add_argument("--top", type=int, default=25,
                    help="symbols to list (default 25)")
    ap.add_argument("--lines", type=int, default=0, metavar="K",
                    help="split the K hottest symbols by source line")
    args = ap.parse_args()

    maps, pcs = [], []
    cpu_s = None
    with open(args.raw) as f:
        for line in f:
            if line.startswith("pc "):
                pcs.append(int(line[3:], 16))
            elif line.startswith("map "):
                parts = line[4:].split()
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                path = parts[5] if len(parts) > 5 else "[anon]"
                maps.append((lo, hi, int(parts[2], 16), path))
            elif line.startswith("cpu_s "):
                cpu_s = float(line.split()[1])
    if not pcs:
        sys.exit(f"{args.raw}: no samples")

    resolver = Resolver(maps)
    by_sym = collections.Counter()
    by_layer = collections.Counter()
    sym_layer = {}
    cache = {}
    samples = []
    for pc in pcs:
        if pc not in cache:
            name, path, vaddr = resolver.resolve(pc)
            cache[pc] = (name, path, vaddr, layer_of(name, path))
        name, path, vaddr, layer = cache[pc]
        by_sym[name] += 1
        by_layer[layer] += 1
        sym_layer[name] = layer
        samples.append((name, path, vaddr))

    total = len(pcs)
    cpu = f", {cpu_s:.2f} s CPU" if cpu_s is not None else ""
    print(f"samples {total}{cpu}")
    print()
    print(f"{'layer':<18} {'samples':>9} {'self %':>7}")
    for layer, n in by_layer.most_common():
        print(f"{layer:<18} {n:>9} {100.0 * n / total:>6.1f}%")
    print()
    print(f"{'self %':>7} {'samples':>9}  {'layer':<16} symbol")
    for name, n in by_sym.most_common(args.top):
        short = name if len(name) <= 90 else name[:87] + "..."
        print(f"{100.0 * n / total:>6.1f}% {n:>9}  {sym_layer[name]:<16} "
              f"{short}")
    if args.lines > 0:
        hot = [name for name, _ in by_sym.most_common(args.lines)]
        split = line_profile(samples, set(hot))
        for name in hot:
            short = name if len(name) <= 90 else name[:87] + "..."
            print()
            print(f"== {short}")
            for loc, n in split[name].most_common(args.top):
                print(f"{100.0 * n / total:>6.1f}% {n:>9}  {loc}")


if __name__ == "__main__":
    main()
