#!/usr/bin/env python3
"""Symbolise a hostprof.raw dump and print where the samples fell.

usage: hostprof.py BINARY RAW [--exclude S]... [--top N]
       hostprof.py BINARY RAW [--exclude S]... --grep S [--grep S]...
       hostprof.py BINARY RAW [--exclude S]... --lines FUNCTION
       hostprof.py BINARY RAW [--exclude S]... [--only S] --allocs PER_OP [--top N]

Frames come from `addr2line -i`, so inlined callees are attributed to
themselves. Without --grep: the top N functions by self time, then by
inclusive time. --grep S: share of samples with a frame containing S
(inclusive) and whose innermost frame contains S (self). --lines F: the
source lines of the samples whose innermost frame contains F. --exclude S
drops every sample with a frame containing S before anything is counted
(e.g. the benchmark's calibration kernel: --exclude traced_pass); --only S
keeps only the samples with a frame whose name or source path:line
contains S (e.g. one call site: --only rep.rs:272).

--allocs PER_OP reads a dump of allocation samples (HOSTPROF_ALLOC_EVERY)
and prints allocation sites: the innermost frame that is not allocator
machinery (the Rust library, the allocator shims and the global
allocator), followed by its caller. PER_OP is the run's exact allocations
per operation; a site's share of the kept samples times PER_OP is its
count per operation.

PCs in shared libraries are named after the nearest exported symbol, which
for a stripped libc is often wrong by name but right by library: read
`libc.so.6:*` rows as "libc" (memcpy/memcmp/malloc internals).
"""
import bisect
import collections
import re
import struct
import subprocess
import sys


def parse_args(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__)
    opts = {"exclude": [], "grep": [], "only": [], "top": 40, "lines": None, "allocs": None}
    rest = argv[2:]
    while rest:
        flag, value, rest = rest[0], rest[1:2], rest[2:]
        if not value or flag[2:] not in opts:
            raise SystemExit(__doc__)
        key = flag[2:]
        if isinstance(opts[key], list):
            opts[key].append(value[0])
        elif key == "top":
            opts[key] = int(value[0])
        elif key == "allocs":
            opts[key] = float(value[0])
        else:
            opts[key] = value[0]
    return argv[0], argv[1], opts


def read_samples(raw, returns_only=False):
    data = open(raw, "rb").read()
    words = struct.unpack(f"<{len(data) // 8}Q", data)
    base, words = words[0], words[1:]
    samples, i = [], 0
    while i < len(words):
        depth = words[i]
        # The leaf PC is exact (unless the sample holds return addresses
        # only); return addresses point past their call.
        samples.append([pc - (1 if j or returns_only else 0) for j, pc in enumerate(words[i + 1 : i + 1 + depth])])
        i += 1 + depth
    return base, samples


def symbolise_exe(binary, offsets):
    """offset -> [(function, path:line)], innermost inlined frame first.

    addr2line names the innermost frame of an inlined chain after the
    function it was inlined into; the path:line of every frame is exact."""
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", binary],
        input="\n".join(hex(o) for o in offsets),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split("\n")
    frames, cur, k = {}, None, 0
    while k + 1 < len(out):
        if out[k].startswith("0x"):
            cur = int(out[k], 16)
            frames[cur] = []
            k += 1
        else:
            name = re.sub(r"::h[0-9a-f]{16}$", "", out[k])
            frames[cur].append((name, out[k + 1]))
            k += 2
    return frames


class Libraries:
    """Nearest exported symbol for PCs that fall in a shared library."""

    def __init__(self, maps_path):
        self.maps, self.tables = [], {}
        try:
            for line in open(maps_path):
                f = line.split()
                if len(f) >= 6 and ".so" in f[5]:
                    lo, hi = (int(x, 16) for x in f[0].split("-"))
                    self.maps.append((lo, hi, int(f[2], 16), f[5]))
        except FileNotFoundError:
            pass

    def name(self, pc):
        for lo, hi, file_offset, path in self.maps:
            if lo <= pc < hi:
                if path not in self.tables:
                    self.tables[path] = self.load(path)
                table = self.tables[path]
                i = bisect.bisect_right(table, (pc - lo + file_offset, "~")) - 1
                lib = path.rsplit("/", 1)[-1]
                return f"{lib}:{table[i][1]}" if i >= 0 else lib
        return "??"

    @staticmethod
    def load(path):
        out = subprocess.run(["nm", "-D", "--defined-only", path], capture_output=True, text=True).stdout
        table = []
        for line in out.split("\n"):
            f = line.split()
            if len(f) == 3 and f[1] in "TtWwi":
                table.append((int(f[0], 16), f[2].split("@")[0]))
        return sorted(table)


def basename(loc):
    return loc.rsplit("/", 1)[-1]


def is_machinery(name, loc):
    """Allocator machinery: the Rust library (containers, `Box::new`, the
    `System` allocator), the allocator shims and the benchmark's counting
    allocator. Matched by source path, because addr2line may name an
    inlined library frame after its caller."""
    path = loc.split(":")[0]
    return "/rustc/" in path or path.startswith("?") or name.startswith("__rust") or path.endswith("benchmark/src/alloc.rs")


def print_alloc_sites(kept, total, opts):
    sites = collections.Counter()
    for st in kept:
        frames = [(name, loc) for name, loc in st if not is_machinery(name, loc)]
        if not frames:
            sites["(allocator machinery only)"] += 1
            continue
        name, loc = frames[0]
        sites[" < ".join([f"{name} {basename(loc)}"] + [n for n, _ in frames[1:2]])] += 1
    per_op = opts["allocs"]
    print(f"{per_op:.2f} allocations per op")
    print(" per op   share  site")
    for site, n in sites.most_common(opts["top"]):
        print(f"{per_op * n / total:7.3f} {100 * n / total:6.1f}%  {site}")


def main():
    binary, raw, opts = parse_args(sys.argv[1:])
    base, samples = read_samples(raw, returns_only=opts["allocs"] is not None)
    exe = symbolise_exe(binary, sorted({pc - base for s in samples for pc in s if 0 <= pc - base < 1 << 40}))
    libs = Libraries(raw + ".maps")

    def frames(sample):
        out = []
        for pc in sample:
            known = exe.get(pc - base)
            out += known if known and known[0][0] != "??" else [(libs.name(pc), "?")]
        return out

    stacks = [frames(s) for s in samples]
    kept = [st for st in stacks if not any(e in name for e in opts["exclude"] for name, _ in st)]
    kept = [st for st in kept if all(any(o in name or o in loc for name, loc in st) for o in opts["only"])]
    total = len(kept)
    print(f"{len(stacks)} samples, {total} kept")
    if total == 0:
        raise SystemExit("no samples kept")
    if opts["allocs"] is not None:
        print_alloc_sites(kept, total, opts)
    elif opts["lines"]:
        lines = collections.Counter(basename(st[0][1]) for st in kept if opts["lines"] in st[0][0])
        for line, n in lines.most_common(25):
            print(f"{100 * n / total:5.2f}%  {line}")
    elif opts["grep"]:
        for g in opts["grep"]:
            incl = sum(any(g in name for name, _ in st) for st in kept)
            self_ = sum(g in st[0][0] for st in kept)
            print(f"{g:44s} incl {100 * incl / total:5.1f}%  self {100 * self_ / total:5.1f}%")
    else:
        self_c = collections.Counter(st[0][0] for st in kept)
        incl_c = collections.Counter(name for st in kept for name in {n for n, _ in st})
        for title, counter in (("self", self_c), ("inclusive", incl_c)):
            print(f"--- {title}")
            for name, n in counter.most_common(opts["top"]):
                print(f"{100 * n / total:5.1f}%  {name}")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        pass
