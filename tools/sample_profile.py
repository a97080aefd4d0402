#!/usr/bin/env python3
"""Wall-clock sampling profile of one program run: self time by function and by line.

    python3 tools/sample_profile.py [--lib SO] [--top N] [--check-src DIR] -- PROGRAM [ARGS...]

Runs PROGRAM with the pc_sampler preload library (tools/pc_sampler.cc,
built as build/tools/libpc_sampler.so; x86-64 Linux), which samples the
program counter 10,000 times a second on a CLOCK_MONOTONIC timer and
writes the samples and the program's memory map at exit. The program's
own stdout goes to stderr.

Each sample is resolved through the ELF program headers of the object it
fell in, then named with `nm` (function) and `addr2line` (source line;
build with -g for lines). A sample inside libc is charged to its caller:
the word at the stack pointer is the return address of a leaf function
that keeps no frame, which glibc's memcpy and memmove are, so for them
the charge is exact. The "libc" column counts those samples; a libc sample
whose stack word is not a code address stays in libc.

Prints the top N functions and the top N source lines by self samples.
With --check-src DIR, exits 1 unless at least half the samples resolve to
a source line under DIR (the ctest check that samples land in src/).
"""
import argparse
import bisect
import os
import re
import struct
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_LIB = os.path.join(ROOT, "build", "tools", "libpc_sampler.so")
LIBC = re.compile(r"^libc([.-].*)?\.so")


def run_sampled(lib, argv):
    """Runs argv under the sampler; returns (header, samples, maps lines)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "samples.txt")
        env = dict(os.environ, PC_SAMPLER_OUT=out)
        env["LD_PRELOAD"] = " ".join(p for p in (lib, env.get("LD_PRELOAD")) if p)
        rc = subprocess.run(argv, env=env, stdout=sys.stderr).returncode
        if rc != 0:
            sys.exit(f"sample_profile: {argv[0]} exited {rc}")
        if not os.path.exists(out):
            sys.exit("sample_profile: the sampler wrote nothing (is " + lib +
                     " built, and is this x86-64 Linux?)")
        with open(out, encoding="utf-8") as f:
            lines = f.read().splitlines()
    header = lines[0]
    split = lines.index("maps")
    samples = [tuple(int(x, 16) for x in l.split()) for l in lines[1:split]]
    return header, samples, lines[split + 1:]


class Mapping:
    def __init__(self, line):
        fields = line.split(maxsplit=5)
        lo, hi = fields[0].split("-")
        self.start, self.end = int(lo, 16), int(hi, 16)
        self.exec = "x" in fields[1]
        self.offset = int(fields[2], 16)
        self.path = fields[5] if len(fields) == 6 else ""


class Object:
    """One mapped ELF file: file offset -> link-time address -> names."""

    def __init__(self, path):
        self.path = path
        self.name = os.path.basename(path)
        self.libc = bool(LIBC.match(self.name))
        self.loads = self._load_segments()
        self.addrs, self.syms = self._symbols()

    def _load_segments(self):
        try:
            with open(self.path, "rb") as f:
                eh = f.read(64)
                if eh[:4] != b"\x7fELF" or eh[4] != 2:
                    return []
                phoff, = struct.unpack_from("<Q", eh, 32)
                phentsize, phnum = struct.unpack_from("<HH", eh, 54)
                f.seek(phoff)
                ph = f.read(phentsize * phnum)
        except OSError:
            return []
        loads = []
        for i in range(phnum):
            ptype, _, off, vaddr, _, filesz = struct.unpack_from(
                "<IIQQQQ", ph, i * phentsize)
            if ptype == 1:  # PT_LOAD
                loads.append((off, vaddr, filesz))
        return loads

    def vaddr(self, file_off):
        for off, vaddr, size in self.loads:
            if off <= file_off < off + size:
                return file_off - off + vaddr
        return file_off

    def _symbols(self):
        rows = []
        for dyn in ([], ["-D"]):
            out = subprocess.run(
                ["nm", "--defined-only", "-C", "-n", "-S", *dyn, self.path],
                capture_output=True, text=True).stdout
            for line in out.splitlines():
                parts = line.split(maxsplit=3)
                if len(parts) == 4 and len(parts[2]) == 1:
                    addr, size, kind, name = parts
                elif len(parts) >= 3 and len(parts[1]) == 1:
                    addr, size, kind, name = parts[0], "0", parts[1], line.split(maxsplit=2)[2]
                else:
                    continue
                if kind in "tTwWiI":
                    rows.append((int(addr, 16), int(size, 16), name))
            if rows:
                break
        rows.sort()
        return [r[0] for r in rows], rows

    def function(self, va):
        # A symbol without a size (a label such as _init) claims nothing
        # past its address: the PLT stubs that follow _init are not it.
        i = bisect.bisect_right(self.addrs, va) - 1
        if i >= 0:
            addr, size, name = self.syms[i]
            if va < addr + max(size, 1):
                return name
        return f"[{self.name}]"


def lines_of(obj, vaddrs):
    """addr2line over every address at once: {vaddr: 'file:line'}."""
    vaddrs = sorted(vaddrs)
    out = subprocess.run(["addr2line", "-e", obj.path],
                         input="".join(f"{v:x}\n" for v in vaddrs),
                         capture_output=True, text=True).stdout.splitlines()
    found = {}
    for va, line in zip(vaddrs, out):
        line = line.split(" (discriminator")[0]
        found[va] = f"[{obj.name}]" if line.startswith("??") else line
    return found


def shorten(path_line):
    return path_line[len(ROOT) + 1:] if path_line.startswith(ROOT + os.sep) else path_line


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lib", default=DEFAULT_LIB)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--check-src")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv:
        ap.error("no program to run")

    header, samples, maps_lines = run_sampled(os.path.abspath(args.lib), argv)
    maps = [m for m in map(Mapping, maps_lines) if m.exec]
    starts = [m.start for m in maps]
    objects = {}

    def locate(addr):
        """(object, link-time address) of a code address, or None."""
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i].end:
            return None
        m = maps[i]
        if not m.path.startswith("/"):
            return None
        if m.path not in objects:
            objects[m.path] = Object(m.path)
        obj = objects[m.path]
        return obj, obj.vaddr(addr - m.start + m.offset)

    # Each sample becomes (object, address, via_libc); None is unresolved.
    resolved = []
    for pc, sp_word in samples:
        at = locate(pc)
        if at is not None and at[0].libc:
            caller = locate(sp_word)
            if caller is not None and not caller[0].libc:
                # A return address points past its call: look up the call.
                resolved.append((caller[0], caller[1] - 1, True))
                continue
        resolved.append(None if at is None else (at[0], at[1], False))

    by_obj = {}
    for r in resolved:
        if r is not None:
            by_obj.setdefault(r[0], set()).add(r[1])
    line_of = {obj: lines_of(obj, vas) for obj, vas in by_obj.items()}

    funcs, func_libc, lines = Counter(), Counter(), Counter()
    for r in resolved:
        if r is None:
            funcs["[unknown]"] += 1
            lines["[unknown]"] += 1
            continue
        obj, va, via_libc = r
        f = obj.function(va)
        funcs[f] += 1
        func_libc[f] += via_libc
        lines[shorten(line_of[obj][va])] += 1

    n = len(samples)
    print(header)
    print(f"{n} samples, {sum(1 for r in resolved if r and r[2])} in libc "
          "charged to their caller")
    if n == 0:
        sys.exit("sample_profile: no samples")
    print("\nself time by function:\n   share  samples   libc  function")
    for f, c in funcs.most_common(args.top):
        print(f"  {100 * c / n:5.1f}%  {c:7d}  {func_libc[f]:5d}  {f[:110]}")
    print("\nself time by source line:\n   share  samples  line")
    for l, c in lines.most_common(args.top):
        print(f"  {100 * c / n:5.1f}%  {c:7d}  {l}")

    if args.check_src:
        src = os.path.abspath(args.check_src) + os.sep
        rel = shorten(src)
        in_src = sum(c for l, c in lines.items()
                     if l.startswith(src) or l.startswith(rel))
        print(f"\nsamples on a line under {args.check_src}: "
              f"{100 * in_src / n:.1f}%")
        if 2 * in_src < n:
            sys.exit(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
