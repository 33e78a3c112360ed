#!/usr/bin/env python3
"""Summarise pcsample output files: shares of host time by function.

    python3 tools/pcsample/report.py [--top N] FILE...

Each FILE is what libpcsample.so wrote at a process's exit. Samples in
the main executable are resolved with `addr2line -a -f -C -i`, and the
report prints their shares by outer function (the symbol the code
belongs to) and by inner function and source line (the innermost inlined
frame). Samples elsewhere are bucketed by the library they fall in, and
samples outside any mapping under "[unknown]". Files of different
executables are reported one after the other; files of one executable
are merged.
"""

import argparse
import collections
import os
import subprocess
import sys


def parse(path):
    """(exe, {offset: count}, {abs_pc: count}, [(lo, hi, path)])"""
    exe, offs, absolute, maps = None, collections.Counter(), \
        collections.Counter(), []
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "pcsample v1":
        sys.exit(f"{path}: not a pcsample v1 file")
    in_maps = False
    for line in lines[1:]:
        if in_maps:
            parts = line.split(None, 5)
            if len(parts) == 6:
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, parts[5]))
            continue
        key, _, rest = line.partition(" ")
        if key == "exe":
            exe = rest
        elif key == "off":
            pc, count = rest.split()
            offs[int(pc, 16)] += int(count)
        elif key == "abs":
            pc, count = rest.split()
            absolute[int(pc, 16)] += int(count)
        elif key == "maps":
            in_maps = True
    return exe, offs, absolute, maps


def resolve(exe, offsets):
    """{offset: [(function, file:line), ...]}, innermost frame first."""
    if not offsets:
        return {}
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", exe],
        input="".join(f"{o:#x}\n" for o in offsets),
        stdout=subprocess.PIPE, text=True, check=True)
    frames, cur = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    # Each address line (no function name starts with "0x") is followed
    # by function / file:line pairs, innermost inlined frame first.
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            cur = int(line, 16)
            frames[cur] = []
            i += 1
            continue
        if cur is not None and i + 1 < len(lines):
            frames[cur].append((line, os.path.basename(lines[i + 1])))
        i += 2
    return frames


def short(name):
    """A demangled name without its parameter list, qualifiers or clone
    suffix: "ns::f(int) const [clone .constprop.0]" -> "ns::f"."""
    name = name.split(" [clone ")[0]
    for suffix in (" const", " &&", " &"):
        name = name.removesuffix(suffix)
    if name.endswith(")"):
        depth = 0
        for i in range(len(name) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(name[i], 0)
            if depth == 0:
                return name[:i]
    return name


def library(pc, maps):
    for lo, hi, path in maps:
        if lo <= pc < hi:
            return f"[{os.path.basename(path)}]"
    return "[unknown]"


def table(title, counter, total, top):
    print(f"\n{title}")
    for name, n in counter.most_common(top):
        print(f"  {100.0 * n / total:6.2f}%  {n:8d}  {name}")
    rest = sum(counter.values()) - sum(n for _, n in
                                       counter.most_common(top))
    if rest:
        print(f"  {100.0 * rest / total:6.2f}%  {rest:8d}  (other)")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--top", type=int, default=25,
                   help="rows per table (default 25)")
    p.add_argument("files", nargs="+")
    args = p.parse_args()

    by_exe = collections.OrderedDict()
    for path in args.files:
        exe, offs, absolute, maps = parse(path)
        entry = by_exe.setdefault(exe, [collections.Counter(),
                                        collections.Counter()])
        entry[0].update(offs)
        for pc, n in absolute.items():
            entry[1][library(pc, maps)] += n

    for exe, (offs, libs) in by_exe.items():
        total = sum(offs.values()) + sum(libs.values())
        frames = resolve(exe, sorted(offs))
        outer, inner, lines = (collections.Counter() for _ in range(3))
        for off, n in offs.items():
            stack = frames.get(off) or [("??", "??:0")]
            outer[short(stack[-1][0])] += n
            inner[short(stack[0][0])] += n
            lines[f"{short(stack[0][0])}  {stack[0][1]}"] += n
        outer.update(libs)
        inner.update(libs)
        print(f"{exe}: {total} samples "
              f"({sum(libs.values())} outside the executable)")
        table("By outer function:", outer, total, args.top)
        table("By inner function:", inner, total, args.top)
        table("By inner function and line:", lines, total, args.top)


if __name__ == "__main__":
    main()
