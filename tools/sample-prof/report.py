#!/usr/bin/env python3
"""Report a sampleprof.c dump: python3 report.py prof.out [--top N] [--binary PATH]

Three views of the samples that fell inside the main executable (the rest
are counted by mapping): by function (innermost inlined frame), by source
line, and the hottest addresses with objdump context — the view that shows a
stall as one hot load right after a call. Whole-process samples include
set-up and per-rep preparation: read every share with that in mind. A dump
taken with SAMPLE_PROF_AFTER_S says which CPU seconds it covers; say beside
every share quoted whether it is whole-process or after-set-up.
Needs binutils (addr2line, objdump) and line tables in the binary
(CARGO_PROFILE_RELEASE_DEBUG=line-tables-only).
"""
import argparse, collections, subprocess

ap = argparse.ArgumentParser()
ap.add_argument("dump")
ap.add_argument("--top", type=int, default=15)
ap.add_argument("--binary", help="default: the first file-backed mapping, the executable")
args = ap.parse_args()

maps, ips, window = [], [], None
for line in open(args.dump):
    kind, _, rest = line.partition(" ")
    if kind == "ip":
        ips.append(int(rest, 16))
    elif kind == "window":
        window = tuple(float(x) for x in rest.split())
    elif kind == "map":
        f = rest.split()
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
binary = args.binary or next(m[3] for m in maps if m[3].startswith("/"))
base = min(lo - off for lo, _, off, path in maps if path == binary)  # PIE: first LOAD at vaddr 0

where, inside = collections.Counter(), collections.Counter()
for ip in ips:
    path = next((p for lo, hi, _, p in maps if lo <= ip < hi), "[unmapped]")
    where[path] += 1
    if path == binary:
        inside[ip - base] += 1
total, n = len(ips), sum(inside.values())
print(f"{total} samples, {n} in {binary}")
if window and window[0] > window[1]:
    print(f"never armed by the preload (SAMPLE_PROF_AFTER_S {window[0]:g} s, exit at {window[1]:.3f} s): "
          "every sample is from a timer the program armed itself (timed-region-only)")
elif window:
    kind = "after-set-up" if window[0] > 0 else "whole-process"
    print(f"armed from {window[0]:.3f} s to {window[1]:.3f} s of process CPU time ({kind})")
for path, c in where.most_common(5):
    print(f"  {100 * c / total:5.1f} %  {path}")

addrs = sorted(inside)
out = subprocess.run(["addr2line", "-f", "-C", "-i", "-a", "-e", binary], text=True, capture_output=True,
                     input="".join(f"{a:#x}\n" for a in addrs)).stdout.splitlines()
frames, cur = {}, None  # address -> [(function, file:line)], innermost inlined frame first
for i, line in enumerate(out):
    if line.startswith("0x") and ":" not in line:
        cur, fn = int(line, 16), None
        frames[cur] = []
    elif fn is None:
        fn = line
    else:
        frames[cur].append((fn, line.split(" (discriminator")[0]))
        fn = None

by_fn, by_line = collections.Counter(), collections.Counter()
for a, c in inside.items():
    fn, loc = frames.get(a, [("??", "??")])[0] if frames.get(a) else ("??", "??")
    by_fn[fn] += c
    by_line[f"{loc}  ({fn})"] += c
for title, table in (("by function", by_fn), ("by line", by_line)):
    print(f"\n== {title} (share of the {n} samples in the binary)")
    for key, c in table.most_common(args.top):
        print(f"  {100 * c / n:5.1f} %  {key}")

print("\n== hottest addresses")
for a, c in inside.most_common(min(args.top, 8)):
    chain = " <- ".join(f"{fn} {loc.rsplit('/', 1)[-1]}" for fn, loc in frames.get(a, []))
    print(f"\n  {100 * c / n:5.1f} %  {a:#x}  {chain}")
    # Decoding starts mid-instruction and resynchronises within a few lines:
    # disassemble from well before and keep the ten lines up to the sample.
    dis = subprocess.run(["objdump", "-d", "--no-show-raw-insn", f"--start-address={a - 96:#x}",
                          f"--stop-address={a + 12:#x}", binary], text=True, capture_output=True).stdout
    lines = [l for l in dis.splitlines() if l.startswith("  ") and ":" in l]
    at = next((i for i, l in enumerate(lines) if int(l.split(":")[0], 16) == a), len(lines))
    for i, line in enumerate(lines[max(0, at - 10):], max(0, at - 10)):
        print(f"    {'=>' if i == at else '  '} {line.strip()}")
