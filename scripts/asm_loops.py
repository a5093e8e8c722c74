#!/usr/bin/env python3
"""Structural check of the HAND vector loops in a release binary.

Usage: scripts/asm_loops.py BINARY SYMBOL [SYMBOL ...]

For every function whose demangled name is one of SYMBOL (a const-generic
function has one instance per parameter value; each is checked), it
disassembles the function with objdump and finds its innermost
backward-branch loops: a conditional or unconditional jump to an earlier
address in the same function closes a loop, and a loop is innermost when
no other such loop lies inside it. The vector loops are the innermost
loops that hold an instruction the line table attributes to
`core::arch` (`core_arch/src/`), that is, an inlined intrinsic; the
scalar and auto-vectorised tails hold none. A backward jump whose range
holds a `ret` is a jump to a shared epilogue, not a loop. The release profile keeps
line tables (`debug = "line-tables-only"`), which this relies on.

It prints, per vector loop, the instruction count of the loop body. It
exits 1 when a listed symbol is missing, has no vector loop, or has a
vector loop that contains a `call` or an indirect `jmp`; it never fails
on counts.
"""

import os
import re
import subprocess
import sys

FUNC = re.compile(r"^([0-9a-f]+) <(.+)>:$")
INSN = re.compile(r"^\s+([0-9a-f]+):\s+(\S+)\s*(.*)$")
SOURCE = re.compile(r"^(/\S+):\d+")
INTRINSIC = "/core_arch/src/"
TARGET = re.compile(r"^([0-9a-f]+) <")


def functions(binary, names):
    """Yields (name, address, [(address, mnemonic, operands, intrinsic)])
    per instance; `intrinsic` is whether the instruction comes from an
    inlined `core::arch` intrinsic."""
    out = subprocess.run(
        ["objdump", "-d", "-l", "-C", "--no-show-raw-insn", binary],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    current = None
    source = ""
    for line in out.splitlines():
        head = FUNC.match(line)
        if head:
            if current:
                yield current
            addr, name = head.groups()
            current = (name, int(addr, 16), []) if name in names else None
            continue
        if current is None:
            continue
        path = SOURCE.match(line)
        if path:
            source = path.group(1)
            continue
        insn = INSN.match(line)
        if insn:
            addr, mnemonic, operands = insn.groups()
            current[2].append((int(addr, 16), mnemonic, operands, INTRINSIC in source))
    if current:
        yield current


def vector_loops(insns):
    """The innermost backward-branch loops that hold an intrinsic."""
    loops = []
    for addr, mnemonic, operands, _ in insns:
        target = TARGET.match(operands)
        if mnemonic.startswith("j") and target:
            start = int(target.group(1), 16)
            rets = any(m == "ret" for a, m, _, _ in insns if start <= a <= addr)
            if start <= addr and not rets:
                loops.append((start, addr))
    innermost = [
        outer
        for outer in loops
        if not any(
            inner != outer and outer[0] <= inner[0] and inner[1] <= outer[1]
            for inner in loops
        )
    ]
    for start, end in sorted(set(innermost)):
        body = [i for i in insns if start <= i[0] <= end]
        if any(intrinsic for *_, intrinsic in body):
            yield start, body


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    binary, names = argv[1], set(argv[2:])
    if not os.path.isfile(binary):
        print(f"asm: no binary at {binary}", file=sys.stderr)
        return 1
    seen = set()
    failures = []
    for name, addr, insns in functions(binary, names):
        seen.add(name)
        loops = list(vector_loops(insns))
        if not loops:
            failures.append(f"{name} @ {addr:#x}: no vector loop")
        for start, body in loops:
            calls = [m for _, m, _, _ in body if m.startswith("call")]
            jumps = [m for _, m, o, _ in body if m.startswith("jmp") and o.startswith("*")]
            verdict = "ok"
            if calls or jumps:
                verdict = "call in loop" if calls else "indirect jmp in loop"
                failures.append(f"{name} @ {addr:#x}: loop at {start:#x}: {verdict}")
            print(f"{len(body):4d} insns  {name} @ {addr:#x} loop {start:#x}  {verdict}")
    for name in sorted(names - seen):
        failures.append(f"{name}: symbol not found")
    for failure in failures:
        print(f"asm: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
