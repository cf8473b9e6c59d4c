#!/usr/bin/env python3
"""Fail when library code in src/ is reached by no executable.

    python3 tools/unreached_code.py BUILD PERFBENCH_BUILD

BUILD is a whole build of this repository and PERFBENCH_BUILD a build
of perfbench/ (cmake -S perfbench), both configured alike:

    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

Every function gets its own section, so the linker drops each one no
executable calls; -O0 keeps every call out of line, so inlining cannot
hide a caller. The script lists the strong text (`T`) symbols of every
src/ static library, removes the ones defined in any executable named
in EXECUTABLES or PERFBENCH_EXECUTABLE below, and prints what is left. It exits 1 when a name
outside ORACLES is left, or when an ORACLES entry is no longer left
(reached or deleted: drop it from the list and from DESIGN.md).

Known limit: code that lives only in headers (inline functions and
templates) is emitted as weak symbols in the objects that use it, so it
is not seen here.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The executables users run. Tests are deliberately absent: code only a
# test reaches is what this scan finds.
EXECUTABLES = (
    "tools/spm_tool",
    "bench/spm_figures",
    "bench/bench_algorithm",
    "examples/quickstart",
    "examples/explore_callloop",
    "examples/cache_reconfig",
    "examples/cross_binary_simpoints",
    "examples/online_phase_prediction",
)
PERFBENCH_EXECUTABLE = "spm_perfbench"

# Library functions only tests call, each kept as a test oracle or hook.
# Keys are qualified names: the parameter list and any [abi:...] tag are
# left out, so a signature change or another demangler does not matter.
ORACLES = {
    "spm::CallLoopGraph::findEdge":
        "callloop_test, profileio_test and property_test look up one edge",
    "spm::verify":
        "verify(const Binary &): verify_test, ir_test and workloads_test "
        "check lowered binaries",
    "spm::cfg::dumpCfg":
        "cfg_test and cfgfuzz_test round-trip binaries through spm-cfg",
    "spm::cfg::condSpecText":
        "tests/CfgGen.h prints generated branch annotations",
    "spm::cfg::callSpecText":
        "tests/CfgGen.h prints generated call annotations",
    "spm::cfg::memSpecText":
        "tests/CfgGen.h prints generated memory annotations",
    "spm::kmeansSingleRun":
        "parallel_test rebuilds kmeansCluster from single restarts",
    "spm::kmeansRestartSeed":
        "parallel_test pins the per-restart seed scheme",
    "spm::traceThreadStats":
        "observability_test checks per-thread ring accounting",
    "spm::failpointHits":
        "faultfuzz_test and observability_test count seam hits",
    "spm::failpointsClear":
        "faultfuzz_test and observability_test disarm every seam",
    "spm::flightRecorderReset":
        "attribution_test starts each case with an empty recorder",
}


def fail(msg):
    print("unreached_code: " + msg, file=sys.stderr)
    sys.exit(2)


def nm(path):
    """(type, mangled name) of every symbol \\p path defines."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3:
            yield fields[1], fields[2]


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()


def qualified_name(signature):
    """The qualified name of a demangled function signature: everything
    before the parameter list, without [abi:...] tags. An operator splits
    wrongly, matches no oracle, and so is still reported."""
    name = re.sub(r"\[abi:[^\]]*\]", "", signature)
    depth = 0
    for i, c in enumerate(name):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            return name[:i]
    return name


def libraries(build):
    """Every src/ module with sources is one static library spm_<module>."""
    src = os.path.join(ROOT, "src")
    for module in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, module)):
            continue
        if not any(f.endswith(".cpp") for f in
                   os.listdir(os.path.join(src, module))):
            continue
        lib = os.path.join(build, "src", module, "libspm_%s.a" % module)
        if not os.path.isfile(lib):
            fail("library not built: " + lib)
        yield lib


def main():
    if len(sys.argv) != 3:
        fail("usage: unreached_code.py BUILD PERFBENCH_BUILD")
    build, perfbench = sys.argv[1], sys.argv[2]

    defined = set()
    for lib in libraries(build):
        defined |= {name for kind, name in nm(lib) if kind == "T"}

    exes = [os.path.join(build, e) for e in EXECUTABLES]
    exes.append(os.path.join(perfbench, PERFBENCH_EXECUTABLE))
    reached = set()
    for exe in exes:
        if not os.path.isfile(exe):
            fail("executable not built: " + exe)
        reached |= {name for _, name in nm(exe)}

    unreached = sorted(defined - reached)
    left = demangle(unreached) if unreached else []
    bad = sorted(sig for sig in left if qualified_name(sig) not in ORACLES)
    found = {qualified_name(sig) for sig in left} & set(ORACLES)
    stale = sorted(set(ORACLES) - found)
    for name in sorted(found):
        print("oracle     %s  (%s)" % (name, ORACLES[name]))
    for sig in bad:
        print("UNREACHED  " + sig)
    for name in stale:
        print("STALE      %s  (no longer unreached; drop it from ORACLES)"
              % name)
    print("%d library functions, %d reached by no executable, %d of them "
          "named oracles" % (len(defined), len(left), len(left) - len(bad)))
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
