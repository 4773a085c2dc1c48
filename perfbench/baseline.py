"""One-shot baseline: the reference configurations quoted in ROADMAP.md.

Not part of any workload and not run on every check; it takes a few
minutes.  Run it with `python3 perfbench/run.py --baseline`.

- criterion 8's exact call,
  run_phase_transition(121, range(22, 111, 11), trials=200, master_seed=7);
- the construction ladder: build_field at q in {64, 256, 512}, and
  euler_square, validate_euler_square and coherence at (49,6), (101,10)
  and (128,16);
- coherence at (256,16) in a child process whose address space is capped
  with setrlimit, so an allocation failure ends as a MemoryError in the
  child instead of exhausting the machine's memory.
"""

import json
import resource
import subprocess
import sys
import time

# figures measured when ROADMAP.md was written (2 cores, 8 GB)
ROADMAP = {"criterion_8": "124 s", "build_field_512": "2.3 s",
           "coherence_256_16": "OOM-killed at 8 GB"}
CHILD_LIMIT_BYTES = 1 << 30     # ROADMAP gate: (256,16) must fit in 1 GB
CHILD_TIMEOUT_S = 600

_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from eulercs import build_binary_matrix, coherence, euler_square
try:
    report = coherence(build_binary_matrix(euler_square(256, 16)))
except MemoryError:
    print(json.dumps({"status": "MemoryError"}))
    sys.exit(1)
print(json.dumps({"status": "ok", "coherence": report.coherence,
                  "max_overlap": report.max_overlap}))
"""


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_LIMIT_BYTES, CHILD_LIMIT_BYTES))


def coherence_256_16(src):
    """Run the (256,16) coherence in a capped child; returns a record."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, src], capture_output=True,
                          text=True, preexec_fn=_cap_address_space,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines else {
        "status": "child failed", "stderr": proc.stderr.strip()[-300:]}
    record.update(seconds=time.perf_counter() - t0, exit_code=proc.returncode,
                  limit_bytes=CHILD_LIMIT_BYTES, failed=proc.returncode != 0)
    return record


def main(root):
    from eulercs import euler, experiments, fields, props, construct
    results = {}

    def show(name, value, roadmap=""):
        results[name] = value
        note = f"   (ROADMAP: {roadmap})" if roadmap else ""
        print(f"{name:28s} {value if isinstance(value, dict) else f'{value:.3f} s'}{note}",
              flush=True)

    for p, r in ((2, 6), (2, 8), (2, 9)):
        fields.build_field.cache_clear()
        show(f"build_field_{p ** r}", _timed(lambda: fields.build_field(p, r))[0],
             ROADMAP.get(f"build_field_{p ** r}", ""))
    for n, k in ((49, 6), (101, 10), (128, 16)):
        fields.build_field.cache_clear()
        t, square = _timed(lambda: euler.euler_square(n, k))
        show(f"euler_square_{n}_{k}", t)
        t, check = _timed(lambda: euler.validate_euler_square(square))
        show(f"validate_euler_square_{n}_{k}", t)
        mat = construct.build_binary_matrix(square)
        t, report = _timed(lambda: props.coherence(mat))
        show(f"coherence_{n}_{k}", t)
        if not check.ok or report.coherence != 1.0 / k:
            print(f"  check failed at ({n},{k}): {check.message}, mu={report.coherence!r}")
    show("coherence_256_16", coherence_256_16(f"{root}/src"), ROADMAP["coherence_256_16"])
    t, report = _timed(lambda: experiments.run_phase_transition(
        121, range(22, 111, 11), trials=200, master_seed=7))
    show("criterion_8", t, ROADMAP["criterion_8"])
    print(json.dumps({"baseline": results,
                      "criterion_8_k_star": [r["k_star"] for r in report.rows]}))
    return 0
