"""Host-speed reference: a fixed pure-Python kernel timed between compiles.

The benchmark runs on shared virtual cores whose speed drifts: the CPU time
of one fixed loop moves by 20-50 % between stretches of ten seconds or a
few minutes, in thread CPU time as well as in wall time.  Such a drift moves
every compile of a run alike, and it swamps the differences the benchmark is
there to show.

So the benchmark times `kernel()` after every compile, outside the timed
region, and rescales each compile's CPU time by `REF_S` over the median
kernel time around it (`factors`).  A compile that ran while the host was
20 % slow then reports what it would have taken at the reference speed.
The kernel does the kind of work jtxinfer does (calls, attribute lookups,
small objects, dicts, sets, tuples, strings and sorting) and shares no code
with it, so a change to jtxinfer leaves the reference alone.
"""

from __future__ import annotations

import statistics
from time import thread_time

# Nominal CPU time of one kernel() call: its median on the 2-core Intel Xeon
# (2.1 GHz) virtual machine on which the benchmark was written.  A rescaled
# time reads "CPU seconds at the speed where kernel() takes REF_S".
REF_S = 0.0021
WINDOW = 2      # kernel timings on each side that set a sample's factor
_EXPECTED = 2884820


class _Node:
    __slots__ = ("op", "kids", "val")

    def __init__(self, op, kids, val=0):
        self.op, self.kids, self.val = op, kids, val


def _build(depth, i):
    if depth == 0:
        return _Node("leaf", (), i)
    return _Node("+" if i % 2 else "*",
                 (_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1)))


def _walk(node, env):
    if node.op == "leaf":
        return env.get(node.val % 17, node.val)
    a, b = (_walk(k, env) for k in node.kids)
    return a + b if node.op == "+" else a * b % 1000003


def kernel():
    """A fixed amount of interpreter work; returns a checksum."""
    env = {i: i * 3 for i in range(17)}
    total = _walk(_build(8, 1), env)
    seen, keys = set(), []
    for i in range(600):
        key = (f"v{i % 97}", i % 13)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    keys.sort(key=lambda k: (k[1], k[0]))
    for i in range(8000):
        total += i * i % 7
    return total + len(keys) + len(keys[-1][0])


def kernel_seconds():
    """Thread CPU time of one kernel() call."""
    start = thread_time()
    result = kernel()
    elapsed = thread_time() - start
    if result != _EXPECTED:
        raise RuntimeError(f"host-speed kernel returned {result}")
    return elapsed


def factors(refs):
    """Per-sample rescaling factors, REF_S over the median of the kernel
    times within WINDOW samples of each sample."""
    return [REF_S / statistics.median(
        refs[max(0, i - WINDOW):i + WINDOW + 1]) for i in range(len(refs))]
