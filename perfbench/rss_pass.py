"""Compile the given .jtx files once each in this fresh process, then print
its peak resident set size in KiB.

    python3 perfbench/rss_pass.py SRC_DIR FILE...
"""

import contextlib
import io
import resource
import sys

sys.path.insert(0, sys.argv[1])
from jtxinfer import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    for path in sys.argv[2:]:
        cli.main([path])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
