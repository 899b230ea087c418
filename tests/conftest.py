import subprocess
import sys

import pytest

# VmHWM (Linux, kB) is the child's own peak resident set; ru_maxrss would
# carry over the peak of the spawning test process through exec.
_PRINT_PEAK = (
    "\nimport sys\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM')),"
    " file=sys.stderr)\n"
)


@pytest.fixture
def child_peak_kib():
    """Run a Python script in a fresh process; return its stdout and peak kB."""
    def run(script: str) -> tuple[str, int]:
        proc = subprocess.run([sys.executable, "-c", script + _PRINT_PEAK],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, int(proc.stderr.split()[-1])
    return run
