"""Nothing loads scipy or networkx, and Figure 4's exact curve needs neither.

Neither is a dependency.  The import check runs in a fresh interpreter,
because the test process has already imported whatever the rest of the
suite needed; the Figure 4 runs also block scipy outright, so an import
of it anywhere on their path fails them.

`analytic_ocs_goodput` sums the binomial expectation in exact integers.
Two oracles check it: the tail-sum identity in :mod:`fractions`, which
must match it bit for bit, and the values scipy's ``binom.pmf`` gave
before, which must stay within a few ulps.
"""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.availability import analytic_ocs_goodput

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The package, the CLI, and the modules the benchmark harness drives.
ENTRY_MODULES = ("repro", "repro.__main__", "repro.fleet.simulator",
                 "repro.fleet.obs.export", "repro.fleet.trace",
                 "repro.network.simcollectives")

PROBE = f"""
import importlib, sys
for module in {ENTRY_MODULES!r}:
    importlib.import_module(module)
print(sorted(name for name in ("scipy", "networkx") if name in sys.modules))
from repro.core.availability import analytic_ocs_goodput
print(repr(analytic_ocs_goodput(1024, 0.995)))
"""

# Runs one program with scipy made unimportable.
NO_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None
kind, target, *sys.argv[1:] = sys.argv[1:]
sys.argv[0] = target
if kind == "module":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    runpy.run_path(target, run_name="__main__")
"""

SLICE_CHIPS = (64, 128, 256, 512, 1024, 2048, 3072, 4096)

# scipy.stats.binom.pmf's goodput on 64 blocks, one list per
# availability, in SLICE_CHIPS order.
SCIPY_GOODPUT = {
    0.9: [0.1853020188851842, 0.17748951888518524, 0.1618646467486316,
          0.1310773190378526, 0.030647846292937785, 6.199449311211324e-09,
          1.0750660162180514e-22, 1.3942147270623972e-47],
    0.98: [0.7237977205924958, 0.7159852205924957, 0.7003602215267348,
           0.6687862084576012, 0.5945842882787239, 0.4999783022846234,
           0.28378541140923697, 1.0363382055602128e-09],
    0.99: [0.8514577710948759, 0.8436452710961192, 0.8280217327675907,
           0.7956645061412746, 0.747357508290617, 0.5000169593493196,
           0.7420470858478716, 3.3918705401934153e-05],
    0.995: [0.9229311239742364, 0.9151187977411677, 0.8996543949795853,
            0.8687206096444234, 0.751473733190102, 0.5029498822995935,
            0.7499963761209155, 0.005899764599186746],
    0.999: [0.98411944181564, 0.9772970240804864, 0.9597143165562171,
            0.9198713342562588, 0.8397428695474272, 0.6794857390948543,
            0.75, 0.35897147818970876],
}

GRID = [(chips, availability) for availability in SCIPY_GOODPUT
        for chips in SLICE_CHIPS]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300)


def test_entry_modules_leave_scipy_and_networkx_unloaded():
    result = _run("-c", PROBE)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded, goodput = result.stdout.splitlines()
    assert loaded == "[]"
    # The correctly rounded value; scipy gave 0.751473733190102, one ulp
    # higher.
    assert float(goodput) == 0.7514737331901018


# Each program's stdout sha256 is the one recorded when scipy priced the
# curve: the printed values (3 and 2 decimals) do not move.
@pytest.mark.parametrize("kind, target, args, sha256", [
    pytest.param("module", "repro", ("run", "figure4"),
                 "a7b9e3d1843814f1d5cde2c8ceaa3b09"
                 "bd7b987b5e3adea911a26671a2eecc0c", id="figure4"),
    pytest.param("path", "examples/goodput_study.py", (),
                 "715ca31e71fa6ef43ccafccd84adcae5"
                 "9e271c1124e7f656bb190ebae8d524fe", id="goodput_study"),
])
def test_figure4_runs_without_scipy(kind, target, args, sha256):
    result = _run("-O", "-c", NO_SCIPY, kind, target, *args)
    assert result.returncode == 0, result.stderr[-2000:]
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256


def _tail_sum_goodput(slice_chips: int, availability: float,
                      num_blocks: int = 64) -> float:
    """E[floor(H/b) * b] / N as b * sum over k >= 1 of P(H >= k*b), in
    exact fractions, for H ~ Binom(N, p) with p the float a**16."""
    blocks = slice_chips // 64
    p = Fraction(availability**16)
    pmf = [math.comb(num_blocks, h) * p**h * (1 - p)**(num_blocks - h)
           for h in range(num_blocks + 1)]
    tails = sum(sum(pmf[k * blocks:])
                for k in range(1, num_blocks // blocks + 1))
    return float(blocks * tails / num_blocks)


@pytest.mark.parametrize("slice_chips, availability", [
    *GRID,
    pytest.param(1024, 1.0, id="perfect-availability"),
    pytest.param(3072, 1.0, id="perfect-availability-spare"),
    pytest.param(1024, 1e-30, id="block-availability-underflows"),
])
def test_goodput_matches_tail_sum_oracle(slice_chips, availability):
    assert analytic_ocs_goodput(slice_chips, availability) == \
        _tail_sum_goodput(slice_chips, availability)


@pytest.mark.parametrize("slice_chips, availability", GRID)
def test_goodput_within_16_ulps_of_scipy(slice_chips, availability):
    old = SCIPY_GOODPUT[availability][SLICE_CHIPS.index(slice_chips)]
    new = analytic_ocs_goodput(slice_chips, availability)
    assert abs(new - old) <= 16 * math.ulp(old)
