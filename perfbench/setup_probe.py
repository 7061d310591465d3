"""Time pnorbit's set-up in this fresh process and print it as JSON.

    python3 perfbench/setup_probe.py CASE [CASE ...]

Set-up is what a user pays before the first call: importing pnorbit (which
imports numpy and scipy.linalg), ``verify.calibrate()`` and ``parse_case``
of each case.  Interpreter start-up is not included.  After the timed part the probe
times the reference kernel (``refspeed.py``) a few times, so the caller can
convert to reference seconds.
"""

import json
import os
import sys
import time


def main(cases):
    start = time.perf_counter()
    import pnorbit
    from pnorbit import hermsym, verify
    imported = time.perf_counter()
    verify.calibrate()
    calibrated = time.perf_counter()
    for text in cases:
        hermsym.parse_case(text)
    done = time.perf_counter()
    import refspeed
    sampler = refspeed.SpeedSampler()
    for _ in range(6):
        sampler.sample()
    print(json.dumps({"module": pnorbit.__file__,
                      "scale": sampler.scale_since(1),    # the first call warms up
                      "import_s": imported - start,
                      "calibrate_s": calibrated - imported,
                      "parse_s": done - calibrated,
                      "setup_s": done - start}))


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    main(sys.argv[1:])
