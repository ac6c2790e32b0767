"""One-off: augmented ``enact`` time of the wsn-wide generator at several sizes.

    python3 perfbench/scaling.py [SCALE...]

Run from the repository root. SCALE multiplies the devices per viewpoint
(default 0.5 1 2 4; 1 is the wsn-wide workload). For each size it builds
one workspace, enacts it once, then times three more augmented enactments
through the CLI entry point and prints their median. Not a workload: it
shows how enactment grows with model size.
"""

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from run import tracelink_cli as tl  # noqa: E402


def main(argv: list[str]) -> int:
    repo = Path.cwd()
    sys.path.insert(0, str(repo / "src"))
    scales = [float(a) for a in argv] or [0.5, 1.0, 2.0, 4.0]
    print("| scale | PIM elements | GTM links | enact_s (median of 3) |")
    print("|---|---|---|---|")
    for scale in scales:
        ws = repo / ".perfbench" / f"scaling-{os.getpid()}"
        try:
            wl = workloads.make_wsn_wide(repo, ws, 1, scale=scale)
            enact = ["enact", wl.process_uri, "--bind", f"pim={wl.pim_uri}"]
            tl(ws, "discover", str(ws))
            tl(ws, *enact)
            times = []
            for _ in range(3):
                started = time.perf_counter()
                tl(ws, *enact)
                times.append(time.perf_counter() - started)
            pim = json.loads((ws / wl.pim_uri).read_text(encoding="utf-8"))
            links = sum(len(json.loads(p.read_text())["links"]) for p in (ws / "traces").iterdir())
            print(f"| {scale:g} | {workloads.count_elements(pim)} | {links} | "
                  f"{statistics.median(times):.3f} |", flush=True)
        finally:
            shutil.rmtree(ws, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
