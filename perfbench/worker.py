"""One pass of one workload, in a fresh interpreter started by run.py.

    PERFBENCH_SPAWNED_AT=<time.monotonic() of the parent at spawn> \
    python3 perfbench/worker.py WORKLOAD --seed S --ranks 3,4,5
        [--setup-only] [--trace] [--spans-out FILE] [-- CLI ARGS]

setup_s counts from the parent's spawn, so it includes interpreter start.
The last line of stdout is one JSON object with this pass's measurements.
"""

import os
import sys
import time

if __name__ == "__main__":
    # Set-up section: interpreter start plus the program's import, before
    # the benchmark imports anything of its own.
    if sys.argv[1] == "sweep":
        import wenzl_lab.cli  # noqa: F401
    else:
        import wenzl_lab  # noqa: F401
    _IMPORT_S = time.monotonic() - float(os.environ["PERFBENCH_SPAWNED_AT"])

import argparse  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def main(argv: list[str], import_s: float) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ranks", required=True, help="comma-separated ranks N")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.ranks = {int(r) for r in args.ranks.split(",")}
    args.cli_args = argv[cut + 1 :]

    tracer = Tracer() if args.trace else None
    out = workloads.RUNNERS[args.workload](args, tracer)
    out["setup_s"] = import_s + out.pop("prebuild_s", 0.0)
    if tracer is not None:
        out["layers"] = layer_metrics(
            tracer.spans, workloads.irrep_dim, out.get("stdout_bytes", 0)
        )
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.as_dict()) + "\n")
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:], _IMPORT_S)))
