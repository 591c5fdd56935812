"""One round of a workload in a fresh interpreter: run every job once, in order.

Usage: python3 bench/worker.py MANIFEST RESULT

The manifest names the jobs (CLI argument lists), the input files and the
mode. Set-up, which the parent times from launch to the first job, is this
interpreter's start, the import of ``skewbrace.cli`` and reading the input
files. Each job then runs in-process through ``skewbrace.cli.main``, with its
standard output captured. In an untraced round the speed probe
(``speed.SpeedProbe``) samples the machine's speed while the jobs run. In a
traced round the layers' public functions are instead wrapped with spans and
counters (``spans.instrument``) and each job runs in a span of its own. Job
spans, probes, exit codes, output digests and resource use go to RESULT.
"""

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skewbrace import cli  # noqa: E402  (timed as part of set-up)

import speed  # noqa: E402


def main(manifest_path, result_path):
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    for path in manifest["files"]:
        with open(os.path.join(ROOT, path), "rb") as handle:
            handle.read()
    first_job = time.monotonic()
    tracer, probe = None, None
    if manifest["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    else:
        probe = speed.SpeedProbe()
    os.chdir(ROOT)
    rcs, job_spans, digests, outputs, errors = [], [], [], [], []
    if probe:
        probe.start()
    start = time.perf_counter()
    for argv in manifest["jobs"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer:
                    with tracer.span("job"):
                        rc = cli.main(argv)
                else:
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed job, not a failed round
                traceback.print_exc(file=err)
                rc = -1
        job_spans.append([t0, time.perf_counter()])
        text = out.getvalue()
        rcs.append(rc)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        errors.append(err.getvalue()[-2000:])
        if manifest["keep_outputs"]:
            outputs.append(text)
    wall = time.perf_counter() - start
    if probe:
        probe.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "first_job": first_job,
        "wall_s": wall,
        "job_spans": job_spans,
        "probes": probe.samples if probe else [],
        "rc": rcs,
        "digests": digests,
        "stderr": errors,
        "outputs": outputs,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
