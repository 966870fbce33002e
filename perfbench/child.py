"""One workload's closed loop, in a fresh process of its own.

Usage: python3 child.py SCRIPT.json

The script names the CLI calls of one round and how long to keep
starting rounds.  Each call has an argv list, the input files to stage
before it and the files to remove after it; in all of them "{round}"
stands for the round number and "{salt}" for a string that no other
call of the run gets.  One client drives `leastpriv.cli.main`
in-process and sends each call only after the previous one returned.
Every call's exit code, output and duration go to the script's log file
as JSON lines; checking them is the parent's job, so this process holds
nothing but the program and its inputs, and its peak RSS is the
program's.  Around each call the child also times a fixed reference
task, which run.py uses to correct the call's time for the machine's
speed at that moment.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


# Work of the kind the program spends much of its time on: subset and
# intersection tests between sets of event names, as in coverage scoring
# and synthesis.  It does not use leastpriv, so no change to the program
# changes its time.  It takes 1.1 ms on a 2.1 GHz Xeon at full speed;
# run.py gives call times at the speed at which it takes the nominal 1 ms.
# Of the reference tasks tried, this one's time tracked the program's
# calls most closely as the machine's speed changed.
_REFERENCE_SETS = [frozenset(f"sys{(i * 37 + j * 101) % 300:03d}" for j in range(60))
                   for i in range(120)]
_REFERENCE_ALLOWED = frozenset(f"sys{k:03d}" for k in range(240))
REFERENCE_NOMINAL_S = 0.001


def reference_seconds() -> float:
    """Time one pass of the reference task."""
    start = time.perf_counter()
    hits = 0
    for _ in range(4):
        for events in _REFERENCE_SETS:
            hits += _REFERENCE_ALLOWED.issuperset(events) + len(events & _REFERENCE_ALLOWED)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's peak RSS.  Not ru_maxrss: Linux carries that over
    from the parent across fork and exec, so it would count the parent."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def stage(src: str, dst: str, mark: str, salt: str) -> None:
    """Copy src to dst with the call's salt in it, so that no earlier call
    of this process read dst's path or bytes, as in an operator's run of
    one process per call.  A generated trace carries `mark` in its
    namespace field, which becomes the salt; any other input (a store,
    CVE database, model, plan or policy) gets a comment line naming the
    salt after its header line."""
    with open(src, encoding="utf-8") as handle:
        text = handle.read()
    if mark in text:
        text = text.replace(mark, salt)
    else:
        header, _, rest = text.partition("\n")
        text = f"{header}\n# salt {salt}\n{rest}"
    with open(dst, "w", encoding="utf-8") as handle:
        handle.write(text)


def _render(text: str, rounds: int, salt: str) -> str:
    return text.replace("{round}", str(rounds)).replace("{salt}", salt)


def main(script_path: str) -> None:
    with open(script_path, encoding="utf-8") as handle:
        script = json.load(handle)
    tracer = None
    if script["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import leastpriv.cli

    rounds = 0
    started = time.perf_counter()
    with open(script["log"], "w", encoding="utf-8") as log:
        while rounds == 0 or time.perf_counter() - started < script["seconds"]:
            for index, call in enumerate(script["calls"]):
                salt = f"{rounds:04d}{index:03d}"
                argv = [_render(arg, rounds, salt) for arg in call["argv"]]
                for src, dst in call["stage"]:
                    stage(_render(src, rounds, salt), _render(dst, rounds, salt), script["mark"], salt)
                out, err = io.StringIO(), io.StringIO()
                reference = reference_seconds()
                span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    try:
                        with span:
                            code = leastpriv.cli.main(argv)
                    except Exception:  # a crash is a failed call, not a lost run
                        code = -1
                        err.write(traceback.format_exc())
                    elapsed = time.perf_counter() - start
                reference = (reference + reference_seconds()) / 2
                for path in call["drop"]:
                    os.remove(_render(path, rounds, salt))
                log.write(json.dumps({"round": rounds, "command": argv[0], "code": code,
                                      "out": out.getvalue(), "err": err.getvalue(),
                                      "seconds": elapsed, "reference_s": reference}) + "\n")
            rounds += 1
    summary = {
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.stats if tracer else {},
        "counts": dict(tracer.counts) if tracer else {},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1])
