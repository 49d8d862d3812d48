"""zfilterlab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run

1. sets the workload up `SETUPS` times, each time in a fresh interpreter that
   imports `zfilterlab.cli` and generates the inputs from the seed
   (`perfbench/workloads.py`); `setup_s` is the median set-up time;
2. runs the fixed operation list once untimed, checking every output;
3. with `--trace 0`, runs timed passes over the list, one operation at a
   time, for `--seconds` and at least `MIN_PASSES` passes (cheap ops run
   several times a pass, see `cheap_reps`), and reports the end-to-end
   metrics from each op's mean time (see `mean_times`):
   `op_p50_s` the median op, `op_tail_s` the highest percentile with ten
   samples above it, `batch_s` one pass, plus `cert_bytes` (certificates
   written or replayed in one pass) and `peak_rss_mb`;
   with `--trace 1`, alternates untraced and traced passes and reports the
   per-layer metrics of `spans.LAYER_METRICS` from the fastest traced pass,
   plus the tracing overhead, after checking that both kinds of pass give
   identical outputs.

Every reported time is wall time divided by the host's speed, measured in
the same run against a fixed reference loop (`perfbench/speed.py`), so it
reads as seconds on an unloaded host; the speed factor and the raw
`batch_s` and `setup_s` go to standard error.

Operations go through the public entry points: `zfilterlab.cli.main(argv)`
in-process (interpreter start-up is left to `setup_s`), and
`zfilterlab.filters.filter_member` for filter queries.  Every output is
checked without the code path being timed: certificates with
`check_certificate_text` on the written bytes, counterexamples and filter
witnesses with the reference evaluator `eval_setexpr`, exit codes against
the verdict each generated input must produce, and every pass against the
first, byte for byte.  A wrong output or an escaping exception counts as a
failed operation.

All files go to a temporary directory under `.perfbench/` in the checkout,
which is removed at the end; a traced run leaves its spans in
`.perfbench/spans-<workload>-seed<N>.json`.  The last line of standard
output is the JSON result; a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans as tracing
import workloads
from speed import SHARE, Probe

perf = time.perf_counter

SETUPS = 3
# Reference-loop time before and after each set-up.
SETUP_PROBE_S = 0.05
# At least eleven timed passes, so that the tail percentile (ten samples
# above it) always falls on the slowest op of the list.
MIN_PASSES = 11
# Untraced passes run an op taking t seconds about CHEAP_S / t times (at
# most MAX_REPS), so that the cheap ops, which set op_p50_s, are sampled
# for more than the few milliseconds a single run gives them.
CHEAP_S = 0.02
MAX_REPS = 50
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "batch_s": "s",
    "cert_bytes": "bytes",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, run_dir: str, env: dict) -> tuple[float, float, str]:
    """Median of SETUPS fresh set-ups, each divided by the host's speed
    measured just before and after it; the median raw wall time; and the
    directory of the last set-up."""
    times = []
    scaled = []
    for i in range(SETUPS):
        directory = os.path.join(run_dir, f"setup{i}")
        os.makedirs(directory)
        probe = Probe()
        probe.owe(SETUP_PROBE_S)
        t0 = perf()
        # no timeout: a wait with one polls every 50 ms and would round the time
        subprocess.run(
            [sys.executable, os.path.join(workloads.ROOT, "perfbench", "workloads.py"),
             "--workload", workload, "--seed", str(seed), "--dir", directory],
            env=env, check=True,
        )
        times.append(perf() - t0)
        probe.owe(SETUP_PROBE_S)
        scaled.append(times[-1] / probe.factor())
    return statistics.median(scaled), statistics.median(times), directory


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Op:
    """One generated operation, its expected outcome and the checks on it."""

    def __init__(self, spec: dict, directory: str, zf) -> None:
        self.kind = spec["type"]
        self.name = spec["name"]
        self.zf = zf
        self.expect = self._resolve(spec["expect"], directory)
        if self.kind == "cli":
            self.argv = [self._resolve(a, directory) for a in spec["argv"]]
            self.replayed = self.argv[2] if self.argv[:2] == ["verify", "--check"] else None
        else:
            reg = zf.formats.parse_registry(spec["registry"])
            parse = zf.formats.parse_setexpr
            self.generators = [parse(g, reg, spec["ambient"]) for g in spec["generators"]]
            self.base = zf.filters.FilterBase.of(self.generators, spec["ambient"])
            self.zset = parse(spec["zset"], reg, spec["ambient"])
            self.trunc = zf.space.Truncation(*spec["trunc"]) if spec["trunc"] else None

    @staticmethod
    def _resolve(value, directory: str):
        if isinstance(value, str):
            return value.replace("@/", directory + os.sep)
        if isinstance(value, list):
            return [Op._resolve(v, directory) for v in value]
        if isinstance(value, dict):
            return {k: Op._resolve(v, directory) for k, v in value.items()}
        return value

    def run(self) -> tuple[float, dict]:
        """Run once; return the wall time and the raw outcome."""
        if self.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            t0 = perf()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.zf.cli.main(self.argv)
            except Exception as exc:  # an escaping exception is a failed op, not a crash
                code = f"raised {exc!r}"
            dt = perf() - t0
            return dt, {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        t0 = perf()
        try:
            verdict = self.zf.filters.filter_member(self.base, self.zset, self.trunc)
        except Exception as exc:
            verdict = f"raised {exc!r}"
        dt = perf() - t0
        return dt, {"verdict": verdict}

    def outcome(self, raw: dict) -> dict:
        """Comparable outcome: exit code, stdout and certificate digest, or verdict."""
        if "verdict" in raw:
            v = raw["verdict"]
            if isinstance(v, str):
                return {"verdict": v}
            witness = v.witness.literal() if v.witness is not None else None
            return {"verdict": [v.status, list(v.subset) if v.subset else None, witness, v.exact]}
        result = {"exit": raw["exit"], "stdout": raw["stdout"], "bytes": 0}
        path = self.expect.get("cert") or self.replayed
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            result["sha256"] = hashlib.sha256(data).hexdigest()
            result["bytes"] = len(data)
            if self.expect.get("cert"):
                result["data"] = data
        return result

    def problems(self, raw: dict, outcome: dict) -> list[str]:
        """Everything wrong with one outcome, judged independently of the timed path."""
        try:
            if "verdict" in outcome:
                return self._filter_problems(raw["verdict"])
            return self._cli_problems(raw, outcome)
        except Exception as exc:  # a malformed output must not stop the benchmark
            return [f"check raised {exc!r}"]

    def _cli_problems(self, raw: dict, outcome: dict) -> list[str]:
        e = self.expect
        bad = []
        if outcome["exit"] != e["exit"]:
            bad.append(f"exit {outcome['exit']!r}, expected {e['exit']}: {raw['stderr'].strip()[:200]}")
        lines = outcome["stdout"].splitlines()
        if "stdout" in e and lines != e["stdout"]:
            bad.append(f"stdout {lines[:4]!r}, expected {e['stdout'][:4]!r}")
        if "stdout_last" in e and (not lines or lines[-1] != e["stdout_last"]):
            bad.append(f"last stdout line {lines[-1:]!r}, expected {e['stdout_last']!r}")
        if "cert" in e:
            if "data" not in outcome:
                bad.append("certificate file missing")
            else:
                report = self.zf.checking.check_certificate_text(outcome["data"])
                if not report.ok or report.kind != e["kind"]:
                    bad.append(f"certificate re-check: {report.kind} ok={report.ok} {report.problems[:2]}")
        if "claim" in e:
            bad += self._counterexample_problems(lines)
        return bad

    def _counterexample_problems(self, lines: list[str]) -> list[str]:
        e = self.expect
        claim = e["claim"]
        ambient = claim["ambient"]
        reg = self.zf.formats.parse_registry(e["registry"])
        lhs = self.zf.formats.parse_setexpr(claim["lhs"], reg, ambient)
        rhs = self.zf.formats.parse_setexpr(claim["rhs"], reg, ambient) if "rhs" in claim else None
        T, V = e["trunc"]
        prefix = "counterexample: "
        found = [ln[len(prefix):] for ln in lines if ln.startswith(prefix)]
        bad = []
        if "count" in e and len(found) != e["count"]:
            bad.append(f"{len(found)} counterexamples, expected {e['count']}")
        if len(set(found)) != len(found):
            bad.append("repeated counterexample")
        evaluate = self.zf.space.eval_setexpr
        for text in found:
            p = _point(text, ambient, self.zf)
            if not self.zf.space.validate_point(p) or any(q > T or v > V for q, v in p.support):
                bad.append(f"counterexample {text} is outside the truncation")
                continue
            in_l = evaluate(p, lhs)
            in_r = evaluate(p, rhs) if rhs is not None else False
            wrong = {
                "containment": not (in_l and not in_r),
                "equality": in_l == in_r,
                "emptiness": not in_l,
            }[claim["claim"]]
            if wrong:
                bad.append(f"counterexample {text} does not refute the claim")
        return bad

    def _filter_problems(self, verdict) -> list[str]:
        e = self.expect
        if isinstance(verdict, str):
            return [verdict]
        bad = []
        if verdict.status != e["status"]:
            bad.append(f"status {verdict.status}, expected {e['status']}")
        if "subset" in e and list(verdict.subset or ()) != e["subset"]:
            bad.append(f"subset {verdict.subset}, expected {e['subset']}")
        if e["status"] == "refuted":
            w = verdict.witness
            evaluate = self.zf.space.eval_setexpr
            if w is None or not all(evaluate(w, g) for g in self.generators) or evaluate(w, self.zset):
                bad.append(f"witness {w} does not refute membership")
            elif "witness" in e and w.literal() != e["witness"]:
                bad.append(f"witness {w.literal()}, expected {e['witness']}")
        return bad


def _point(text: str, ambient: str, zf):
    inner = text.strip()[1:-1]
    mapping = {}
    for item in filter(None, inner.split(",")):
        pos, _, val = item.partition(":")
        mapping[int(pos)] = int(val)
    return zf.space.XiPoint.of(mapping, ambient)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        # runs of each op per pass (see `run_pass`)
        self.reps = [1] * len(ops)
        self.reference: list[dict] | None = None
        self.reference_problems: list[list[str]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def run_pass(self, tracer=None, probe: Probe | None = None) -> tuple[list[list[float]], int]:
        """One pass over the op list, in which op i runs `reps[i]` times.

        The runs go in sub-passes: sub-pass j runs, in list order, every op
        with more than j runs, so the extra runs of cheap ops stay
        interleaved with the others.  With a `probe`, each run is followed
        by reference loops for a share of its time, so the probe samples the
        host's speed as the ops do.  Returns each op's run times and the
        certificate bytes of one run of every op."""
        gc.collect()
        times: list[list[float]] = [[] for _ in self.ops]
        outcomes: list[dict] = [{} for _ in self.ops]
        problems: list[list[str]] = [[] for _ in self.ops]
        for j in range(max(self.reps)):
            for i, op in enumerate(self.ops):
                if j >= self.reps[i]:
                    continue
                if tracer is None:
                    dt, raw = op.run()
                else:
                    with tracer.op(i):
                        dt, raw = op.run()
                times[i].append(dt)
                if probe is not None:
                    probe.owe(SHARE * dt)
                outcome = op.outcome(raw)
                self.attempted += 1
                bad = self._check(op, i, raw, outcome)
                if bad:
                    self.failed += 1
                    print(f"FAILED {op.name}: {'; '.join(bad)}", file=sys.stderr)
                outcome.pop("data", None)
                if j == 0:
                    outcomes[i], problems[i] = outcome, bad
        if self.reference is None:
            self.reference = outcomes
            self.reference_problems = problems
        return times, sum(o.get("bytes", 0) for o in outcomes)

    def _check(self, op: Op, i: int, raw: dict, outcome: dict) -> list[str]:
        if self.reference is not None:
            if outcome_key(outcome) == outcome_key(self.reference[i]):
                return self.reference_problems[i]  # same outcome as the fully checked first pass
            bad = ["output differs from the first pass"]
            self.mismatches.append(op.name)
        else:
            bad = []
        return bad + op.problems(raw, outcome)


def outcome_key(outcome: dict) -> str:
    return json.dumps({k: v for k, v in outcome.items() if k != "data"}, sort_keys=True)


def mean_times(passes: list[list[list[float]]], factor: float) -> list[float]:
    """Each op's mean time over all its runs in the passes, divided by the
    speed factor.

    The factor is a mean over the same passes (see `speed.py`); a mean,
    unlike a median or a minimum, slows down with the host in the same
    proportion as the factor does, so the ratio cancels it.
    """
    return [statistics.fmean(t for p in passes for t in p[i]) / factor
            for i in range(len(passes[0]))]


def cheap_reps(times: list[list[float]]) -> list[int]:
    """Runs per pass that give each op about `CHEAP_S` of samples a pass."""
    return [max(1, min(MAX_REPS, round(CHEAP_S / max(t[0], 1e-9)))) for t in times]


def measure(runner: Runner, warm_up: list[list[float]], seconds: float) -> tuple[dict, dict]:
    runner.reps = cheap_reps(warm_up)
    start = perf()
    passes: list[list[list[float]]] = []
    wall: list[float] = []
    cert_bytes = None
    probe = Probe()
    while len(passes) < MIN_PASSES or perf() - start + statistics.median(wall) <= seconds:
        t0 = perf()
        times, cert_bytes = runner.run_pass(probe=probe)
        wall.append(perf() - t0)
        passes.append(times)
    factor = probe.factor()
    means = mean_times(passes, factor)
    for op, t in zip(runner.ops, means):
        print(f"{t:12.6f} s  {op.name}", file=sys.stderr)
    # highest percentile with at least ten samples above it: with eleven or
    # more passes, the slowest op's time
    samples = sorted(means * len(passes))
    i = len(samples) - 11
    metrics = {
        "op_p50_s": statistics.median(samples),
        "op_tail_s": samples[i],
        "batch_s": sum(means),
        "cert_bytes": cert_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": len(passes), "samples": len(samples),
            "tail_percentile": 100.0 * (i + 1) / len(samples),
            "runs_per_pass": sum(runner.reps), "speed_factor": factor,
            "raw_batch_s": sum(means) * factor}
    return metrics, info


def pass_s(times: list[list[float]]) -> float:
    return sum(map(sum, times))


def measure_traced(runner: Runner, seconds: float, spans_path: str) -> tuple[dict, dict]:
    """Alternate plain and traced passes; layer metrics come from the fastest traced pass."""
    start = perf()
    probe = Probe()
    plain: list[list[list[float]]] = []
    traced: list[list[list[float]]] = []
    best = None
    while not traced or perf() - start + pass_s(plain[-1]) + pass_s(traced[-1]) <= seconds:
        plain.append(runner.run_pass(probe=probe)[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer, probe)[0])
        finally:
            tracer.uninstall()
        if best is None or pass_s(traced[-1]) < pass_s(best[1]):
            best = (tracer, traced[-1])
    tracer = best[0]
    metrics = tracer.layer_totals()
    factor = probe.factor()
    plain_s, traced_s = sum(mean_times(plain, factor)), sum(mean_times(traced, factor))
    metrics["trace.overhead_s"] = traced_s - plain_s
    tracer.dump(spans_path)
    info = {"self_check": "differs" if runner.mismatches else "identical",
            "pairs": len(traced), "plain_batch_s": plain_s, "traced_batch_s": traced_s,
            "speed_factor": factor, "spans": len(tracer.spans)}
    return metrics, info


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on termination, still remove the run directory and stop a running set-up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    zf = _import_package()
    scratch = os.path.join(workloads.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        out_dir = os.path.join(run_dir, "out")
        os.makedirs(out_dir)
        env = dict(os.environ, ZFILTERLAB_OUT=out_dir)
        os.environ["ZFILTERLAB_OUT"] = out_dir
        setup_s, raw_setup_s, directory = set_up(args.workload, args.seed, run_dir, env)
        with open(os.path.join(directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        runner = Runner([Op(spec, directory, zf) for spec in manifest["ops"]])
        warm_up = runner.run_pass()[0]  # every output is fully checked here
        if args.trace:
            spans = os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.json")
            metrics, info = measure_traced(runner, args.seconds, spans)
            units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        else:
            metrics, info = measure(runner, warm_up, args.seconds)
            metrics["setup_s"] = setup_s
            info["raw_setup_s"] = raw_setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed_frac = runner.failed / runner.attempted
    correct = runner.failed == 0
    for name in units:
        print(f"{name:28s} {metrics[name]:16.6f} {units[name]}", file=sys.stderr)
    print(f"{'failed_frac':28s} {failed_frac:16.6f} ratio", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} ops/pass={len(runner.ops)} "
          + " ".join(f"{k}={v}" for k, v in info.items()), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def _import_package():
    workloads.import_cli()
    import zfilterlab.checking
    import zfilterlab.filters
    import zfilterlab.formats
    import zfilterlab.space
    import zfilterlab

    return zfilterlab


if __name__ == "__main__":
    sys.exit(main())
