"""The three workloads and their traced variants.

Every workload is a closed loop from one client, this process: the next
job starts only when the previous one has finished, so at most one child
process (or the in-process sweep) is at work at a time.  Children run the
program from the checkout's `src` with SHACLASS_OFFLINE=1 and a cache dir
inside the run's work dir, so no job can touch the network or the user's
cache.

An untraced run returns the end-to-end metrics; a traced run returns the
per-layer metrics of a fixed job set, measured once without and once with
span tracing so that the difference is the tracing overhead.
"""

import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import stats
from spans import Tracer, layer_totals, load_dump

BENCH_DIR = Path(__file__).resolve().parent

WORKERS = 2  # `--workers` of every batch call: nproc of the reference machine
SETUP_REPEATS = 7  # setup_s is the median of these, so one slow start does not move it
CHILD_TIMEOUT = 120
HARD_LIMIT_S = 140  # a run stops adding jobs after this, samples or not
TAIL_Q = 0.75  # op_ms_tail_mean averages the ops beyond this quantile
MIN_OPS = 100  # ops per measured window at least, whatever --seconds says
BATCH_SIZE = 100  # curves per `analyze --batch` call
POOL_BATCHES = 2  # distinct batches per prime; one fixture file per curve
MIXED_VALID = 5  # valid labels in the mixed batch, plus one bad label
SAMPLE_PER_BATCH = 2  # certificates per batch call compared with an in-process run
SWEEP_ROTATE = 50  # corpus_sweep jobs between moves of the sweep thread to the next CPU


class BenchError(Exception):
    """The benchmark cannot produce a result (setup or prerequisites failed)."""


@dataclass
class Run:
    root: Path
    work: Path
    seed: int
    seconds: int
    started: float = field(default_factory=time.perf_counter)

    def __post_init__(self):
        self.src = self.root / "src"
        self.cache = self.work / "cache"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(self.src),
            SHACLASS_OFFLINE="1",
            SHACLASS_CACHE_DIR=str(self.cache),
        )

    @property
    def hard_deadline(self):
        return self.started + HARD_LIMIT_S

    @staticmethod
    def done(now, until, calls, min_calls, cycle):
        """Stop after `until`, with at least min_calls made, at the end of a whole pass."""
        return now >= until and calls >= min_calls and calls % cycle == 0

    def log(self, msg):
        print(msg, file=sys.stderr, flush=True)

    def cli(self, args, spans_file=None, spawned=None):
        if spans_file is None:
            return [sys.executable, "-m", "shaclass.cli", *args]
        return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file), repr(spawned), "--", *args]

    def child(self, cmd):
        """Run a child to completion; BenchError unless it exits 0."""
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[:6])} ... exited {proc.returncode}: {proc.stderr.strip()[-500:]}")

    def setup(self, once, reset):
        """Run `reset(); once()` SETUP_REPEATS times; (last result, median seconds of once)."""
        times = []
        for _ in range(SETUP_REPEATS):
            reset()
            t0 = time.perf_counter()
            result = once()
            times.append(time.perf_counter() - t0)
        self.log(f"setup_s samples: {', '.join(f'{t:.4f}' for t in times)}")
        return result, statistics.median(times)

    def fresh_dir(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Op:
    key: tuple
    seconds: float
    ok: object = None  # True, or the reason the op failed
    text: str = ""
    sample: bool = False  # compare with an in-process run of the same job


# --- shared helpers ---------------------------------------------------------


def in_process():
    """The program's modules, imported into this process from the checkout."""
    from shaclass import curve, engine, selmerdata

    return curve, engine, selmerdata


def expected_certificate(run, label, p, fixtures_dir=None):
    """certificate_to_json(analyze(...)) for a labelled curve, as the CLI would compute it."""
    curve, engine, selmerdata = in_process()
    config = selmerdata.default_config(cache_dir=run.cache, fixtures_dir=fixtures_dir)
    record = selmerdata.fetch_curve_record(label, selmerdata.OFFLINE_ONLY, config)
    cert = engine.analyze(curve.CurveModel(*record.ainvs), p, record=record, label=label)
    return engine.certificate_to_json(cert)


def latency_metrics(ops, wall, setup_s, peak_rss_kb):
    """End-to-end metrics of a measured window of `wall` seconds.

    All three timings are means, of the faster half of the latencies, of
    those beyond p75, and of the throughput over the whole window: a mean
    moves in proportion to the share of ops a slow spell of the machine hits,
    where a percentile flips between the fast and the slow level.
    """
    attempted, failed = stats.count_failures([op.ok for op in ops])
    times_ms = [1e3 * op.seconds for op in ops]
    return attempted, failed, {
        "setup_s": setup_s,
        "op_ms_fast_half_mean": stats.fast_half_mean(times_ms),
        "op_ms_tail_mean": stats.tail_mean(times_ms, TAIL_Q),
        "certs_per_s": sum(op.ok is True for op in ops) / wall,
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def require_identical(untraced, traced):
    """Mark traced ops whose certificate differs from the untraced one of the same job."""
    reference = {op.key: op.text for op in untraced}
    for op in traced:
        if op.ok is True and op.text != reference.get(op.key):
            op.ok = "traced certificate differs from the untraced one"


def per_layer(dumps, overhead_pct, speedup=0.0, lost_labels=0):
    metrics = layer_totals(dumps)
    metrics["cli.batch_speedup_w2"] = speedup
    metrics["cli.batch_lost_labels"] = lost_labels
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics


def overhead_pct(untraced_wall, traced_wall):
    return 100.0 * (traced_wall / untraced_wall - 1.0)


def _closed_loop(run, items, job, count=None, until=None, min_calls=0, on_pass=None):
    """Call job(i, item) over items, cycled, one call at a time; each returns a list of Ops.

    With count, exactly count calls run; otherwise calls start until `until`
    has passed, at least min_calls have run and the last pass over items is
    whole (or the hard deadline passes).  on_pass runs before every pass.
    Returns (ops in order, wall seconds).
    """
    ops, n = [], 0
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if count is not None and n >= count:
            break
        if count is None and (now >= run.hard_deadline or run.done(now, until, n, min_calls, len(items))):
            break
        if on_pass is not None and n % len(items) == 0:
            on_pass()
        ops.extend(job(n, items[n % len(items)]))
        n += 1
    return ops, time.perf_counter() - start


# --- cli_cold -------------------------------------------------------------


def _cli_job(run, traced_dir=None):
    def job(i, pair):
        label, p = pair
        args = ["analyze", "--label", label, "-p", str(p), "--offline", "--format", "json"]
        spans_file = None if traced_dir is None else traced_dir / f"spans-{i}.jsonl"
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(run.cli(args, spans_file, t0), env=run.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            end = time.perf_counter()
            return [Op(pair, end - t0, f"no answer within {CHILD_TIMEOUT} s")]
        end = time.perf_counter()
        if proc.returncode != 0:
            return [Op(pair, end - t0, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")]
        return [Op(pair, end - t0, checks.check_certificate(proc.stdout, label, p), proc.stdout)]

    return job


def cli_cold(run, trace):
    fixtures = run.src / "shaclass" / "fixtures"
    warm_label, warm_p = inputs.CLI_WARMUP

    def once():
        pairs = inputs.cli_pairs(fixtures, run.seed)
        run.child(run.cli(["analyze", "--label", warm_label, "-p", str(warm_p), "--offline", "--format", "json"]))
        return pairs

    pairs, setup_s = run.setup(once, lambda: run.fresh_dir("cache"))
    run.log(f"cli_cold: {len(pairs)} pairs, input digest {inputs.digest(pairs)}")

    if trace:
        count = 2 * len(pairs)
        untraced, wall_u = _closed_loop(run, pairs, _cli_job(run), count=count)
        spans_dir = run.fresh_dir("spans")
        traced, wall_t = _closed_loop(run, pairs, _cli_job(run, spans_dir), count=count)
        require_identical(untraced, traced)
        dumps = [load_dump(p) for p in sorted(spans_dir.glob("spans-*.jsonl"))]
        _keep_spans(run, "cli_cold", spans_dir)
        attempted, failed = stats.count_failures([op.ok for op in untraced + traced])
        return attempted, failed, per_layer(dumps, overhead_pct(wall_u, wall_t))

    ops, wall = _closed_loop(run, pairs, _cli_job(run), until=time.perf_counter() + run.seconds,
                             min_calls=MIN_OPS)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    expected = {pair: expected_certificate(run, *pair) for pair in pairs}
    for op in ops:
        if op.ok is True and op.text != expected[op.key]:
            op.ok = "CLI output differs from certificate_to_json(analyze(...))"
    _log_certs(run, "cli_cold", ops)
    return latency_metrics(ops, wall, setup_s, rss)


# --- corpus_sweep -----------------------------------------------------------


def _lru_caches():
    """Every functools cache of the program's own functions."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "shaclass" or name.startswith("shaclass.")):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", "").startswith("shaclass"):
                found[id(obj)] = obj
    return list(found.values())


def _sweep_job(models):
    """Analyze one corpus job in process.

    Names are looked up on the engine module at call time, so an installed
    tracer sees the calls.  Only the first certificate of a job is kept;
    a repeat is compared with it on the spot, so memory does not grow with
    the number of passes.
    """
    _curve, engine, _sel = in_process()
    first = {}

    def job(_i, key):
        label, p = key
        t0 = time.perf_counter()
        try:
            text = engine.certificate_to_json(engine.analyze(models[label], p, label=label))
        except Exception as err:  # a failed job is counted, not fatal
            end = time.perf_counter()
            return [Op(key, end - t0, f"{type(err).__name__}: {err}")]
        end = time.perf_counter()
        if key not in first:
            first[key] = text
            return [Op(key, end - t0, True, text)]
        ok = True if text == first[key] else "certificate changed between passes"
        return [Op(key, end - t0, ok)]

    return job


@contextlib.contextmanager
def _rotating_cpus():
    """Yield a wrapper that moves the sweep thread to the next allowed CPU every SWEEP_ROTATE jobs.

    Left alone, the scheduler keeps the one sweep thread on one CPU for
    seconds at a time, and on a shared host the CPUs run at different
    speeds, so a run would measure whichever CPU it happened to stay on.
    The move happens between jobs, outside their timing.  The thread's own
    affinity is restored on the way out.
    """
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    cpus = sorted(allowed)

    def rotate(job):
        def moved(i, item):
            if len(cpus) > 1 and i % SWEEP_ROTATE == 0:
                os.sched_setaffinity(0, {cpus[(i // SWEEP_ROTATE) % len(cpus)]})
            return job(i, item)

        return moved

    try:
        yield rotate
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, allowed)


def _clear(caches):
    for cache in caches:
        cache.cache_clear()


def _check_sweep(run, ops):
    """Check each distinct certificate; a repeat carries its first one's verdict."""
    data = run.root / "tests" / "data"
    image = json.loads((data / "image_corpus.json").read_text())
    tate = json.loads((data / "tate_corpus.json").read_text())
    verdict = {}
    for op in ops:
        if op.ok is not True:
            continue
        if op.text:
            label, p = op.key
            op.ok = checks.check_certificate(op.text, label, p)
            if op.ok is True:
                op.ok = checks.check_oracles(op.text, label, p, image, tate)
            verdict[op.key] = op.ok
        else:
            op.ok = verdict.get(op.key, "repeat of a job whose first run failed")


def corpus_sweep(run, trace):
    data = run.root / "tests" / "data"
    warm_ainvs, warm_p = inputs.SWEEP_WARMUP
    warm_code = (
        "from shaclass.curve import CurveModel\n"
        "from shaclass.engine import analyze, certificate_to_json\n"
        f"certificate_to_json(analyze(CurveModel(*{warm_ainvs!r}), {warm_p}))\n"
    )

    def once():
        curves = inputs.corpus_curves(data)
        jobs = inputs.sweep_jobs(curves, run.seed)
        run.child([sys.executable, "-c", warm_code])
        return curves, jobs

    (curves, jobs), setup_s = run.setup(once, lambda: None)
    run.log(f"corpus_sweep: {len(curves)} curves, {len(jobs)} jobs, input digest {inputs.digest(jobs)}")

    curve, engine, _sel = in_process()
    engine.certificate_to_json(engine.analyze(curve.CurveModel(*warm_ainvs), warm_p))
    models = {label: curve.CurveModel(*a) for label, a in curves.items()}
    caches = _lru_caches()

    if trace:
        with _rotating_cpus() as rotate:
            _clear(caches)
            untraced, wall_u = _closed_loop(run, jobs, rotate(_sweep_job(models)), count=len(jobs))
            _clear(caches)
            tracer = Tracer()
            tracer.install()
            try:
                traced, wall_t = _closed_loop(run, jobs, rotate(_sweep_job(models)), count=len(jobs))
            finally:
                tracer.uninstall()
        spans_dir = run.fresh_dir("spans")
        tracer.dump(spans_dir / "spans-0.jsonl")
        dumps = [load_dump(spans_dir / "spans-0.jsonl")]
        _keep_spans(run, "corpus_sweep", spans_dir)
        _check_sweep(run, untraced)
        require_identical(untraced, traced)
        attempted, failed = stats.count_failures([op.ok for op in untraced + traced])
        return attempted, failed, per_layer(dumps, overhead_pct(wall_u, wall_t))

    # each pass starts from cleared caches, as a new sweep process would
    with _rotating_cpus() as rotate:
        ops, wall = _closed_loop(run, jobs, rotate(_sweep_job(models)), until=time.perf_counter() + run.seconds,
                                 min_calls=MIN_OPS, on_pass=lambda: _clear(caches))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _check_sweep(run, ops)
    _log_certs(run, "corpus_sweep", ops)
    return latency_metrics(ops, wall, setup_s, rss)


# --- batch_fresh ----------------------------------------------------------


def _batch_call(run, fixtures, labels, p, workers, name, spans_file=None):
    """One `analyze --batch` child.

    Returns a BatchCall: [(arrival seconds, certificate text)], unparsed
    stdout, stderr, exit code, wall seconds and the child's peak RSS in KB.
    """
    batch_file = run.work / f"{name}.txt"
    batch_file.write_text("".join(f"{label}\n" for label in labels))
    args = ["analyze", "--batch", str(batch_file), "-p", str(p), "--offline", "--format", "json",
            "--workers", str(workers), "--fixtures", str(fixtures)]
    err_file = run.work / f"{name}.err"
    arrivals, lines = [], []
    rss_kb = 0
    t0 = time.perf_counter()
    with open(err_file, "w") as err:
        proc = subprocess.Popen(run.cli(args, spans_file, t0), env=run.env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                lines.append(line)
                # a top-level JSON value ends on an unindented line ending in "}"
                if line[:1] in "{}" and line.rstrip().endswith("}"):
                    text = "".join(lines)
                    try:
                        json.loads(text)
                    except ValueError:
                        continue
                    arrivals.append((time.perf_counter() - t0, text))
                    lines = []
            # reap the child here rather than in proc.wait(), to get its own rusage
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            rss_kb = usage.ru_maxrss
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    wall = time.perf_counter() - t0
    return BatchCall(arrivals, "".join(lines), err_file.read_text(), proc.returncode, wall, rss_kb)


@dataclass
class BatchCall:
    arrivals: list
    rest: str
    stderr: str
    rc: int
    wall: float
    rss_kb: int

    def ops(self, labels, p):
        """One Op per requested label, matched to its certificate by label."""
        by_label = {}
        for seconds, text in self.arrivals:
            by_label.setdefault(json.loads(text).get("label"), (seconds, text))
        ops = []
        for label in labels:
            if label in by_label:
                seconds, text = by_label[label]
                ops.append(Op((label, p), seconds, checks.check_certificate(text, label, p), text))
            else:
                reason = f"no certificate (exit {self.rc}): {self.stderr.strip()[-200:]}"
                ops.append(Op((label, p), self.wall, reason))
        return ops


def _mixed_batch(run, fixtures, valid, bad, p):
    """Valid labels plus one of bad reduction at p: how many labels get their own outcome?"""
    labels = list(valid)
    labels.insert(run.seed % (len(labels) + 1), bad)
    call = _batch_call(run, fixtures, labels, p, WORKERS, "mixed")
    docs = {}
    for _seconds, text in call.arrivals:
        doc = json.loads(text)
        docs.setdefault(doc.get("label"), text)
    own = 0
    for label in labels:
        text = docs.get(label)
        certified = text is not None and checks.check_certificate(text, label, p) is True
        if label == bad:
            named = text is not None or label in call.stderr or label in call.rest
            own += named and not certified
        else:
            own += certified
    run.log(f"batch_fresh: mixed batch of {len(labels)} labels (1 of bad reduction at {p}): "
            f"{own} got their own outcome, exit code {call.rc}")
    return len(labels) - own


def batch_fresh(run, trace):
    p0 = warm_p = inputs.BATCH_PRIMES[0]

    def generate():
        pool = inputs.fresh_curves(run.seed, POOL_BATCHES * BATCH_SIZE, BATCH_SIZE)
        return pool, inputs.warmup_curve(run.seed), inputs.bad_curve(run.seed, p0)

    # The ~800 fixture files are written once, outside setup_s: timed inside
    # it, setup_s climbed from 0.32 to 0.79 s over ten consecutive runs and
    # fell back after other work, so it followed the file system, not the program.
    fixtures = run.fresh_dir("fixtures")
    pool, warm, bad = generate()
    inputs.write_fixtures(fixtures, [warm, bad, *(r for rs in pool.values() for r in rs)])

    def once():
        generated = generate()
        call = _batch_call(run, fixtures, [warm["label"]], warm_p, WORKERS, "warmup")
        if call.rc != 0 or len(call.arrivals) != 1:
            raise BenchError(f"warm-up batch exited {call.rc} with {len(call.arrivals)} "
                             f"certificates: {call.stderr[-300:]}")
        return generated

    (pool, warm, bad), setup_s = run.setup(once, lambda: run.fresh_dir("cache"))
    run.log(f"batch_fresh: {sum(map(len, pool.values()))} curves, input digest {inputs.digest(pool)}")
    batches = [
        (p, [r["label"] for r in pool[p][k * BATCH_SIZE:(k + 1) * BATCH_SIZE]])
        for k in range(POOL_BATCHES)
        for p in inputs.BATCH_PRIMES
    ]
    mixed_valid = [r["label"] for r in pool[p0][:MIXED_VALID]]

    rss = []

    def batch_job(workers, tag, spans_dir=None):
        def job(n, batch):
            p, labels = batch
            spans_file = None if spans_dir is None else spans_dir / f"spans-{n}.jsonl"
            call = _batch_call(run, fixtures, labels, p, workers, f"{tag}-{n}", spans_file)
            rss.append(call.rss_kb)
            ops = call.ops(labels, p)
            for op in ops[:SAMPLE_PER_BATCH]:
                op.sample = True
            return ops

        return job

    if trace:
        first_round = batches[:len(inputs.BATCH_PRIMES)]
        untraced, wall_u = _closed_loop(run, first_round, batch_job(WORKERS, "w2"), count=len(first_round))
        spans_dir = run.fresh_dir("spans")
        traced, wall_t = _closed_loop(run, first_round, batch_job(WORKERS, "traced", spans_dir),
                                      count=len(first_round))
        single, wall_1 = _closed_loop(run, first_round, batch_job(1, "w1"), count=len(first_round))
        require_identical(untraced, traced)
        require_identical(untraced, single)
        dumps = [load_dump(p) for p in sorted(spans_dir.glob("spans-*.jsonl"))]
        _keep_spans(run, "batch_fresh", spans_dir)
        lost = _mixed_batch(run, fixtures, mixed_valid, bad["label"], p0)
        attempted, failed = stats.count_failures([op.ok for op in untraced + traced + single])
        return attempted, failed, per_layer(dumps, overhead_pct(wall_u, wall_t), wall_1 / wall_u, lost)

    ops, wall = _closed_loop(run, batches, batch_job(WORKERS, "b"), until=time.perf_counter() + run.seconds,
                             min_calls=-(-MIN_OPS // BATCH_SIZE))
    expected = {}
    for op in ops:
        if op.ok is True and op.sample:
            if op.key not in expected:
                expected[op.key] = expected_certificate(run, *op.key, fixtures)
            if op.text != expected[op.key]:
                op.ok = "CLI output differs from certificate_to_json(analyze(...))"
    _mixed_batch(run, fixtures, mixed_valid, bad["label"], p0)
    _log_certs(run, "batch_fresh", ops)
    # the median batch child: the largest one swings by a few MB with how
    # the two worker threads' allocations happen to land
    return latency_metrics(ops, wall, setup_s, statistics.median(rss))


# --- output -----------------------------------------------------------------


def _log_certs(run, workload, ops):
    """Failures; for information only, a SHA-256 over the distinct certificates and the latency percentiles."""
    distinct = {op.key: op.text for op in ops if op.ok is True and op.text}
    failures = [op for op in ops if op.ok is not True]
    run.log(f"{workload}: {len(ops)} jobs, {len(failures)} failed; certificate digest "
            f"{inputs.digest(sorted(distinct.items()))} over {len(distinct)} distinct jobs (information only)")
    for op in failures[:5]:
        run.log(f"  failed {op.key}: {op.ok}")
    times = [1e3 * op.seconds for op in ops]
    shown = [f"p{round(100 * q)} {stats.percentile(times, q):.3f}" for q in (0.5, 0.75, 0.9, 0.99)
             if stats.samples_beyond(len(times), q) >= stats.MIN_BEYOND]
    run.log(f"{workload}: op_ms {', '.join(shown)} over {len(times)} ops (information only)")


def _keep_spans(run, workload, spans_dir):
    """Move the run's span files to .shabench/spans/<workload>-seed<n>/."""
    target = run.work.parent / "spans" / f"{workload}-seed{run.seed}"
    shutil.rmtree(target, ignore_errors=True)
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(spans_dir, target)
    run.log(f"{workload}: spans written to {target.relative_to(run.root)}")


WORKLOADS = {
    "cli_cold": cli_cold,
    "corpus_sweep": corpus_sweep,
    "batch_fresh": batch_fresh,
}
