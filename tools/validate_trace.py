#!/usr/bin/env python3
"""Validate routesync observability artifacts: JSONL traces + manifests.

Usage:
  validate_trace.py trace TRACE.jsonl [--manifest MANIFEST.json]
      Check the wire form of every trace line (numbers within the C++
      event's ranges included); with --manifest also check that the
      manifest's embedded event count and FNV-1a hash match the file.
      Type names and slot ranges are TraceReader's: `routesync trace summary`.

  validate_trace.py manifest MANIFEST.json
      Schema-check a run manifest (including the profile block and the
      trace block's offered/dropped accounting).

  validate_trace.py compare MANIFEST_A.json MANIFEST_B.json [--ignore-key K]
      Assert two manifests describe identical runs: byte-identical traces
      (same event count and FNV-1a), identical metric blocks, and
      identical seeds/jobs/config/failed_checks. --ignore-key (repeatable)
      skips a named comparison — e.g. `--ignore-key jobs` for the
      --jobs 1 vs --jobs 8 determinism check (the `trace.compare_manifests`
      ctest entry).

  validate_trace.py chrome CHROME.json
      Structural check of a Chrome/Perfetto trace-event file as produced
      by `routesync trace export-chrome`: traceEvents list, required keys
      per phase, and balanced B/E slices per thread.

  validate_trace.py selftest
      Run this script's own unit tests (no files needed).

Exit status 0 on success; 1 with a diagnostic on the first violation.
No third-party dependencies (stdlib json only).
"""

import argparse
import json
import math
import sys

# Field name -> accepted types. `t`, `b` and `x` are JSON numbers; `seq`,
# `node` and `a` must be integers.
EVENT_FIELDS = {
    "seq": (int,),
    "t": (int, float),
    "type": (str,),
    "node": (int,),
    "a": (int,),
    "b": (int, float),
    "x": (int, float),
}

# The integer fields' ranges: the C++ TraceEvent's uint64 seq, int32 node
# and int64 a slot. A value outside them is one the reader cannot hold.
EVENT_INT_RANGES = {
    "seq": (0, (1 << 64) - 1),
    "node": (-(1 << 31), (1 << 31) - 1),
    "a": (-(1 << 63), (1 << 63) - 1),
}
EVENT_REAL_FIELDS = ("t", "b", "x")

# Synchronization-observatory metric names (the sync.* namespace the
# SyncMonitor publishes, by metric kind). Any sync.* name outside this
# table is a schema violation — extend it deliberately.
SYNC_COUNTERS = {
    "sync.rearms",
    "sync.transitions",
    "sync.coupling_edges",
    "sync.synced_runs",
}
SYNC_GAUGES = {
    "sync.r_last",
    "sync.r_max",
    "sync.entropy_last",
    "sync.largest_fraction_last",
}
SYNC_DISTRIBUTIONS = {
    "sync.time_to_sync_sec",
}

MANIFEST_FIELDS = {
    "tool": (str,),
    "description": (str,),
    "git_describe": (str,),
    "build_type": (str,),
    "seeds": (list,),
    "jobs": (int,),
    "config": (dict,),
    "metrics": (dict,),
    "wall_seconds": (int, float),
    "sim_seconds": (int, float),
    "peak_rss_bytes": (int,),
    "failed_checks": (int,),
}

# Per-element metric names the element graph (src/net/elements/) emits:
# every counter under the "elem." prefix must end in one of these
# suffixes, and every "elem." gauge in one of the gauge suffixes. A new
# element counter is a schema change — add its suffix here deliberately.
ELEMENT_COUNTER_SUFFIXES = {
    "enqueued",       # QueueElement: packets accepted
    "dequeued",       # QueueElement: packets drained
    "dropped",        # QueueElement: packets rejected (all causes)
    "early_drops",    # RedQueue: probabilistic drops below max_th
    "forced_drops",   # RedQueue: full-queue / above-max_th drops
    "transmissions",  # DelayLink: serializations started
    "down_drops",     # DelayLink: offered while carrier was down
    "delivered",      # CallbackSink: packets handed to the callback
    "updates_sent",   # PeriodicAgent: timer firings
    "updates_heard",  # PeriodicAgent: updates received on "hear"
    "timer_arms",     # PeriodicAgent: interval draws
}

ELEMENT_GAUGE_SUFFIXES = {
    "avg",  # RedQueue: EWMA queue average at collection time
}

TRACE_BLOCK_FIELDS = {
    "path": (str,),
    "events": (int,),
    "offered": (int,),
    "dropped": (int,),
    "fnv1a": (str,),
}

# Keys cmd_compare checks for equality, in report order. "trace" means the
# events/fnv1a pair of the trace block (path may legitimately differ).
COMPARE_KEYS = ("trace", "seeds", "jobs", "config", "metrics", "failed_checks")

FNV_BASIS = 1469598103934665603  # the repo-wide FNV-1a basis
FNV_PRIME = 1099511628211
U64 = (1 << 64) - 1


def fnv1a(data: bytes) -> int:
    h = FNV_BASIS
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & U64
    return h


def fail(msg: str) -> "NoReturn":  # noqa: F821 - py3.8-friendly annotation
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj: dict, spec: dict, what: str) -> None:
    for name, types in spec.items():
        if name not in obj:
            fail(f"{what}: missing field '{name}'")
        value = obj[name]
        # bool is an int subclass in Python; a JSON true/false is never valid
        # where the schema expects a number.
        if isinstance(value, bool) or not isinstance(value, types):
            fail(f"{what}: field '{name}' has type {type(value).__name__}, "
             f"expected {'/'.join(t.__name__ for t in types)}")


def check_event_ranges(event: dict, what: str) -> None:
    """Every number fits the C++ TraceEvent: integers within their type's
    range, reals finite (json reads 1e400 as inf, and NaN and Infinity as
    themselves)."""
    for name, (lo, hi) in EVENT_INT_RANGES.items():
        if not lo <= event[name] <= hi:
            fail(f"{what}: field '{name}' is out of range: {event[name]} "
                 f"(must be in [{lo}, {hi}])")
    for name in EVENT_REAL_FIELDS:
        if not math.isfinite(event[name]):
            fail(f"{what}: field '{name}' is not finite: {event[name]}")


def validate_trace_file(path: str) -> tuple[int, int]:
    """Returns (event_count, fnv1a_of_bytes)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        fail(f"cannot read trace {path}: {e}")
    count = 0
    prev_seq = -1
    prev_t = float("-inf")
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            fail(f"{path}:{lineno}: blank line in JSONL trace")
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{lineno}: invalid JSON: {e}")
        if not isinstance(event, dict):
            fail(f"{path}:{lineno}: expected a JSON object")
        check_fields(event, EVENT_FIELDS, f"{path}:{lineno}")
        if set(event) - set(EVENT_FIELDS):
            fail(f"{path}:{lineno}: unknown fields "
                 f"{sorted(set(event) - set(EVENT_FIELDS))}")
        check_event_ranges(event, f"{path}:{lineno}")
        if event["seq"] != prev_seq + 1:
            fail(f"{path}:{lineno}: seq {event['seq']} breaks the monotonic "
                 f"sequence (previous {prev_seq})")
        if event["t"] < prev_t:
            fail(f"{path}:{lineno}: time {event['t']} goes backwards "
                 f"(previous {prev_t})")
        if event["t"] < 0:
            fail(f"{path}:{lineno}: negative time {event['t']}")
        prev_seq = event["seq"]
        prev_t = event["t"]
        count += 1
    return count, fnv1a(raw)


def load_manifest(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load manifest {path}: {e}")
    if not isinstance(manifest, dict):
        fail(f"{path}: manifest must be a JSON object")
    check_manifest(manifest, path)
    return manifest


def check_element_metrics(metrics: dict, what: str) -> None:
    """Name-checks the "elem." namespace the element graph publishes."""
    for name in metrics.get("counters", {}):
        if not name.startswith("elem."):
            continue
        suffix = name.rsplit(".", 1)[-1]
        if suffix not in ELEMENT_COUNTER_SUFFIXES:
            fail(f"{what}: unknown element counter '{name}' "
                 f"(suffix '{suffix}' is not a known element counter)")
    for name in metrics.get("gauges", {}):
        if not name.startswith("elem."):
            continue
        suffix = name.rsplit(".", 1)[-1]
        if suffix not in ELEMENT_GAUGE_SUFFIXES:
            fail(f"{what}: unknown element gauge '{name}' "
                 f"(suffix '{suffix}' is not a known element gauge)")


def check_sync_metrics(metrics: dict, what: str) -> None:
    """Whitelists the sync.* namespace the SyncMonitor publishes."""
    for kind, allowed in (("counters", SYNC_COUNTERS),
                          ("gauges", SYNC_GAUGES),
                          ("distributions", SYNC_DISTRIBUTIONS)):
        for name in metrics.get(kind, {}):
            if name.startswith("sync.") and name not in allowed:
                fail(f"{what}: unknown sync metric '{name}' in {kind} "
                     f"(allowed: {sorted(allowed)})")


def check_manifest(manifest: dict, what: str) -> None:
    check_fields(manifest, MANIFEST_FIELDS, what)
    for kind in ("counters", "gauges", "distributions"):
        if kind not in manifest["metrics"]:
            fail(f"{what}: metrics block missing '{kind}'")
    check_element_metrics(manifest["metrics"], what)
    check_sync_metrics(manifest["metrics"], what)
    if "profile" not in manifest:
        fail(f"{what}: missing field 'profile' (object or null)")
    profile = manifest["profile"]
    if profile is not None:
        if not isinstance(profile, dict):
            fail(f"{what}: profile must be an object or null")
        for label, entry in profile.items():
            for field in ("count", "total_sec", "max_sec"):
                if field not in entry:
                    fail(f"{what}: profile['{label}'] missing '{field}'")
    trace = manifest.get("trace")
    if trace is not None:
        check_fields(trace, TRACE_BLOCK_FIELDS, f"{what}: trace block")
        if trace["dropped"] > trace["offered"]:
            fail(f"{what}: trace block dropped ({trace['dropped']}) exceeds "
                 f"offered ({trace['offered']})")
        if trace["events"] + trace["dropped"] != trace["offered"]:
            fail(f"{what}: trace block accounting: events ({trace['events']}) "
                 f"+ dropped ({trace['dropped']}) != offered "
                 f"({trace['offered']})")


def cmd_trace(args: argparse.Namespace) -> None:
    count, digest = validate_trace_file(args.trace)
    if args.manifest:
        manifest = load_manifest(args.manifest)
        trace = manifest.get("trace")
        if trace is None:
            fail(f"{args.manifest}: no trace block but a trace file was given")
        if trace["events"] != count:
            fail(f"manifest says {trace['events']} events, trace has {count}")
        if int(trace["fnv1a"], 16) != digest:
            fail(f"manifest hash {trace['fnv1a']} != computed {digest:016x}")
    print(f"validate_trace: OK: {args.trace}: {count} events, "
          f"fnv1a {digest:016x}")


def cmd_manifest(args: argparse.Namespace) -> None:
    manifest = load_manifest(args.manifest)
    trace = manifest.get("trace")
    detail = ""
    if trace is not None:
        detail = (f" (trace: {trace['events']} events, "
                  f"{trace['offered']} offered, {trace['dropped']} dropped)")
    print(f"validate_trace: OK: {args.manifest}{detail}")


def compare_manifests(a: dict, b: dict, ignore: set) -> str:
    """Returns an error message, or "" when the manifests match."""
    for key in COMPARE_KEYS:
        if key in ignore:
            continue
        if key == "trace":
            ta, tb = a.get("trace"), b.get("trace")
            if (ta is None) != (tb is None):
                return "one manifest has a trace block, the other does not"
            if ta is not None:
                if ta["events"] != tb["events"]:
                    return (f"event counts differ: {ta['events']} vs "
                            f"{tb['events']}")
                if ta["fnv1a"] != tb["fnv1a"]:
                    return (f"trace hashes differ: {ta['fnv1a']} vs "
                            f"{tb['fnv1a']}")
        elif a[key] != b[key]:
            return f"'{key}' differs: {a[key]!r} vs {b[key]!r}"
    return ""


def cmd_compare(args: argparse.Namespace) -> None:
    a = load_manifest(args.manifest_a)
    b = load_manifest(args.manifest_b)
    ignore = set(args.ignore_key or [])
    unknown = ignore - set(COMPARE_KEYS)
    if unknown:
        fail(f"--ignore-key: unknown key(s) {sorted(unknown)}; "
             f"choose from {list(COMPARE_KEYS)}")
    error = compare_manifests(a, b, ignore)
    if error:
        fail(error)
    checked = [k for k in COMPARE_KEYS if k not in ignore]
    print(f"validate_trace: OK: {args.manifest_a} == {args.manifest_b} "
          f"({', '.join(checked)})")


CHROME_PHASE_KEYS = {
    "M": ("name", "ph", "pid", "tid", "args"),
    "B": ("name", "ph", "ts", "pid", "tid"),
    "E": ("name", "ph", "ts", "pid", "tid"),
    "C": ("name", "ph", "ts", "pid", "tid", "args"),
    "i": ("name", "ph", "ts", "pid", "tid", "s", "args"),
}


def check_chrome(doc, what: str) -> int:
    """Returns the event count; calls fail() on the first violation."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{what}: expected an object with a 'traceEvents' list")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{what}: traceEvents must be a list")
    open_slices = {}  # tid -> depth
    prev_ts = {}      # tid -> last ts, per-thread monotonicity
    for i, event in enumerate(events):
        what_i = f"{what}: traceEvents[{i}]"
        if not isinstance(event, dict):
            fail(f"{what_i}: not an object")
        ph = event.get("ph")
        if ph not in CHROME_PHASE_KEYS:
            fail(f"{what_i}: unknown phase {ph!r}")
        for key in CHROME_PHASE_KEYS[ph]:
            if key not in event:
                fail(f"{what_i}: phase '{ph}' missing key '{key}'")
        tid = event["tid"]
        if ph == "M":
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            fail(f"{what_i}: ts must be a number")
        if ts < prev_ts.get(tid, float("-inf")):
            fail(f"{what_i}: ts {ts} goes backwards on tid {tid}")
        prev_ts[tid] = ts
        if ph == "B":
            open_slices[tid] = open_slices.get(tid, 0) + 1
        elif ph == "E":
            if open_slices.get(tid, 0) == 0:
                fail(f"{what_i}: 'E' with no open 'B' on tid {tid}")
            open_slices[tid] -= 1
    unbalanced = {tid: n for tid, n in open_slices.items() if n}
    if unbalanced:
        fail(f"{what}: unclosed 'B' slices: {unbalanced}")
    return len(events)


def cmd_chrome(args: argparse.Namespace) -> None:
    try:
        with open(args.chrome, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load chrome trace {args.chrome}: {e}")
    count = check_chrome(doc, args.chrome)
    print(f"validate_trace: OK: {args.chrome}: {count} trace events")


# ---------------------------------------------------------------------------
# selftest — exercises the pure helpers without touching the filesystem.

def _expect_fail(fn, substring: str, label: str) -> None:
    try:
        fn()
    except SystemExit:
        # fail() printed to stderr and exited; capture via wrapper instead.
        raise AssertionError(f"{label}: fail() exited instead of raising")
    except _SelfTestFailure as e:
        if substring not in str(e):
            raise AssertionError(
                f"{label}: expected '{substring}' in '{e}'") from None
        return
    raise AssertionError(f"{label}: expected a validation failure")


class _SelfTestFailure(Exception):
    pass


def cmd_selftest(args: argparse.Namespace) -> None:
    # Route fail() through an exception so each case can assert on it.
    global fail

    def raising_fail(msg):
        raise _SelfTestFailure(msg)

    original_fail = fail
    fail = raising_fail
    try:
        # FNV-1a matches the repo-wide C++ implementation's parameters.
        assert fnv1a(b"") == FNV_BASIS
        assert fnv1a(b"a") == ((FNV_BASIS ^ ord("a")) * FNV_PRIME) & U64

        good_event = {"seq": 0, "t": 1.5, "type": "timer_set", "node": 2,
                      "a": 0, "b": 91.5, "x": 0}
        check_fields(good_event, EVENT_FIELDS, "selftest")
        _expect_fail(
            lambda: check_fields({k: v for k, v in good_event.items()
                                  if k != "x"}, EVENT_FIELDS, "t"),
            "missing field 'x'", "event without x")
        _expect_fail(
            lambda: check_fields(dict(good_event, seq=True), EVENT_FIELDS,
                                 "t"),
            "has type bool", "bool where int expected")

        # Numbers the C++ reader cannot hold: each field's extremes pass,
        # one past them fails, and so do the reals json reads as inf/nan.
        check_event_ranges(good_event, "selftest")
        for name, (lo, hi) in EVENT_INT_RANGES.items():
            check_event_ranges(dict(good_event, **{name: lo}), "selftest")
            check_event_ranges(dict(good_event, **{name: hi}), "selftest")
            for bad in (lo - 1, hi + 1):
                _expect_fail(
                    lambda: check_event_ranges(dict(good_event, **{name: bad}),
                                               "t"),
                    f"'{name}' is out of range", f"{name} = {bad}")
        for name in EVENT_REAL_FIELDS:
            for token in ("1e400", "-1e400", "NaN", "Infinity"):
                bad = json.loads(token)
                _expect_fail(
                    lambda: check_event_ranges(dict(good_event, **{name: bad}),
                                               "t"),
                    f"'{name}' is not finite", f"{name} = {token}")
            check_event_ranges(dict(good_event, **{name: 5e-324}), "selftest")

        good_trace = {"path": "t.jsonl", "events": 8, "offered": 10,
                      "dropped": 2, "fnv1a": "00" * 8}
        good_manifest = {
            "tool": "x", "description": "d", "git_describe": "g",
            "build_type": "Release", "seeds": [1], "jobs": 1, "config": {},
            "metrics": {"counters": {}, "gauges": {}, "distributions": {}},
            "profile": {"experiment.run":
                        {"count": 1, "total_sec": 0.5, "max_sec": 0.5}},
            "trace": dict(good_trace),
            "wall_seconds": 0.1, "sim_seconds": 1.0,
            "peak_rss_bytes": 1048576, "failed_checks": 0,
        }
        check_manifest(good_manifest, "selftest")
        check_manifest(dict(good_manifest, profile=None, trace=None),
                       "selftest")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest, metrics={"counters": {}, "gauges": {}}),
                "m"),
            "metrics block missing 'distributions'",
            "metrics without distributions")

        # Element-graph metric names: known suffixes pass, unknown fail.
        good_elem_metrics = {
            "counters": {"elem.link.queue.enqueued": 4,
                         "elem.link.queue.early_drops": 1,
                         "elem.link.tx.transmissions": 5,
                         "elem.link.sink.delivered": 5,
                         "elem.agent0.updates_sent": 2,
                         "router.forwarded": 9},  # non-elem: not name-checked
            "gauges": {"elem.st0.avg": 1.5},
            "distributions": {},
        }
        check_manifest(dict(good_manifest, metrics=good_elem_metrics),
                       "selftest")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest,
                     metrics=dict(good_elem_metrics,
                                  counters={"elem.link.queue.enqueue": 1})),
                "m"),
            "unknown element counter", "typo'd element counter suffix")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest,
                     metrics=dict(good_elem_metrics,
                                  gauges={"elem.st0.average": 1.0})),
                "m"),
            "unknown element gauge", "typo'd element gauge suffix")
        # sync.* metric names: the whitelist passes, anything else fails.
        good_sync_metrics = {
            "counters": {"sync.rearms": 100, "sync.transitions": 2,
                         "sync.coupling_edges": 40, "sync.synced_runs": 1},
            "gauges": {"sync.r_last": 0.99, "sync.r_max": 1.0,
                       "sync.entropy_last": 0.2,
                       "sync.largest_fraction_last": 1.0},
            "distributions": {"sync.time_to_sync_sec":
                              {"count": 1, "mean": 39330.3}},
        }
        check_manifest(dict(good_manifest, metrics=good_sync_metrics), "m")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest,
                     metrics=dict(good_sync_metrics,
                                  counters={"sync.rearm": 1})), "m"),
            "unknown sync metric", "typo'd sync counter")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest,
                     metrics=dict(good_sync_metrics,
                                  gauges={"sync.r": 0.5})), "m"),
            "unknown sync metric", "typo'd sync gauge")
        _expect_fail(
            lambda: check_manifest(
                {k: v for k, v in good_manifest.items() if k != "profile"},
                "m"),
            "missing field 'profile'", "manifest without profile")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest,
                     profile={"lbl": {"count": 1, "total_sec": 0.0}}), "m"),
            "missing 'max_sec'", "profile entry missing max_sec")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest, trace=dict(good_trace, dropped=11)), "m"),
            "exceeds offered", "dropped > offered")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest, trace=dict(good_trace, events=9)), "m"),
            "accounting", "events + dropped != offered")
        _expect_fail(
            lambda: check_manifest(
                dict(good_manifest,
                     trace={k: v for k, v in good_trace.items()
                            if k != "offered"}), "m"),
            "missing field 'offered'", "trace block without offered")

        other = json.loads(json.dumps(good_manifest))
        assert compare_manifests(good_manifest, other, set()) == ""
        other["jobs"] = 8
        assert "'jobs' differs" in compare_manifests(good_manifest, other,
                                                     set())
        assert compare_manifests(good_manifest, other, {"jobs"}) == ""
        other["trace"]["fnv1a"] = "ff" * 8
        assert "hashes differ" in compare_manifests(good_manifest, other,
                                                    {"jobs"})
        other["trace"] = None
        assert "trace block" in compare_manifests(good_manifest, other,
                                                  {"jobs"})

        good_chrome = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
             "args": {"name": "node 0"}},
            {"name": "cpu_busy", "ph": "B", "ts": 0, "pid": 0, "tid": 1},
            {"name": "resource.0", "ph": "C", "ts": 5, "pid": 0, "tid": 0,
             "args": {"value": 3}},
            {"name": "cpu_busy", "ph": "E", "ts": 10, "pid": 0, "tid": 1},
            {"name": "timer_set", "ph": "i", "ts": 11, "pid": 0, "tid": 1,
             "s": "t", "args": {"a": 0, "b": 1.0, "x": 0}},
        ]}
        assert check_chrome(good_chrome, "selftest") == 5
        _expect_fail(lambda: check_chrome({"events": []}, "c"),
                     "traceEvents", "chrome without traceEvents")
        _expect_fail(
            lambda: check_chrome(
                {"traceEvents": good_chrome["traceEvents"][:2]}, "c"),
            "unclosed 'B'", "chrome with unclosed slice")
        _expect_fail(
            lambda: check_chrome(
                {"traceEvents": [good_chrome["traceEvents"][3]]}, "c"),
            "no open 'B'", "chrome E without B")
        _expect_fail(
            lambda: check_chrome(
                {"traceEvents": [
                    {"name": "n", "ph": "B", "ts": 5, "pid": 0, "tid": 1},
                    {"name": "n", "ph": "E", "ts": 4, "pid": 0, "tid": 1}]},
                "c"),
            "goes backwards", "chrome non-monotonic ts")
    finally:
        fail = original_fail
    print("validate_trace: OK: selftest passed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="validate a JSONL trace")
    p_trace.add_argument("trace")
    p_trace.add_argument("--manifest", help="cross-check against a manifest")
    p_trace.set_defaults(func=cmd_trace)

    p_manifest = sub.add_parser("manifest", help="validate a run manifest")
    p_manifest.add_argument("manifest")
    p_manifest.set_defaults(func=cmd_manifest)

    p_compare = sub.add_parser(
        "compare", help="assert two manifests describe identical runs")
    p_compare.add_argument("manifest_a")
    p_compare.add_argument("manifest_b")
    p_compare.add_argument(
        "--ignore-key", action="append", metavar="KEY",
        help=f"skip one comparison; repeatable; keys: {list(COMPARE_KEYS)}")
    p_compare.set_defaults(func=cmd_compare)

    p_chrome = sub.add_parser(
        "chrome", help="structurally validate a Chrome trace-event file")
    p_chrome.add_argument("chrome")
    p_chrome.set_defaults(func=cmd_chrome)

    p_selftest = sub.add_parser("selftest", help="run this script's tests")
    p_selftest.set_defaults(func=cmd_selftest)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
