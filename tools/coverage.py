#!/usr/bin/env python3
"""Count what the runs of a --coverage build reached, by line and function.

Usage:
  coverage.py zero BUILD_DIR
      Delete every .gcda under BUILD_DIR, so the next runs count alone.

  coverage.py report BUILD_DIR --source-dir DIR [--out FILE] [--gcov GCOV]
      Run `gcov --json-format` on every .gcno under BUILD_DIR. A unit with
      no .gcda counts as never run: walking the .gcno files, not the
      .gcda files, keeps a unit that nothing which ran links in the count.
      Counts are unioned by (file, line) across translation units, so a
      header line is reached when any unit ran it, and a function is
      never run when no unit ran it (all its instantiations and
      constructor variants at one line count as one function). Prints
      `reached/total path` for each file under DIR's src/ and tools/, a
      total line, and then each never-run function as `path:line name`.

  coverage.py selftest
      Run this script's own unit tests (no files or gcov needed).

Exit status 0 on success; 1 with a diagnostic on failure.
No third-party dependencies (stdlib only).
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

# Source trees whose code ships: the library and the CLI.
COUNTED_DIRS = ("src", "tools")


def fail(msg: str) -> None:
    print(f"coverage: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def find_files(build_dir: str, suffix: str) -> list:
    found = []
    for root, _dirs, files in os.walk(build_dir):
        found.extend(os.path.join(root, f) for f in files if f.endswith(suffix))
    return sorted(found)


def run_gcov(gcov: str, gcno: str) -> list:
    """gcov's JSON documents for one notes file (one per line of output)."""
    proc = subprocess.run(
        [gcov, "--json-format", "--stdout", os.path.basename(gcno)],
        cwd=os.path.dirname(gcno), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        fail(f"{gcov} failed on {gcno}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def counted_path(doc: dict, path: str, source_dir: str):
    """`path` relative to source_dir when it lies under a counted tree,
    else None."""
    if not os.path.isabs(path):
        path = os.path.join(doc.get("current_working_directory", ""), path)
    rel = os.path.relpath(os.path.realpath(path), os.path.realpath(source_dir))
    top = rel.split(os.sep, 1)[0]
    return rel.replace(os.sep, "/") if top in COUNTED_DIRS else None


def merge(docs: list, source_dir: str):
    """Unions gcov JSON documents: ({(path, line): count},
    {(path, line): (name, count)}), each count the largest any unit saw."""
    lines = {}
    functions = {}
    for doc in docs:
        for entry in doc.get("files", []):
            path = counted_path(doc, entry["file"], source_dir)
            if path is None:
                continue
            for line in entry.get("lines", []):
                key = (path, line["line_number"])
                lines[key] = max(lines.get(key, 0), line["count"])
            for fn in entry.get("functions", []):
                key = (path, fn["start_line"])
                name = fn.get("demangled_name") or fn["name"]
                count = fn["execution_count"]
                if key in functions:
                    old_name, old_count = functions[key]
                    name = min(name, old_name)
                    count = max(count, old_count)
                functions[key] = (name, count)
    return lines, functions


def format_report(lines: dict, functions: dict) -> str:
    per_file = {}
    for (path, _line), count in lines.items():
        reached, total = per_file.get(path, (0, 0))
        per_file[path] = (reached + (count > 0), total + 1)
    out = []
    for path in sorted(per_file):
        reached, total = per_file[path]
        out.append(f"{reached}/{total} {path}")
    reached = sum(r for r, _ in per_file.values())
    total = sum(t for _, t in per_file.values())
    share = 100.0 * reached / total if total else 0.0
    never = sorted((k, name) for k, (name, count) in functions.items()
                   if count == 0)
    out.append(f"lines: {reached}/{total} reached ({share:.1f} %) in "
               f"{len(per_file)} files")
    out.append(f"functions never run: {len(never)} of {len(functions)}")
    out.extend(f"{path}:{line} {name}" for (path, line), name in never)
    return "\n".join(out) + "\n"


def cmd_zero(args: argparse.Namespace) -> None:
    for gcda in find_files(args.build_dir, ".gcda"):
        os.remove(gcda)


def cmd_report(args: argparse.Namespace) -> None:
    notes = find_files(args.build_dir, ".gcno")
    if not notes:
        fail(f"no .gcno under {args.build_dir}: not a --coverage build")
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        per_unit = list(pool.map(lambda g: run_gcov(args.gcov, g), notes))
    report = format_report(*merge([d for docs in per_unit for d in docs],
                                  args.source_dir))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report)
    sys.stdout.write(report)


def _doc(path: str, lines: list, functions: list) -> dict:
    return {"current_working_directory": "/b", "files": [{
        "file": path,
        "lines": [{"line_number": n, "count": c} for n, c in lines],
        "functions": [{"name": "_Z" + name, "demangled_name": name,
                       "start_line": n, "execution_count": c}
                      for name, n, c in functions]}]}


def cmd_selftest(_args: argparse.Namespace) -> None:
    src = "/s"
    # Two units include one header: a line either unit ran is reached; a
    # function no unit ran is listed once, under its smallest name.
    a = _doc("/s/src/x.hpp", [(3, 0), (4, 2)], [("f()", 3, 0), ("g<int>()", 9, 1)])
    b = _doc("/s/src/x.hpp", [(3, 5), (4, 0)], [("f()", 3, 0), ("g<long>()", 9, 0)])
    # A unit with no .gcda: gcov reports every count as 0.
    c = _doc("/s/src/y.cpp", [(1, 0), (2, 0)], [("h()", 1, 0)])
    # Relative paths resolve against gcov's working directory; files
    # outside src/ and tools/ (tests, system headers, the build tree)
    # are not counted.
    d = _doc("../s/tools/cli.cpp", [(7, 1)], [("main", 7, 1)])
    e = _doc("/s/tests/t.cpp", [(1, 0)], [("t()", 1, 0)])
    f = _doc("/usr/include/c++/vector", [(1, 0)], [("v()", 1, 0)])
    lines, functions = merge([a, b, c, d, e, f], src)
    assert lines == {("src/x.hpp", 3): 5, ("src/x.hpp", 4): 2,
                     ("src/y.cpp", 1): 0, ("src/y.cpp", 2): 0,
                     ("tools/cli.cpp", 7): 1}, lines
    assert functions == {("src/x.hpp", 3): ("f()", 0),
                         ("src/x.hpp", 9): ("g<int>()", 1),
                         ("src/y.cpp", 1): ("h()", 0),
                         ("tools/cli.cpp", 7): ("main", 1)}, functions
    report = format_report(lines, functions)
    assert report == (
        "2/2 src/x.hpp\n"
        "0/2 src/y.cpp\n"
        "1/1 tools/cli.cpp\n"
        "lines: 3/5 reached (60.0 %) in 3 files\n"
        "functions never run: 2 of 4\n"
        "src/x.hpp:3 f()\n"
        "src/y.cpp:1 h()\n"), report
    # An empty build reports nothing reached and nothing never run.
    assert format_report({}, {}) == (
        "lines: 0/0 reached (0.0 %) in 0 files\n"
        "functions never run: 0 of 0\n")
    print("coverage: OK: selftest passed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_zero = sub.add_parser("zero", help="delete the run counts (.gcda)")
    p_zero.add_argument("build_dir")
    p_zero.set_defaults(func=cmd_zero)

    p_report = sub.add_parser("report", help="count what the runs reached")
    p_report.add_argument("build_dir")
    p_report.add_argument("--source-dir", required=True)
    p_report.add_argument("--out", help="also write the report here")
    p_report.add_argument("--gcov", default="gcov")
    p_report.set_defaults(func=cmd_report)

    p_selftest = sub.add_parser("selftest", help="run this script's tests")
    p_selftest.set_defaults(func=cmd_selftest)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
