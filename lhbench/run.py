#!/usr/bin/env python3
"""Build and run the exact top-k LhCDS benchmark from the repository root.

    python3 lhbench/run.py --workload lds-suite --seed 0 --seconds 20 --trace 0

Builds the engine's local sources together with the benchmark (sbt, in this
directory) when they changed since the last build, then runs one JVM for the
requested workload. The last line of standard output is the result JSON; the
line before it records the run environment. Build logs go to standard error.
"""
import argparse
import hashlib
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
ENGINE = ROOT / "src" / "main" / "scala"
OUT = BENCH / "out"
RUN_TIMEOUT_S = 170

JVM_OPTS = [
    "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
    "-XX:+UseParallelGC", "-XX:-UsePerfData",
]


def fail(msg):
    print(f"lhbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources_sha(dirs):
    """SHA-256 over the relative paths and contents of every file under dirs."""
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(x for x in d.rglob("*") if x.is_file()):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build(stamp, tmp):
    """Compile with sbt unless the stamp of the last build matches; returns the classpath."""
    cp_file, stamp_file = OUT / "classpath.txt", OUT / "build.stamp"
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    print("lhbench: building with sbt ...", file=sys.stderr)
    r = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "-Dsbt.boot.lock=false", f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}",
         "-J-XX:-UsePerfData", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=840)
    sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
    lines = [l for l in r.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if r.returncode != 0 or not lines:
        fail("build failed")
    cp = lines[-1].strip()
    cp_file.write_text(cp)
    stamp_file.write_text(stamp)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ENGINE / "repro").is_dir():
        fail(f"engine sources not found under {ENGINE.relative_to(ROOT)}; "
             "run from a checkout of the repository")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    engine_sha = sources_sha([ENGINE])
    build_files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    stamp = "\n".join([engine_sha, sources_sha([BENCH / "src" / "main"])] +
                      [hashlib.sha256(f.read_bytes()).hexdigest() for f in build_files])
    cp = build(stamp, tmp)

    cmd = ["java", *JVM_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           f"-XX:FlightRecorderOptions=repository={tmp},stackdepth=256",
           "-cp", cp, "lhbench.Bench",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT),
           "--commit", git_commit(), "--sources-sha", engine_sha]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
