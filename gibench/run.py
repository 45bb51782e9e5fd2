#!/usr/bin/env python3
"""Build and run the photon-gi benchmark.

    python3 gibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 gibench/run.py compare <base-report.tsv> <new-report.tsv>

Run from the repository root. The script builds the `gibench` package
(release profile, offline, into $CARGO_TARGET_DIR or `.bench_build`), stamps
the host block with the compiler version and the source commit, runs the
binary, and passes its output through: the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The binary's exit
code is returned; a failed build exits non-zero without a result line.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def source_digest():
    """A digest of the measured sources: the crates, the vendored shims and the benchmark."""
    digest = hashlib.sha256()
    for top in ("crates", "vendor", HERE):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    if out.returncode != 0:
        raise subprocess.SubprocessError(out.stderr.strip())
    return out.stdout


def source_commit():
    """The git commit of the checkout, marked dirty with the source digest
    when the working tree differs from it; outside git, the digest alone."""
    try:
        top, head = git("rev-parse", "--show-toplevel", "HEAD").split()
        if os.path.samefile(top, ROOT):
            if git("status", "--porcelain").strip():
                return f"{head}-dirty+{source_digest()}"
            return head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return source_digest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return False
    return True


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "crates", "photon-core", "Cargo.toml")):
        print("run.py: run from the repository root (crates/ not found)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir()
    env.setdefault("GIBENCH_OUT", os.path.join(env["CARGO_TARGET_DIR"], "gibench"))
    if not build(env):
        return 2
    env["GIBENCH_RUSTC"] = rustc_version()
    env["GIBENCH_COMMIT"] = source_commit()
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "gibench")
    proc = subprocess.Popen([binary] + argv, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
