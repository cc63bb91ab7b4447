#!/usr/bin/env python3
"""CLI flag validation: bad flags fail before any input IO.

Each comparing subcommand is run with a bad flag and a --trace path that
does not exist. A bad --scheme / --dist must exit 1 with a
`bad_scheme_or_distance` log line whose `error` field names the bad value.
A bad ingestion flag (--parse-workers, --io-chunk-kb, --ingest-queue,
--backpressure) or an out-of-range --k must exit 2 with `invalid value for
--<flag>`. A malformed argv (unknown flag name, stray positional token, last
flag without a value) must exit 2 naming the problem. None may have tried to open the
trace (no `trace_load_failed`, no `io_retry`).

Usage: cli_flags_test.py <path-to-commsig-binary>
(ctest passes $<TARGET_FILE:commsig_cli>.)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

COMMSIG = None  # resolved in main()

COMMANDS = ("selfmatch", "multiusage", "masquerade", "anomalies", "timeline")
ALL_COMMANDS = ("signatures",) + COMMANDS + ("stream", "faultcheck",
                                             "chaoscheck")


class CliFlagsTest(unittest.TestCase):
    def run_cli_raw(self, *argv):
        with tempfile.TemporaryDirectory() as tmp:
            missing = os.path.join(tmp, "no_such_trace.csv")
            return subprocess.run([COMMSIG, *argv, "--trace", missing],
                                  capture_output=True, text=True, timeout=60)

    def run_cli(self, *argv):
        proc = self.run_cli_raw(*argv)
        events = [json.loads(line) for line in proc.stderr.splitlines()
                  if line.startswith("{")]
        return proc.returncode, events

    def expect_flag_error(self, command, flag, value, fragment):
        rc, events = self.run_cli(command, flag, value)
        self.assertEqual(rc, 1, f"{command} {flag} {value}: {events}")
        names = [e["event"] for e in events]
        self.assertEqual(names, ["bad_scheme_or_distance"],
                         f"{command} {flag} {value} read input: {names}")
        self.assertIn(fragment, events[0]["error"])

    def test_bad_distance_fails_before_io(self):
        for command in COMMANDS:
            with self.subTest(command=command):
                self.expect_flag_error(command, "--dist", "shell",
                                       "unknown distance: shell")

    def test_bad_scheme_fails_before_io(self):
        for command in COMMANDS:
            with self.subTest(command=command):
                self.expect_flag_error(command, "--scheme", "tx",
                                       "unknown scheme spec: tx")

    def test_bad_scheme_params_fail_before_io(self):
        cases = (
            # Wrapped to 2^64 - 1 hops and hung.
            ("rwr(c=0.1,h=-1)", "bad rwr params"),
            ("rwr(h=99999999999999999999)", "bad rwr params"),
            # Parsed, then walked 2^64 - 1 hops or pushed ~1e300 times.
            ("rwr(h=18446744073709551615)", "bad rwr params"),
            ("rwr-push(eps=1e-300)", "bad rwr-push params"),
            # Exited 0 and printed no signatures.
            ("rwr(c=nan)", "bad rwr params"),
            ("rwr-push(c=nan,eps=inf)", "bad rwr-push params"),
            # The second value silently won.
            ("rwr(c=0.1,c=0.5)", "bad rwr params"),
        )
        for command in COMMANDS:
            for spec, fragment in cases:
                with self.subTest(command=command, spec=spec):
                    self.expect_flag_error(command, "--scheme", spec,
                                           fragment)

    def expect_usage_error(self, argv, message):
        proc = subprocess.run([COMMSIG, *argv], capture_output=True,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 2, f"{argv}: {proc.stderr}")
        self.assertIn(message, proc.stderr)
        self.assertIn("usage: commsig", proc.stderr)
        self.assertNotIn("trace_load_failed", proc.stderr)
        self.assertNotIn("io_retry", proc.stderr)

    def test_malformed_argv_fails_before_io(self):
        with tempfile.TemporaryDirectory() as tmp:
            missing = os.path.join(tmp, "no_such_trace.csv")
            cases = (
                # A last flag without its value used to be dropped.
                (["--trace", missing, "--k"], "missing value for --k"),
                # A stray token used to be dropped at the end of argv.
                (["--trace", missing, "extra"],
                 "unexpected argument 'extra'"),
                (["extra", "--trace", missing],
                 "unexpected argument 'extra'"),
                # Typos used to be ignored: the run went on at defaults.
                (["--kk", "3", "--tread", "4", "--trace", missing],
                 "unknown flag --kk"),
                (["--trace", missing, "--parse-worker", "4"],
                 "unknown flag --parse-worker"),
            )
            for command in ALL_COMMANDS:
                for argv, message in cases:
                    with self.subTest(command=command, argv=argv):
                        self.expect_usage_error([command, *argv], message)

    def test_bad_ingest_flags_fail_before_io(self):
        cases = (
            # Values that used to abort with an uncaught bad_alloc.
            (("--ingest-queue", "99999999999"), "ingest-queue"),
            (("--io-chunk-kb", "99999999999999"), "io-chunk-kb"),
            # Used to be truncated to 1 worker by a narrowing cast.
            (("--parse-workers", "4294967297"), "parse-workers"),
            (("--parse-workers", "257"), "parse-workers"),
            # Used to be accepted unchecked at the default worker count.
            (("--backpressure", "bogus"), "backpressure"),
            # Inline runs have no queue to shed from.
            (("--backpressure", "shed"), "backpressure"),
            (("--parse-workers", "0", "--backpressure", "shed"),
             "backpressure"),
        )
        for command in ("signatures", "stream", "timeline"):
            for argv, flag in cases:
                with self.subTest(command=command, argv=argv):
                    proc = self.run_cli_raw(command, *argv)
                    self.assertEqual(proc.returncode, 2, proc.stderr)
                    self.assertIn(f"invalid value for --{flag}",
                                  proc.stderr)
                    self.assertNotIn("trace_load_failed", proc.stderr)
                    self.assertNotIn("io_retry", proc.stderr)

    def test_bad_k_fails_before_io(self):
        cases = (
            # Exited 0: empty signatures, or AUC 0.5 and persistence 1.0.
            "0",
            # Rejected only after the trace loaded (exit 1 on a missing one).
            "-1",
            "10001",
            "99999999999999999999",
            "3x",
        )
        for command in ALL_COMMANDS:
            for value in cases:
                with self.subTest(command=command, k=value):
                    proc = self.run_cli_raw(command, "--k", value)
                    self.assertEqual(proc.returncode, 2, proc.stderr)
                    self.assertIn("invalid value for --k", proc.stderr)
                    self.assertNotIn("trace_load_failed", proc.stderr)
                    self.assertNotIn("io_retry", proc.stderr)

    def test_good_k_reaches_the_loader(self):
        for value in ("1", "10000"):
            with self.subTest(k=value):
                rc, events = self.run_cli("signatures", "--k", value,
                                          "--retry-max-attempts", "1")
                self.assertEqual(rc, 1)
                self.assertIn("trace_load_failed",
                              [e["event"] for e in events])

    def test_good_ingest_flags_reach_the_loader(self):
        rc, events = self.run_cli("signatures", "--parse-workers", "256",
                                  "--io-chunk-kb", "1048576",
                                  "--ingest-queue", "4096",
                                  "--backpressure", "shed",
                                  "--retry-max-attempts", "1")
        self.assertEqual(rc, 1)
        self.assertIn("trace_load_failed", [e["event"] for e in events])

    def test_good_flags_reach_the_loader(self):
        rc, events = self.run_cli("selfmatch", "--dist", "jac",
                                  "--retry-max-attempts", "1")
        self.assertEqual(rc, 1)
        self.assertIn("trace_load_failed", [e["event"] for e in events])


def main() -> int:
    global COMMSIG
    if len(sys.argv) < 2 or not os.path.isfile(sys.argv[1]):
        print("usage: cli_flags_test.py <commsig-binary>", file=sys.stderr)
        return 2
    COMMSIG = sys.argv[1]
    unittest.main(argv=[sys.argv[0]] + sys.argv[2:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
