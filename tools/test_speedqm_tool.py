#!/usr/bin/env python3
"""CLI checks for speedqm_tool's flags (registered with ctest).

    python3 tools/test_speedqm_tool.py [path/to/speedqm_tool]

The binary defaults to build/speedqm_tool. Every numeric flag value of
serve and multitask must be an unsigned decimal in range: a sign, trailing
characters or an out-of-range value is a usage error (exit 64), never a
wrapped, truncated or defaulted run. A zero pool, shard count, horizon or
budget factor is rejected the same way, and so is any flag the subcommand
does not take or any enum value it does not offer. Each case runs under a timeout, so a regression to the old
wrap-around (--tasks -1 serving 2^64 - 1 tasks) fails instead of hanging.
"""
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(HERE), "build", "speedqm_tool")
TIMEOUT_S = 60
USAGE = 64


def run(*args):
    return subprocess.run([TOOL, *args], capture_output=True, text=True,
                          timeout=TIMEOUT_S)


class NumericFlags(unittest.TestCase):
    def assert_usage_error(self, flag, *args):
        r = run(*args)
        self.assertEqual(r.returncode, USAGE, r.stdout + r.stderr)
        self.assertIn("--" + flag, r.stderr)
        # Rejected before anything is served.
        self.assertNotIn("steps/s", r.stdout)

    def test_negative_value_is_rejected(self):
        self.assert_usage_error("tasks", "serve", "--tasks", "-1")
        self.assert_usage_error("tasks", "multitask", "--tasks", "-1")

    def test_trailing_characters_are_rejected(self):
        self.assert_usage_error("tasks", "serve", "--tasks", "12abc")
        self.assert_usage_error("cycles", "multitask", "--cycles", "4x")
        self.assert_usage_error("factor", "serve", "--factor", "1.1x")

    def test_non_numeric_value_is_a_usage_error(self):
        self.assert_usage_error("tasks", "serve", "--tasks", "abc")
        self.assert_usage_error("factor", "multitask", "--factor", "nan")

    def test_out_of_range_values_are_rejected(self):
        self.assert_usage_error("shards", "serve", "--shards",
                                "99999999999999999999999")
        self.assert_usage_error("watchdog-retries", "serve",
                                "--watchdog-retries", "4294967296")
        self.assert_usage_error("factor", "serve", "--factor", "1e999")

    def test_valid_values_still_serve(self):
        r = run("serve", "--tasks", "6", "--shards", "2", "--cycles", "4",
                "--factor", "1.2")
        self.assertIn(r.returncode, (0, 1, 2), r.stdout + r.stderr)
        self.assertIn("steps/s", r.stdout)


class RejectedRequests(unittest.TestCase):
    def assert_rejected(self, *args):
        r = run(*args)
        self.assertEqual(r.returncode, USAGE, r.stdout + r.stderr)
        self.assertIn("error:", r.stderr)
        self.assertNotIn("steps/s", r.stdout)
        return r

    def test_zero_sizes_are_usage_errors(self):
        # flag -> the spec field the library check names
        for flag, field in (("shards", "num_shards"), ("tasks", "num_tasks"),
                            ("cycles", "cycles"),
                            ("factor", "budget_factor")):
            with self.subTest(flag=flag):
                r = self.assert_rejected("serve", "--" + flag, "0")
                self.assertIn(field, r.stderr)
        # Scripted churn sizes its initial share from the pool before the
        # server is built; an empty pool must not reach that arithmetic.
        r = self.assert_rejected("serve", "--tasks", "0", "--arrivals", "4")
        self.assertIn("--tasks", r.stderr)

    def test_zero_multitask_horizon_is_a_usage_error(self):
        # The executor accepts a zero horizon; the tool must not report a
        # clean run of nothing.
        for extra in ((), ("--stream",)):
            with self.subTest(extra=extra):
                r = self.assert_rejected("multitask", "--cycles", "0", *extra)
                self.assertIn("--cycles", r.stderr)
                self.assertNotIn("over 0 actions", r.stdout)

    def test_retired_kernel_modes_are_rejected(self):
        # --kernel vector was folded into auto (the widest vector kernel).
        for command in ("multitask", "serve"):
            with self.subTest(command=command):
                r = self.assert_rejected(command, "--kernel", "vector")
                self.assertIn("auto|scalar)", r.stderr)

    def test_unknown_flags_are_named_and_rejected(self):
        for args in (("serve", "--async"), ("serve", "--bogus"),
                     ("multitask", "--bogus")):
            with self.subTest(args=args):
                r = self.assert_rejected(*args)
                self.assertIn(args[1], r.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        TOOL = sys.argv.pop(1)
    unittest.main()
