"""End-to-end benchmark of the ``schemelab`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extend --seed 1 --seconds 25 --trace 0

A closed loop with one client: each command runs in a fresh child process,
one at a time, under 60 s of wall time and a 4 GiB address space.  Set-up
constructs the workload's scheme files with ``schemelab construct`` (several
times, for a steady ``setup_s``); then whole passes over the workload's
command list run until ``--seconds`` is spent.  Every answer is checked
against ``pins.json``.

With ``--trace 1`` the run also constructs the files and makes one pass under
``traced_cli.py``, which records spans at the module boundaries, and prints
the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
record the environment and the spread of the pass times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import children
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3

END_TO_END = {
    "pass_s": "s",
    "cmd_geomean_s": "s",
    "peak_rss_mb": "MB",
    "rss_geomean_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

# Layer metrics of the traced run: totals over one traced set-up and one
# traced pass.  README.md says which end-to-end metric each should move.
LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.load_scheme.self_s": "s",
    "cli.load_scheme.bytes": "bytes",
    "cli.write_scheme.self_s": "s",
    "constructors.self_s": "s",
    "cc_core.self_s": "s",
    "cc_core.validate_config.self_s": "s",
    "cc_core.validate_config.calls": "count",
    "cc_core.validate_config.cells": "count",
    "cc_core.validate_config.rank": "count",
    "cc_core.canonicalize_colors.calls": "count",
    "extension.self_s": "s",
    "extension.coherent_closure.self_s": "s",
    "extension.coherent_closure.rank": "count",
    "extension.explicit_extension.self_s": "s",
    "extension.explicit_extension.rank": "count",
    "spectral.self_s": "s",
    "spectral.decompose.self_s": "s",
    "spectral.decompose.blocks": "count",
    "spectral.verify_afm_identity.self_s": "s",
    "permgroup.self_s": "s",
    "permgroup.search_color_isomorphisms.self_s": "s",
    "permgroup.search_color_isomorphisms.found": "count",
    "permgroup.orbital_scheme.self_s": "s",
    "permgroup.is_frobenius.self_s": "s",
    "analysis.self_s": "s",
    "analysis.algebraic_isomorphisms.self_s": "s",
    "analysis.algebraic_isomorphisms.found": "count",
    "analysis.t_condition.self_s": "s",
    "analysis.design_from_scheme.self_s": "s",
}


def per_layer_units():
    """Every per-layer metric a traced run prints, with its unit.

    ``cmd.<id>.*`` are the untraced per-command medians; they read 0 for a
    command that is not part of the workload.
    """
    units = dict(LAYER_UNITS)
    for spec in workloads.ALL_SPECS:
        units[f"cmd.{spec.id}.wall_s"] = "s"
        units[f"cmd.{spec.id}.rss_mb"] = "MB"
    units["trace.overhead_frac"] = "ratio"
    return units


class Outcome(NamedTuple):
    """One command as the metrics count it: failures carry charged values."""
    cmd: str
    wall_s: float
    rss_mb: float
    failure: str | None


class SetupFailed(Exception):
    pass


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail_percentile(samples):
    """(p, value) for the highest percentile with at least ten samples above
    it, or None when there are fewer than eleven samples."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    index = len(ordered) - 11
    return math.floor(100 * (index + 1) / len(ordered)), ordered[index]


def end_to_end(passes, setup_totals):
    """The six end-to-end metrics from the passes' outcomes."""
    by_cmd = {}
    for outcomes in passes:
        for o in outcomes:
            by_cmd.setdefault(o.cmd, []).append(o)
    attempted = sum(len(outcomes) for outcomes in passes)
    failed = sum(o.failure is not None for outcomes in passes for o in outcomes)
    return {
        "pass_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
        "cmd_geomean_s": geomean(statistics.median(o.wall_s for o in runs)
                                 for runs in by_cmd.values()),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
        "rss_geomean_mb": geomean(statistics.median(o.rss_mb for o in runs)
                                  for runs in by_cmd.values()),
        "setup_s": statistics.median(setup_totals),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_command(passes):
    """cmd.<id>.wall_s and .rss_mb: medians over the passes."""
    out = {}
    for spec in workloads.ALL_SPECS:
        runs = [o for p in passes for o in p if o.cmd == spec.id]
        out[f"cmd.{spec.id}.wall_s"] = statistics.median(o.wall_s for o in runs) if runs else 0.0
        out[f"cmd.{spec.id}.rss_mb"] = statistics.median(o.rss_mb for o in runs) if runs else 0.0
    return out


def source_digest():
    """sha256 over the files under src/, so a checkout without git history
    still names the code it measured."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def commit_hash():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=False)
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() or None


class Bench:
    """One run of one workload in one checkout."""

    def __init__(self, workload, seed, pins):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.work = os.path.join(WORK, workload)
        os.makedirs(self.work, exist_ok=True)
        self.spans_file = os.path.join(self.work, "spans.json")
        self.env = dict(os.environ)
        self.env.pop("SCHEMELAB_SEED", None)  # the pinned spectra use the default seed
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def environment(self):
        probe = children.run_child([os.path.join(HERE, "env_probe.py")], self.env, self.work)
        if probe.code != 0:
            raise SetupFailed(f"environment probe failed: {probe.stderr.strip()}")
        page = os.sysconf("SC_PAGE_SIZE")
        return {
            "python": platform.python_version(),
            **json.loads(probe.stdout),
            "nproc": len(os.sched_getaffinity(0)),
            "mem_total_mb": round(page * os.sysconf("SC_PHYS_PAGES") / 2**20),
            "commit": commit_hash(),
            "src_sha256": source_digest(),
            "workload": self.workload,
            "seed": self.seed,
        }

    def path(self, name):
        return os.path.join(self.work, name + ".json")

    def _cli_argv(self, cli_args, trace_id=None):
        if trace_id is None:
            return [*children.CLI_ENTRY, *cli_args]
        return [os.path.join(HERE, "traced_cli.py"), self.spans_file, trace_id, *cli_args]

    def _read_spans(self):
        try:
            with open(self.spans_file, encoding="utf-8") as handle:
                return spans.from_child(json.load(handle))
        except FileNotFoundError:  # the child died before its finally block
            return []
        finally:
            if os.path.exists(self.spans_file):
                os.remove(self.spans_file)

    def construct(self, name, trace=False):
        """Build one input file; returns the finished child and its spans."""
        cmd_id = "construct." + name
        args = ["construct", *workloads.INPUTS[name][0], "-o", self.path(name)]
        run = children.run_child(self._cli_argv(args, cmd_id if trace else None),
                                 self.env, self.work)
        if run.code != 0:
            raise SetupFailed(f"{cmd_id} exited {run.code}: {run.stderr.strip()[-400:]}")
        with open(self.path(name), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if digest != self.pins["files"][name]:
            raise SetupFailed(f"{cmd_id} wrote a file that differs from its pin")
        return run, (self._read_spans() if trace else [])

    def setup(self):
        """Construct every input SETUP_REPEATS times; total seconds per round."""
        names = workloads.inputs_of(self.workload)
        return [sum(self.construct(name)[0].wall_s for name in names)
                for _ in range(SETUP_REPEATS)]

    def command(self, command, trace=False):
        """Run one workload command; returns its Outcome and its spans."""
        pin = self.pins["answers"][command.id]
        cli_args = command.argv(self.path(command.input))
        run = children.run_child(self._cli_argv(cli_args, command.id if trace else None),
                                 self.env, self.work)
        failure = children.failure_kind(
            run, pin["exit"], lambda out: workloads.answer_matches(command, pin, out))
        wall, rss = children.charged(run, failure)
        return Outcome(command.id, wall, rss, failure), run, (self._read_spans() if trace else [])

    def passes(self, commands, seconds):
        """Whole passes until the next one would end after ``seconds``."""
        done = []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            done.append([self.command(c)[0] for c in commands])
            now = time.perf_counter()
            if now - start + (now - begun) > seconds:
                return done

    def traced(self, commands):
        """One traced set-up and one traced pass.

        Returns (layer totals, traced pass wall time, outcomes, children
        whose self times did not add up to their wall time, per-child
        breakdown of wall time by function).
        """
        totals, mismatched, outcomes, breakdown = {}, [], [], {}
        traced_runs = [self.construct(name, trace=True)
                       for name in workloads.inputs_of(self.workload)]
        for command in commands:
            outcome, run, child_spans = self.command(command, trace=True)
            outcomes.append(outcome)
            traced_runs.append((run, child_spans))
        for run, child_spans in traced_runs:
            cmd_id = child_spans[0].cmd if child_spans else "?"
            child = spans.command_totals(child_spans, run.wall_s)
            if not spans.adds_up(child, run.wall_s):
                mismatched.append(cmd_id)
            for key, value in child.items():
                totals[key] = totals.get(key, 0) + value
            breakdown[cmd_id] = {
                "wall_s": round(run.wall_s, 4),
                "cli.startup_s": round(child["cli.startup_s"], 4),
                **{name: round(t, 4) for name, t in spans.inclusive_s(child_spans).items()
                   if t >= 0.005}}
        return totals, sum(o.wall_s for o in outcomes), outcomes, mismatched, breakdown


def report_line(label, value):
    print(f"{label}: {json.dumps(value, sort_keys=True)}")


def run(args):
    bench = Bench(args.workload, args.seed, workloads.load_pins())
    report_line("environment", bench.environment())
    commands = workloads.plan(args.workload, args.seed)
    report_line("plan", [" ".join([c.id, *c.args]) for c in commands])

    mismatched, traced_passes = [], []
    if args.trace:
        totals, traced_wall, traced, mismatched, breakdown = bench.traced(commands)
        report_line("traced children, inclusive seconds by function", breakdown)
        if mismatched:
            report_line("self times do not add up to wall time", mismatched)
        traced_passes = [traced]
    else:
        setup_totals = bench.setup()
        report_line("setup_s rounds", setup_totals)
    passes = bench.passes(commands, args.seconds)
    pass_times = [sum(o.wall_s for o in p) for p in passes]
    report_line("pass_s", {"median": statistics.median(pass_times),
                           "tail_percentile": tail_percentile(pass_times),
                           "samples": len(pass_times)})
    if args.trace:
        values = {name: totals.get(name, 0) for name in LAYER_UNITS}
        values.update(per_command(passes))
        values["trace.overhead_frac"] = traced_wall / statistics.median(pass_times) - 1
        units = per_layer_units()
    else:
        values = end_to_end(passes, setup_totals)
        units = END_TO_END

    checked = passes + traced_passes
    failures = [(o.cmd, o.failure) for p in checked for o in p if o.failure]
    if failures:
        report_line("failed commands", failures)
    attempted = sum(len(p) for p in checked)
    wrong = [f for f in failures if f[1] in ("answer", "exit")]
    print(json.dumps({
        "correct": not wrong and not mismatched,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schemelab", "cli.py")):
        print(f"no schemelab source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        return run(args)
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
