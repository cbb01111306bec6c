"""Inputs, command lists, seed-driven plans and pinned answers.

Every command runs the ``schemelab`` CLI on a scheme file built by
``schemelab construct`` during set-up.  All inputs are vertex-transitive, so
the pinned answer of a command does not depend on the ``--point`` the seed
picks for ``extend`` nor on the order of the commands within a pass.
"""

from __future__ import annotations

import json
import os
import random
from typing import NamedTuple

# name -> (construct arguments, degree)
INPUTS = {
    "k8": (["cyclotomic", "--p", "2", "--m", "3", "--k-order", "7"], 8),
    "passman5": (["passman", "--q", "5"], 25),
    "ag33": (["affine", "--dim", "3", "--q", "3"], 27),
    "ag43": (["affine", "--dim", "4", "--q", "3"], 81),
    "frob23": (["frobenius-example", "--q", "2", "--n", "3"], 64),
    "hollman16": (["hollman", "--q", "16"], 120),
    "c67k2": (["cyclotomic", "--p", "67", "--k-order", "2"], 67),
    "c151k3": (["cyclotomic", "--p", "151", "--k-order", "3"], 151),
    "c199k3": (["cyclotomic", "--p", "199", "--k-order", "3"], 199),
    "c307k102": (["cyclotomic", "--p", "307", "--k-order", "102"], 307),
    "c499k6": (["cyclotomic", "--p", "499", "--k-order", "6"], 499),
    "c499k3": (["cyclotomic", "--p", "499", "--k-order", "3"], 499),
}


class Spec(NamedTuple):
    """One command of a workload, before the seed picks its point."""
    id: str
    input: str
    verb: str
    extra: tuple


def _spec(cmd_id, extra=()):
    verb, name = cmd_id.split(".")[:2]
    return Spec(cmd_id, name, verb, tuple(extra))


# Why each workload and input is here: see README.md in this directory.
WORKLOADS = {
    "extend": [
        _spec("extend.c67k2", ["--method", "both"]),
        _spec("extend.ag43", ["--method", "both"]),
        _spec("extend.c151k3", ["--method", "both"]),
        _spec("extend.c199k3", ["--method", "both"]),
        _spec("extend.c307k102", ["--method", "closure"]),
        _spec("extend.frob23", ["--method", "closure"]),
        _spec("extend.hollman16", ["--method", "closure"]),
    ],
    "analyze": [_spec("analyze." + name) for name in (
        "k8", "passman5", "ag33", "ag43", "frob23", "hollman16", "c67k2",
        "c151k3", "c199k3", "c499k6")],
    "check": [
        _spec("check.k8.schurian", ["schurian"]),
        _spec("check.frob23.frobenius-aut", ["frobenius-aut"]),
        _spec("check.c67k2.frobenius-aut", ["frobenius-aut"]),
        _spec("check.c67k2.schurian", ["schurian"]),
        _spec("check.c67k2.separable", ["separable"]),
        _spec("check.frob23.separable", ["separable"]),
        _spec("check.ag33.t4", ["t-condition", "--t", "4"]),
        _spec("check.c67k2.t4", ["t-condition", "--t", "4"]),
        _spec("check.c499k6.design", ["design"]),
        _spec("check.hollman16.design", ["design"]),
        _spec("check.c151k3.t4", ["t-condition", "--t", "4"]),
    ],
    # Not in BENCHMARK.json: it fails at the parent commit (a known defect in
    # spectral._center_basis), and the benchmark's workloads must not fail.
    # Run it by hand to see the failure rule; move the command into
    # ``analyze`` once the defect is fixed.
    "defects": [_spec("analyze.c499k3")],
}

ALL_SPECS = [spec for specs in WORKLOADS.values() for spec in specs]

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


class Command(NamedTuple):
    """One concrete command: ``schemelab <verb> <input file> <args...>``."""
    id: str
    input: str
    verb: str
    args: tuple        # CLI arguments after the scheme file path
    point: int | None  # the --point of an extend command

    def argv(self, path):
        return [self.verb, path, *self.args]


def inputs_of(workload):
    """Input names the workload needs, in first-use order."""
    return list(dict.fromkeys(spec.input for spec in WORKLOADS[workload]))


def plan(workload, seed):
    """The workload's commands for this seed, in pass order.

    The seed picks each ``extend`` point and the command order; nothing else.
    """
    rng = random.Random(f"{workload}/{seed}")
    commands = []
    for spec in WORKLOADS[workload]:
        point = None
        args = spec.extra + ("--json",)
        if spec.verb == "extend":
            point = rng.randrange(INPUTS[spec.input][1])
            args += ("--point", str(point))
        commands.append(Command(spec.id, spec.input, spec.verb, args, point))
    rng.shuffle(commands)
    return commands


def load_pins(path=PINS_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def answer_matches(command, pin, stdout):
    """True when a zero-exit command printed its pinned ``--json`` answer.

    ``pin["json"]`` holds the exact integer, boolean and string fields;
    ``pin["below"]`` maps each float field to the bound it must stay under.
    A command pinned to a non-zero exit must print nothing on stdout.
    """
    if pin["exit"] != 0:
        return stdout.strip() == ""
    try:
        answer = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return False
    if not isinstance(answer, dict):
        return False
    for field, bound in pin.get("below", {}).items():
        value = answer.pop(field, None)
        if not isinstance(value, float) or not 0 <= value < bound:
            return False
    expected = dict(pin["json"])
    if command.point is not None:
        expected["point"] = command.point
    return answer == expected
