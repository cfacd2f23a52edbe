"""The four workloads: their seeded inputs and their fixed operation lists.

``make_inputs`` turns a workload name and seed into input files (name ->
JSON object); kcausal later receives only those files. ``operations`` lists
what one pass runs, in order. Every operation is either one ``kcausal`` CLI
invocation through ``kcausal.cli.main`` or one public API call, made in this
process by a single caller that waits for each call to return (a closed loop
with one client).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from perfbench.orders import bits, default_labels, reference_space

WORKLOADS = ("sparse-large", "dense-flow", "exhaustive", "verify-small")

BOX = [[0, 1], [-1, 1]]
SEED_SPAN = 2**64

# Sizes are chosen so that one pass of every workload takes 2-5 s on a 2-core
# VM: a 25 s run then holds at least five passes, and wall_s is their median.

# verify-small runs one trial of every suite for each harness seed
# 0..VERIFY_SEEDS-1, the fixed consecutive seeds tier-1 style runs use; the
# workload seed only shuffles the order of the calls. Trial costs are
# heavy-tailed (extension enumeration on 7-event spaces: median 1 ms, worst
# 0.8 s), so the total of a seed window that moved with the workload seed
# would spread by 12% at 480 seeds and 28% at 96.
VERIFY_SEEDS = 120


@dataclass
class Op:
    """One operation of a pass.

    ``call`` does the work and returns ``(exit_code, value)``; for CLI
    operations ``value`` is the captured standard output. ``outputs`` are the
    artifact files it writes. ``verdict`` is the verdict the inputs force,
    when they force one. ``known_defect`` names the exception a documented
    defect of the parent code raises on this operation. ``meta`` holds the
    CLI argv, the input names the gate needs, or the harness suite.
    """

    name: str
    call: Callable[[], tuple[int | None, object]]
    outputs: tuple[Path, ...] = ()
    kind: str = "api"
    verdict: str | None = None
    known_defect: str | None = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Inputs


def _sprinkle(n: int, rng: random.Random) -> dict:
    return {"kind": "sprinkle", "n": n, "dim": 2, "box": BOX, "seed": rng.randrange(SEED_SPAN)}


def _dag(n: int, p: str, rng: random.Random) -> dict:
    return {"kind": "random-dag", "n": n, "p": p, "seed": rng.randrange(SEED_SPAN)}


def _weights(labels, units, den: int) -> dict:
    return {"weights": {labels[i]: str(Fraction(u, den)) for i, u in enumerate(units) if u}}


def _atoms(rng: random.Random, n: int, atoms: int = 200, per_atom: int = 24) -> list[int]:
    # The acceptance-criterion-8 shape: 200 random atoms, 24 units each on average.
    units = [0] * n
    chosen = rng.sample(range(n), atoms)
    for i in chosen:
        units[i] = 1
    for _ in range(atoms * per_atom - atoms):
        units[chosen[rng.randrange(atoms)]] += 1
    return units


def _composition(rng: random.Random, n: int, total: int, floor: int = 0, allowed=None) -> list[int]:
    units = [floor] * n
    allowed = list(range(n)) if allowed is None else allowed
    for _ in range(total - floor * n):
        units[rng.choice(allowed)] += 1
    return units


def _push(rng: random.Random, closure_rows, units) -> list[int]:
    """Move every unit of mass to a random event of its closed future."""
    pushed = [0] * len(units)
    for i, u in enumerate(units):
        if u:
            targets = list(bits(closure_rows[i]))
            for _ in range(u):
                pushed[rng.choice(targets)] += 1
    return pushed


def make_inputs(workload: str, seed: int) -> dict[str, object]:
    """Input files of a workload, generated from its seed alone.

    Forward pushes move mass along the benchmark's own closure of each space
    (``orders.reference_space``), so the verdicts the inputs force do not rest
    on the code being measured.
    """
    from kcausal.harness import SUITES

    rng = random.Random(f"perfbench:{workload}:{seed}")
    files: dict[str, object] = {}
    if workload == "sparse-large":
        for name, spec in (
            ("s2000", _sprinkle(2000, rng)),
            ("s1000", _sprinkle(1000, rng)),
            ("d1000", _dag(1000, "1/100", rng)),
        ):
            labels = default_labels(spec["n"])
            files[f"{name}.json"] = spec
            files[f"{name}_mu.json"] = _weights(labels, _atoms(rng, spec["n"]), 4800)
            files[f"{name}_nu.json"] = _weights(labels, _atoms(rng, spec["n"]), 4800)
        files["sample.json"] = {"seed": rng.randrange(2**32)}
    elif workload == "dense-flow":
        for name, spec, pairs in (
            ("s600", _sprinkle(600, rng), ("push", "indep")),
            ("d600", _dag(600, "1/60", rng), ("push", "indep")),
            ("s1200", _sprinkle(1200, rng), ("push",)),
        ):
            n = spec["n"]
            labels, _, rows = reference_space(spec)
            mu = _composition(rng, n, 2 * n, floor=1)
            files[f"{name}.json"] = spec
            files[f"{name}_mu.json"] = _weights(labels, mu, 2 * n)
            files[f"{name}_push.json"] = _weights(labels, _push(rng, rows, mu), 2 * n)
            if "indep" in pairs:
                files[f"{name}_indep.json"] = _weights(labels, _composition(rng, n, 2 * n, floor=1), 2 * n)
    elif workload == "exhaustive":
        dag16 = _dag(16, "1/4", rng)
        labels, _, rows = reference_space(dag16)
        # Random-DAG edges point from lower to higher index, so e15 is maximal:
        # mass on it under mu and none under nu makes the pair infeasible.
        mu = _composition(rng, 16, 31)
        mu[15] += 1
        files["dag16.json"] = dag16
        files["dag16_mu.json"] = _weights(labels, mu, 32)
        files["dag16_push.json"] = _weights(labels, _push(rng, rows, mu), 32)
        files["dag16_indep.json"] = _weights(labels, _composition(rng, 16, 32, allowed=range(15)), 32)
        files["antichain7.json"] = {
            "events": [f"t{i}" for i in range(7)],
            "relation": {"kind": "explicit", "pairs": []},
        }
        files["dag8.json"] = _dag(8, "1/10", rng)
        # condition4 scans every linear extension, and p = 0.1 DAGs on 8 events
        # have anywhere from 288 to 40320 of them (quartiles 3108 / 6720 /
        # 10080 over 60 seeds), which alone moved a pass by up to 50%. Three
        # disjoint random 2-chains plus two free events always have 8!/8 = 5040.
        labels8 = default_labels(8)
        perm = rng.sample(range(8), 8)
        pairs8 = [[labels8[perm[k]], labels8[perm[k + 1]]] for k in (0, 2, 4)]
        files["pairs8.json"] = {"events": list(labels8), "relation": {"kind": "explicit", "pairs": pairs8}}
        _, _, rows8 = reference_space(files["pairs8.json"])
        mu8 = _composition(rng, 8, 16)
        files["pairs8_mu.json"] = _weights(labels8, mu8, 16)
        files["pairs8_push.json"] = _weights(labels8, _push(rng, rows8, mu8), 16)
    elif workload == "verify-small":
        calls = [[suite, k] for k in range(VERIFY_SEEDS) for suite in SUITES]
        rng.shuffle(calls)
        files["trials.json"] = {"calls": calls}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


def render(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# Operations


def _cli_op(name: str, argv: list[str], outputs=(), verdict=None) -> Op:
    def call():
        from kcausal import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    return Op(name, call, tuple(Path(p) for p in outputs), kind="cli", verdict=verdict, meta={"argv": argv})


def _load(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _space(path: Path):
    import kcausal.structure as structure

    return structure.space_from_jsonable(_load(path))


def _pair(space_path: Path, mu_path: Path, nu_path: Path):
    import kcausal.measures as measures

    space = _space(space_path)
    mu = measures.measure_from_jsonable(_load(mu_path), space.events)
    nu = measures.measure_from_jsonable(_load(nu_path), space.events)
    return space, mu, nu


def operations(workload: str, inp: Path, out: Path) -> list[Op]:
    """The fixed operation list of one pass; artifacts are written under ``out``."""
    import kcausal.harness as harness
    import kcausal.timefunctions as timefunctions
    import kcausal.transport as transport

    def f(name: str) -> str:
        return str(inp / name)

    ops: list[Op] = []
    if workload == "sparse-large":
        for name in ("s2000", "s1000", "d1000"):
            cert = out / f"{name}_cert.json"
            ops.append(
                _cli_op(
                    f"check {name}",
                    ["check", f(f"{name}.json"), f(f"{name}_mu.json"), f(f"{name}_nu.json"),
                     "--certificate", str(cert)],
                    outputs=(cert,),
                )
            )
            ops[-1].meta.update(space=name, mu=f"{name}_mu", nu=f"{name}_nu")
        closure = out / "d1000_closure.json"
        ops.append(_cli_op("closure d1000", ["closure", f("d1000.json"), "--out", str(closure)], (closure,)))
        sample = out / "d1000_timefn.jsonl"
        sample_seed = str(_load(inp / "sample.json")["seed"])
        ops.append(
            _cli_op(
                "timefn --sample d1000",
                ["timefn", f("d1000.json"), "--sample", "1", "--seed", sample_seed, "--out", str(sample)],
                (sample,),
            )
        )

        def rank():
            t = timefunctions.rank_time_function(_space(inp / "d1000.json"))
            return None, [str(v) for v in t.values]

        # ROADMAP 4(a): the recursive first-extension search exceeds Python's
        # recursion limit on this 1000-event DAG at the parent commit.
        ops.append(Op("rank_time_function d1000", rank, known_defect="RecursionError"))
    elif workload == "dense-flow":
        for name, nu in (("s600", "push"), ("s600", "indep"), ("d600", "push"), ("d600", "indep"),
                         ("s1200", "push")):
            witness, cert = out / f"{name}_{nu}_witness.json", out / f"{name}_{nu}_cert.json"
            ops.append(
                _cli_op(
                    f"check {name} {nu}",
                    ["check", f(f"{name}.json"), f(f"{name}_mu.json"), f(f"{name}_{nu}.json"),
                     "--witness", str(witness), "--certificate", str(cert)],
                    outputs=(witness, cert),
                    verdict="feasible" if nu == "push" else None,
                )
            )
            ops[-1].meta.update(space=name, mu=f"{name}_mu", nu=f"{name}_{nu}")
    elif workload == "exhaustive":
        for nu in ("push", "indep"):
            verdict = "feasible" if nu == "push" else "infeasible"
            ops.append(
                _cli_op(
                    f"check --oracle dag16 {nu}",
                    ["check", f("dag16.json"), f("dag16_mu.json"), f(f"dag16_{nu}.json"), "--oracle"],
                    verdict=verdict,
                )
            )
            for check in ("condition2_check", "condition3_check"):
                ops.append(_api_check(f"{check} dag16 {nu}", transport, check, inp, "dag16", nu, verdict))
            ops.append(
                _api_check(f"condition5_check dag16 {nu}", timefunctions, "condition5_check", inp, "dag16", nu,
                           verdict)
            )
        upsets = out / "dag16_upsets.json"
        ops.append(_cli_op("upsets dag16", ["upsets", f("dag16.json"), "--out", str(upsets)], (upsets,)))
        extensions = out / "antichain7_timefns.jsonl"
        ops.append(
            _cli_op("timefn --enumerate antichain7",
                    ["timefn", f("antichain7.json"), "--enumerate", "--out", str(extensions)], (extensions,))
        )
        ops.append(
            _api_check("condition4_check pairs8 push", timefunctions, "condition4_check", inp, "pairs8", "push",
                       "feasible")
        )

        def minguzzi():
            space = _space(inp / "dag8.json")
            return None, timefunctions.minguzzi_check(space, "e0", "e7")

        ops.append(Op("minguzzi_check dag8 e0 e7", minguzzi))
    elif workload == "verify-small":
        for suite, seed in _load(inp / "trials.json")["calls"]:
            ops.append(_trial_op(harness, suite, seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _api_check(name, module, func_name, inp: Path, space: str, nu: str, verdict: str) -> Op:
    def call():
        return None, getattr(module, func_name)(*_pair(inp / f"{space}.json", inp / f"{space}_mu.json",
                                                       inp / f"{space}_{nu}.json"))

    return Op(name, call, verdict=verdict)


def _trial_op(harness, suite: str, seed: int) -> Op:
    def call():
        report = harness.run_suite(harness.TrialConfig(suites=(suite,), trials=1, seed=seed))
        return None, report

    return Op(f"{suite} seed {seed}", call, kind="trial", meta={"suite": suite})
