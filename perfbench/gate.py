"""Correctness gate: decides whether each operation's outcome is right.

``immediate`` runs after every operation and is cheap: exit code against
verdict, forced verdicts, harness reports. ``Gate.semantic`` runs once per run
on the artifacts of the first pass, after timing and after peak memory is
read: each space kcausal builds against the benchmark's own construction from
the spec (cone test or random-DAG draw, then closure), witnesses through
``verify_coupling``, violator masses recomputed from the benchmark's closure,
closure / up-set / time-function artifacts against the benchmark's own
computations. Later passes must reproduce the first pass's artifacts byte for
byte. Each check returns ``None`` or a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from perfbench.orders import bits, reference_space

VERDICT_CODES = {"feasible": 0, "infeasible": 1}


def immediate(op, code, value) -> str | None:
    if op.kind == "trial":
        return None if value.ok else "suite report not ok"
    if op.kind == "cli":
        if op.meta["argv"][0] == "check":
            verdict = value.strip().splitlines()[-1] if value.strip() else ""
            if verdict not in VERDICT_CODES:
                return f"no verdict printed (exit {code})"
            if code != VERDICT_CODES[verdict]:
                return f"exit code {code} does not match verdict {verdict}"
            if op.verdict is not None and verdict != op.verdict:
                return f"verdict {verdict}, inputs force {op.verdict}"
            return None
        return None if code == 0 else f"exit code {code}"
    if op.verdict is not None and value is not (op.verdict == "feasible"):
        return f"returned {value!r}, inputs force {op.verdict}"
    return None


def check_violator(closure_rows, labels, mu: dict, nu: dict, cert: dict) -> str | None:
    """Recompute mu(B) and nu(K+(B)) for a stated violator ``B``."""
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        members = [index[lab] for lab in cert["violator"]]
        stated_mu, stated_nu = Fraction(cert["mu_B"]), Fraction(cert["nu_KplusB"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed certificate: {exc!r}"
    future = 0
    for i in members:
        future |= closure_rows[i]
    mu_b = sum((Fraction(mu.get(labels[i], 0)) for i in members), Fraction(0))
    nu_kb = sum((Fraction(nu.get(labels[j], 0)) for j in bits(future)), Fraction(0))
    if (mu_b, nu_kb) != (stated_mu, stated_nu):
        return f"stated masses {stated_mu}, {stated_nu} differ from recomputed {mu_b}, {nu_kb}"
    if not mu_b > nu_kb:
        return f"violator does not violate: mu(B)={mu_b} <= nu(K+(B))={nu_kb}"
    return None


def check_witness(kc, space, pairs_obj, mu_obj: dict, nu_obj: dict) -> str | None:
    """Witness coupling must parse and pass ``verify_coupling``."""
    try:
        omega = kc.transport.coupling_from_jsonable(pairs_obj, space.events)
    except kc.errors.InputError as exc:
        return f"witness rejected: {exc}"
    mu = kc.measures.measure_from_jsonable(mu_obj, space.events)
    nu = kc.measures.measure_from_jsonable(nu_obj, space.events)
    if not kc.transport.verify_coupling(space, omega, mu, nu):
        return "witness fails verify_coupling"
    return None


def upsets_of(closure_rows) -> set[frozenset[int]]:
    """All future-closed subsets, built event by event in reverse topological order."""
    n = len(closure_rows)
    order = sorted(range(n), key=lambda i: bin(closure_rows[i]).count("1"))
    found = [0]
    for i in order:
        strict = closure_rows[i] & ~(1 << i)
        found += [m | 1 << i for m in found if strict & ~m == 0]
    return {frozenset(bits(m)) for m in found}


class Gate:
    """Semantic checks of one workload's first-pass artifacts."""

    def __init__(self, kc, inputs: Path):
        self.kc = kc
        self.inputs = inputs
        self._spaces: dict[str, tuple] = {}

    def load(self, name: str):
        with open(self.inputs / f"{name}.json", encoding="utf-8") as handle:
            return json.load(handle)

    def space(self, name: str):
        """kcausal's space for an input, plus the closure the benchmark builds from the spec.

        Raises ``ValueError`` when kcausal's labels, raw relation or closure
        differ from the reference; every operation on the space then fails.
        """
        if name not in self._spaces:
            spec = self.load(name)
            space = self.kc.structure.space_from_jsonable(spec)
            labels, raw, closure = reference_space(spec)
            if list(space.events.labels) != labels:
                raise ValueError(f"kcausal labels the events of {name} differently")
            for what, got, want in (("raw relation", space.raw.rows, raw), ("closure", space.kplus.rows, closure)):
                wrong = sum(a != b for a, b in zip(got, want))
                if wrong:
                    raise ValueError(f"kcausal's {what} of {name} differs from the reference in {wrong} rows")
            self._spaces[name] = (space, closure)
        return self._spaces[name]

    def semantic(self, op, value, saved: dict[Path, Path]) -> str | None:
        name = op.name
        if name.startswith("check ") and op.outputs:
            return self._check(op, value, saved)
        if name == "closure d1000":
            return self._closure(saved[op.outputs[0]])
        if name == "timefn --sample d1000":
            lines = saved[op.outputs[0]].read_text(encoding="utf-8").splitlines()
            if len(lines) != 1:
                return f"{len(lines)} time functions, expected 1"
            return self._monotone("d1000", json.loads(lines[0])["values"])
        if name == "rank_time_function d1000":
            space, _ = self.space("d1000")
            ranks = dict(zip(space.events.labels, value))
            if sorted(Fraction(v) for v in value) != list(range(space.n)):
                return "ranks are not 0..n-1"
            return self._monotone("d1000", ranks)
        if name == "upsets dag16":
            return self._upsets(saved[op.outputs[0]])
        if name == "timefn --enumerate antichain7":
            return self._antichain(saved[op.outputs[0]])
        if name.startswith("minguzzi_check"):
            space, closure = self.space("dag8")
            expected = bool(closure[space.events.index["e0"]] >> space.events.index["e7"] & 1)
            return None if value is expected else f"returned {value!r}, closure says {expected}"
        return None

    def _check(self, op, value, saved) -> str | None:
        verdict = value.strip().splitlines()[-1]
        cert_path = next(p for p in op.outputs if p.name.endswith("_cert.json"))
        cert = json.loads(saved[cert_path].read_text(encoding="utf-8"))
        if cert.get("verdict") != verdict:
            return f"certificate verdict {cert.get('verdict')!r}, printed {verdict!r}"
        space, closure = self.space(op.meta["space"])
        mu, nu = self.load(op.meta["mu"]), self.load(op.meta["nu"])
        if verdict == "infeasible":
            return check_violator(closure, space.events.labels, mu["weights"], nu["weights"], cert)
        witness_path = next((p for p in op.outputs if p.name.endswith("_witness.json")), None)
        if witness_path is not None:
            if json.loads(saved[witness_path].read_text(encoding="utf-8")) != cert["witness"]:
                return "witness file differs from the certificate's witness"
        return check_witness(self.kc, space, cert["witness"], mu, nu)

    def _closure(self, path: Path) -> str | None:
        space, closure = self.space("d1000")
        emitted = json.loads(path.read_text(encoding="utf-8"))
        labels = space.events.labels
        if emitted["events"] != list(labels):
            return "closure lists different events"
        got = {(a, b) for a, b in emitted["relation"]["pairs"]}
        want = {(labels[i], labels[j]) for i, row in enumerate(closure) for j in bits(row)}
        if got != want:
            return f"closure has {len(got)} pairs, {len(got ^ want)} differ from the reference"
        return None

    def _monotone(self, name: str, values: dict) -> str | None:
        space, _ = self.space(name)
        labels = space.events.labels
        try:
            vals = [Fraction(values[lab]) for lab in labels]
        except KeyError as exc:
            return f"no value for {exc}"
        for i, row in enumerate(space.raw.rows):
            for j in bits(row):
                if j != i and not vals[i] < vals[j]:
                    return f"not strictly increasing on {labels[i]} -> {labels[j]}"
        return None

    def _upsets(self, path: Path) -> str | None:
        space, closure = self.space("dag16")
        listed = json.loads(path.read_text(encoding="utf-8"))["upsets"]
        if listed != sorted(listed, key=lambda s: (len(s), s)):
            return "up-sets are not sorted"
        index = space.events.index
        got = {frozenset(index[lab] for lab in s) for s in listed}
        want = upsets_of(closure)
        if len(listed) != len(got) or got != want:
            return f"{len(listed)} up-sets listed, reference has {len(want)}"
        return None

    def _antichain(self, path: Path) -> str | None:
        lines = path.read_text(encoding="utf-8").splitlines()
        orders = {tuple(json.loads(line)["values"][f"t{i}"] for i in range(7)) for line in lines}
        perms = all(sorted(int(v) for v in order) == list(range(7)) for order in orders)
        if len(lines) != 5040 or len(orders) != 5040 or not perms:
            return f"{len(lines)} lines, {len(orders)} distinct; expected all 7! rank orders"
        return None
