"""The four benchmark workloads: seeded inputs, the calls, and their checks.

A workload is a list of tasks built from a seed. One pass runs every task in
order in a closed loop (the next call starts when the previous one returns).
Each task has a ``call`` that goes through the qlucas module attributes at
call time, so the traced run sees it, and a ``check`` that the runner applies
after the pass, outside the timed span. A check compares only mathematical
fields (checked, ok, failures, coefficients, Landau verdicts, relation terms)
against an independent route or a value recorded at the seed commit, and
returns how many checks the task verified: a report's ``checked`` for a call
that returns a report, one for any other call. It raises ``Mismatch`` for a
wrong result and ``ContractBreach`` for a call whose exit code breaks the
documented CLI contract (0 success, 1 negative verdict, 2 configuration
error).

Why these workloads:

- ``sweep``: the Lucas-congruence traffic of the paper. Bound by
  ``qcombinatorics`` (``q_ratio_mod`` on both degree branches and the
  cyclotomic exponents), the q = 1 route and ``reduce_mod_cyclotomic``;
  almost no large-operand multiplication.
- ``apery``: products of Gaussian binomials make it the one workload bound by
  ``intpoly`` Kronecker multiplication and the (1 - q^k) kernels; it barely
  touches ``landau``.
- ``decide``: bound by ``landau`` Fourier-Motzkin elimination, ``relations``
  Bareiss elimination and ``series``; it does almost no ``intpoly`` work, so
  it is the no-change control for kernel changes.
- ``query``: in-process CLI calls with JSON output, the interactive user. The
  only workload where ``cli`` does real work. It includes non-integral points
  on all three ``qratio`` paths, so the known exit-code defect of
  ``qratio --mod`` on such points stays visible as failed calls.

Where the seed would change how much work a pass does, the workload pins the
sizes and lets the seed pick among inputs of like cost, so that runs with
different seeds measure comparable work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from qlucas import catalog, cli, congruence, landau, relations, series
from qlucas.intpoly import reduce_mod_cyclotomic
from qlucas.qcombinatorics import NegativeExponent, RatioSpec, q_ratio_cyclotomic

LANDAU_REFS = Path(__file__).resolve().parent / "landau_refs.json"


class Mismatch(Exception):
    """A mathematical result disagrees with its reference."""


class ContractBreach(Exception):
    """A CLI call ended with an exit code the documented contract forbids."""


@dataclass
class Task:
    """One public call of a pass and the check of its result.

    ``call`` receives the pass's store, a dict through which a task hands its
    result to later tasks (a series built once and then specialized).
    """

    label: str
    call: Callable[[dict], object]
    check: Callable[[object], int]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- input generation ------------------------------------------------------------


def random_balanced_spec(rng: Random, dim: int, hi: int) -> RatioSpec:
    """A balanced spec drawn as the acceptance suite's criterion 4 draws them.

    One or two numerator and denominator vectors with entries 0..hi, then
    unit vectors appended so that the column sums agree.
    """
    while True:
        e = [tuple(rng.randint(0, hi) for _ in range(dim)) for _ in range(rng.randint(1, 2))]
        f = [tuple(rng.randint(0, hi) for _ in range(dim)) for _ in range(rng.randint(1, 2))]
        e = [v for v in e if any(v)]
        f = [v for v in f if any(v)]
        for j in range(dim):
            gap = sum(v[j] for v in e) - sum(v[j] for v in f)
            unit = tuple(1 if i == j else 0 for i in range(dim))
            if gap > 0:
                f.extend([unit] * gap)
            elif gap < 0:
                e.extend([unit] * (-gap))
        if e and f:
            return RatioSpec(dim, tuple(e), tuple(f))


def _expect_count(cond: bool, what: str) -> int:
    _expect(cond, what)
    return 1


def _strata(rng: Random, lo: int, hi: int, k: int) -> list[int]:
    """k draws from lo..hi, one from each of k equal slices, in random order."""
    width = (hi - lo + 1) / k
    out = [lo + int(width * (i + rng.random())) for i in range(k)]
    rng.shuffle(out)
    return out


def _primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


# -- independent references -------------------------------------------------------

# References are memoized across passes: every pass repeats the same inputs.
_ratio_refs: dict = {}


def _ratio_ref(spec: RatioSpec, n: tuple[int, ...]):
    """The ratio by the cyclotomic product route, or None if not a polynomial."""
    key = (spec, n)
    if key not in _ratio_refs:
        try:
            _ratio_refs[key] = q_ratio_cyclotomic(spec, n)
        except NegativeExponent:
            _ratio_refs[key] = None
    return _ratio_refs[key]


def _residue_ref(spec: RatioSpec, n: tuple[int, ...], b: int) -> list[str]:
    return reduce_mod_cyclotomic(_ratio_ref(spec, n), b).to_strings()


def _at_one_ref(spec: RatioSpec, n: tuple[int, ...]) -> Fraction:
    fact = lambda t: math.factorial(sum(a * c for a, c in zip(t, n)))
    return Fraction(math.prod(map(fact, spec.e)), math.prod(map(fact, spec.f)))


def _cyclotomic_ref(b: int) -> list[str]:
    """Phi_b as prod over d | b of (1 - q^d)^mu(b/d), in plain integer lists."""
    if b == 1:
        return ["-1", "1"]

    def mobius(m: int) -> int:
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out

    coeffs = [1]
    divisors = [d for d in range(1, b + 1) if b % d == 0]
    for d in divisors:
        if mobius(b // d) == 1:
            coeffs = coeffs + [0] * d
            for j in range(len(coeffs) - 1, d - 1, -1):
                coeffs[j] -= coeffs[j - d]
    for d in divisors:
        if mobius(b // d) == -1:
            for j in range(d, len(coeffs)):
                coeffs[j] += coeffs[j - d]
            del coeffs[len(coeffs) - d :]
    return [str(c) for c in coeffs]


def _check_report(expected_checked: int) -> Callable[[object], int]:
    """Check of a congruence-type report: the counted checks, all of them holding."""

    def check(report) -> int:
        _expect(report.checked == expected_checked, f"checked {report.checked} != {expected_checked}")
        _expect(report.ok is True and not report.failures, "unexpected congruence failures")
        return report.checked

    return check


# -- sweep ---------------------------------------------------------------------


def _sweep(seed: int, smoke: bool) -> list[Task]:
    rng = Random(seed)
    central = {r: catalog.central_binomial_spec(r) for r in (1, 2, 3)}
    apery = catalog.apery_spec()
    # Random specs as criterion 4 draws them (entries at most 2) for which both
    # step-function hypotheses hold, taken from the decide pool, whose recorded
    # verdicts spare the set-up a Landau decision per draw: drawing afresh
    # until one holds made the set-up time vary threefold with the seed. The
    # dimension is fixed per slot so each seed does like work.
    eligible = [
        e for e in load_landau_pool()
        if e["integrality"] and e["criterion_D"] and max(max(v) for v in e["e"] + e["f"]) <= 2
    ]
    randoms = []
    for dim in (1, 2):
        candidates = [_pool_spec(e) for e in eligible if e["dim"] == dim]
        randoms += rng.sample(candidates, 1 if smoke else 4)

    tasks: list[Task] = []

    def ratio(spec, b_max, n_box):
        d = spec.dim
        expected = sum(b**d for b in range(1, b_max + 1)) * math.prod(c + 1 for c in n_box)
        tasks.append(
            Task(
                "verify_ratio_congruence",
                lambda store: congruence.verify_ratio_congruence(spec, b_max, n_box),
                _check_report(expected),
            )
        )

    for r, spec in central.items():
        for b_max in (4,) if smoke else (6, 8, 10, 12):
            ratio(spec, b_max, (4,))
    for b_max in (3,) if smoke else (4, 5):
        ratio(apery, b_max, (2, 2))
    for spec in randoms:
        ratio(spec, *((8, (4,)) if spec.dim == 1 else (4, (2, 2))))

    for r in (1, 2):
        for p_max in (5,) if smoke else (5, 7):
            expected = sum(_primes_up_to(p_max)) * 5
            tasks.append(
                Task(
                    "verify_plucas_at_one",
                    lambda store, s=central[r], p=p_max: congruence.verify_plucas_at_one(s, p, (4,)),
                    _check_report(expected),
                )
            )

    # Every catalog spec at every modulus 2..9 in two boxes. These calls are
    # the same for every seed and put many like costs around the median call,
    # so that task_p50_ms does not hang on which random specs a seed draws.
    inter2 = [
        (spec, b, n_box)
        for spec in list(central.values()) + [apery]
        for b in range(2, 10)
        for n_box in (((3,), (4,)) if spec.dim == 1 else ((1, 2), (2, 2)))
    ]
    for spec, b, n_box in inter2[:: 16 if smoke else 1]:
        tasks.append(
            Task(
                "verify_inter2_identity",
                lambda store, s=spec, b=b, n_box=n_box: congruence.verify_inter2_identity(s, b, n_box),
                _check_report(math.prod(c + 1 for c in n_box)),
            )
        )
    rng.shuffle(tasks)
    return tasks


# -- apery -----------------------------------------------------------------------


def _apery_checked(b_max: int, total: int) -> int:
    return sum((total - m) // b + 1 for b in range(1, b_max + 1) for m in range(min(b, total + 1)))


def _apery(seed: int, smoke: bool) -> list[Task]:
    rng = Random(seed)
    total = 10 if smoke else 24
    order = 8 if smoke else 16
    apery_a = catalog.apery_number_sequence("a", order)
    tasks: list[Task] = []

    # Per family, two seeded weights t. The first sweep of each (family, t)
    # builds the polynomials up to `total` cold; the others reuse the memo, as
    # a session checking several moduli ranges would.
    for family in ("a", "b"):
        for t in rng.sample(range(4), 2):
            for b_max in (12, 11, 9, 7, 5, 3, 2)[: 2 if smoke else 7]:
                tasks.append(
                    Task(
                        "verify_apery",
                        lambda store, f=family, t=t, b=b_max: congruence.verify_apery(f, t, b, total),
                        _check_report(_apery_checked(b_max, total)),
                    )
                )

    spec = catalog.apery_spec()

    def check_series(F) -> int:
        for n, coeff in F.items():
            _expect(coeff == _ratio_ref(spec, n), f"build_F coefficient at {n}")
        _expect(len(F.coeffs) == (order + 1) ** 2, "build_F coefficient count")
        return 1

    def build(store):
        store["F"] = series.build_F(spec, (order, order))
        return store["F"]

    tasks.append(Task("build_F", build, check_series))

    diag_refs: dict = {}

    def diag_ref(t: int, n: int):
        key = (t, n)
        if key not in diag_refs:
            # Criterion 5's identity: the diagonal specialization is the family-a sum.
            diag_refs[key] = congruence.apery_polynomial("a", t, n)
        return diag_refs[key]

    for t in rng.sample(range(4), 2 if smoke else 4):

        def spec_call(store, t=t):
            store[t] = series.specialize(store["F"], (t, 0), (1, 1), order)
            return store[t]

        def spec_check(diag, t=t) -> int:
            for n in range(order + 1):
                _expect(diag.coeff((n,)) == diag_ref(t, n), f"diagonal coefficient {n}, t={t}")
            _expect(diag.values_at_q(1) == apery_a, "diagonal at q = 1")
            return 1

        tasks.append(Task("specialize", spec_call, spec_check))
        # Every modulus, so that the cheap calls outnumber the rest and the
        # median call is one of them whatever the seed.
        for b in range(2, 4 if smoke else order + 1):

            def cofactor_check(result, t=t, b=b) -> int:
                residues, report = result
                want = [reduce_mod_cyclotomic(diag_ref(t, m), b) for m in range(b)]
                _expect(residues == want, f"cofactor residues, t={t}, b={b}")
                return _check_report(order + 1)(report)

            tasks.append(
                Task(
                    "extract_cofactor",
                    lambda store, t=t, b=b: series.extract_cofactor(store[t], apery_a, b, order),
                    cofactor_check,
                )
            )
    # The congruence sweeps run in seeded order; the series tasks follow in
    # order, since the series is built before it is specialized.
    sweeps = [k for k in tasks if k.label == "verify_apery"]
    rng.shuffle(sweeps)
    return sweeps + [k for k in tasks if k.label != "verify_apery"]


# -- decide -------------------------------------------------------------------------

# The pool's strata: specs are sorted by recorded elimination work within each
# dimension and cut into groups of this size; a pass draws one spec per group,
# and each run of POOL_GROUP groups draws every rank within a group once, in
# seeded order, so every seed checks a different selection of the same cost
# profile.
POOL_GROUP = 4

# Relation searches whose answers are known: the central binomial series g1 is
# algebraic, (1 - 4x) g1^2 = 1, and g2, g3 are transcendental, so no relation
# exists in any box without g1 squared. Terms as (x power, y powers) -> coefficient.
G1_RELATION = {(0, 0): 1, (0, 2): -1, (1, 2): 4}
RELATION_MENU = (
    ((1,), 1, 2, 30, G1_RELATION),
    ((1,), 1, 2, 40, G1_RELATION),
    ((1,), 1, 1, 40, None),
    ((2,), 2, 2, 60, None),
    ((3,), 2, 2, 60, None),
    ((1, 2), 1, 1, 40, None),
    ((2, 3), 2, 2, 60, None),
    ((2, 3), 3, 2, 80, None),
)


def load_landau_pool() -> list[dict]:
    with open(LANDAU_REFS, encoding="utf-8") as fh:
        return json.load(fh)["specs"]


def _pool_spec(entry: dict) -> RatioSpec:
    return RatioSpec(entry["dim"], tuple(map(tuple, entry["e"])), tuple(map(tuple, entry["f"])))


def _landau_task(entry: dict) -> Task:
    spec = _pool_spec(entry)
    fields = ("integrality", "criterion_D", "min_value_overall", "min_value_on_D", "num_cells")

    def check(report) -> int:
        for name in fields:
            _expect(getattr(report, name) == entry[name], f"{name} of {entry['e']} / {entry['f']}")
        return 1

    return Task("check_landau", lambda store: landau.check_landau(spec), check)


def _decide(seed: int, smoke: bool) -> list[Task]:
    rng = Random(seed)
    pool = load_landau_pool()
    tasks: list[Task] = []
    for dim in (1, 2, 3):
        stratum = sorted((e for e in pool if e["dim"] == dim), key=lambda e: (e["work"], e["e"], e["f"]))
        groups = [stratum[i : i + POOL_GROUP] for i in range(0, len(stratum), POOL_GROUP)]
        ranks = list(range(POOL_GROUP))
        for i, group in enumerate(groups[:3] if smoke else groups):
            if i % POOL_GROUP == 0:
                rng.shuffle(ranks)
            tasks.append(_landau_task(group[ranks[i % POOL_GROUP] % len(group)]))

    longest = 2 * max(order for *_, order, _ in RELATION_MENU)
    sequences = {r: catalog.central_power_sequence(r, longest) for r in (1, 2, 3)}
    for powers, dx, dy, order, relation in RELATION_MENU[:: 4 if smoke else 1]:
        data = [sequences[r] for r in powers]

        def check_found(found, relation=relation) -> int:
            if relation is None:
                _expect(found == [], "spurious relation")
            else:
                _expect(len(found) == 1, "relation count")
                terms = {(m[0], m[1]): c for m, c in found[0].terms}
                _expect(terms == relation, "relation terms")
            return 1

        tasks.append(
            Task("find_relations", lambda store, d=data, a=(dx, dy, order): relations.find_relations(d, *a), check_found)
        )
    g1_relation = relations.RelationCandidate(
        tuple(sorted(((i, a), c) for (i, a), c in G1_RELATION.items())), 0
    )
    for r, holds in ((1, True), (2, False)):
        tasks.append(
            Task(
                "verify_relation",
                lambda store, d=[sequences[r]]: relations.verify_relation(g1_relation, d, 60),
                lambda ok, holds=holds: _expect_count(ok is holds, "verify_relation verdict"),
            )
        )

    order = 40
    ld_inputs = [("g", r, p) for r in (1, 2, 3) for p in (2, 3, 5)] + [("factorial", 0, 2)]
    for kind, r, p in rng.sample(ld_inputs, 2 if smoke else 4):
        values = sequences[r][: order + 1] if kind == "g" else catalog.factorial_sequence(order)
        fseries = series.TruncatedSeries.from_coefficients(values)

        def ld_check(report, values=values, p=p) -> int:
            failures = []
            for n in range(order + 1):
                lhs, rhs = values[n] % p, values[n % p] * values[n // p] % p
                if lhs != rhs:
                    failures.append([n % p, n, lhs, rhs])
            got = [
                [f.a[0], f.n[0], f.lhs_residue.evaluate(0), f.rhs_residue.evaluate(0)]
                for f in report.failures
            ]
            _expect(got == failures and report.ok is (not failures), "functional equation failures")
            _expect(report.checked == order + 1, "functional equation count")
            return report.checked

        tasks.append(
            Task(
                "verify_definition_Ld",
                lambda store, s=fseries, p=p: series.verify_definition_Ld(s, p, 1, order),
                ld_check,
            )
        )

    # The relation searches and the series of every central spec are the same
    # for every seed: their costs straddle the median call, so drawing them
    # would move task_p50_ms from seed to seed.
    cap = 12 if smoke else 30
    for r in (1,) if smoke else (1, 2, 3):
        spec = catalog.central_binomial_spec(r)
        key = ("F", r)

        def build(store, spec=spec, key=key):
            store[key] = series.build_F(spec, (cap,))
            return store[key]

        def build_check(F, spec=spec) -> int:
            for n in range(cap + 1):
                _expect(F.coeff((n,)) == _ratio_ref(spec, (n,)), f"series coefficient {n}")
            return 1

        tasks.append(Task("build_F", build, build_check))
        g = sequences[r][: cap + 1]
        for b in (4,) if smoke else (4, 9):

            def cofactor_check(result, spec=spec, b=b) -> int:
                residues, report = result
                want = [_residue_ref(spec, (m,), b) for m in range(b)]
                _expect([x.to_strings() for x in residues] == want, "cofactor residues")
                return _check_report(cap + 1)(report)

            tasks.append(
                Task(
                    "extract_cofactor",
                    lambda store, key=key, g=g, b=b: series.extract_cofactor(store[key], g, b, cap),
                    cofactor_check,
                )
            )
    return tasks


# -- query ----------------------------------------------------------------------------

# Catalog specs as (dimension, lowest, highest point coordinate); the ranges
# keep a single call in the interactive range (well under a second). Every
# inverse-central point from 1 on is non-integral, so each seed makes the same
# number of calls that meet the exit-code defect.
QUERY_SPECS = {
    "central": (1, 0, 30),
    "central:2": (1, 0, 24),
    "central:3": (1, 0, 20),
    "binom": (2, 0, 12),
    "binom:2": (2, 0, 10),
    "apery": (2, 0, 8),
    "inverse-central": (1, 1, 12),
}


def _cli(argv: list[str]):
    """qlucas.cli.main with stdout and stderr captured, as a user's shell would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(expect: Callable[[], tuple[int, Callable[[dict], bool]]]) -> Callable[[object], int]:
    """Check of a CLI call; ``expect`` gives the contract's exit code and the
    report test, computed lazily so that no reference work runs in set-up."""

    def check(result) -> int:
        code, text = result
        expected_code, fields = expect()
        if code != expected_code:
            if code not in (0, 1):
                raise ContractBreach(f"exit {code}, expected {expected_code}")
            raise Mismatch(f"verdict exit {code}, expected {expected_code}")
        if code == 0:
            _expect(fields(json.loads(text)["report"]), "report fields")
        return 1

    return check


def _cyclotomic_task(b: int) -> Task:
    return Task(
        "cli.cyclotomic",
        lambda store: _cli(["cyclotomic", str(b), "--format", "json"]),
        _cli_check(lambda: (0, lambda rep: rep["coefficients"] == _cyclotomic_ref(b))),
    )


def _qbinom_task(n: int, k: int, b: int) -> Task:
    spec = catalog.binomial_spec(1)
    return Task(
        "cli.qbinom",
        lambda store: _cli(["qbinom", str(n), str(k), "--mod", str(b), "--format", "json"]),
        _cli_check(lambda: (0, lambda rep: rep["coefficients"] == _residue_ref(spec, (k, n - k), b))),
    )


def _qratio_task(kind: str, name: str, point: tuple[int, ...], b: int) -> Task:
    spec = catalog.builtin_spec(name)
    argv = ["qratio", "--spec", name, "--point", ",".join(map(str, point)), "--format", "json"]

    def verdict(fields: Callable[[dict], bool]) -> tuple[int, Callable[[dict], bool]]:
        # A non-integral point is a negative verdict: exit 1 on every path.
        return (0 if _ratio_ref(spec, point) is not None else 1), fields

    if kind == "at-one":

        def expect_at_one():
            value = _at_one_ref(spec, point)
            return (0 if value.denominator == 1 else 1), lambda rep: rep["value_at_one"] == value

        return Task("cli.qratio.at_one", lambda store: _cli(argv + ["--at-one"]), _cli_check(expect_at_one))
    if kind == "mod":
        return Task(
            "cli.qratio.mod",
            lambda store: _cli(argv + ["--mod", str(b)]),
            _cli_check(lambda: verdict(lambda rep: rep["coefficients"] == _residue_ref(spec, point, b))),
        )
    return Task(
        "cli.qratio",
        lambda store: _cli(argv),
        _cli_check(lambda: verdict(lambda rep: rep["coefficients"] == _ratio_ref(spec, point).to_strings())),
    )


# Calls per pass of each qratio path for each spec, and of the other commands.
QRATIO_CALLS = {"qratio": 9, "mod": 11, "at-one": 5}
OTHER_CALLS = 38


def _query(seed: int, smoke: bool) -> list[Task]:
    # Every seed makes the same number of calls of each command, spec and path,
    # with points spread over each range (Latin hypercube draws), so that the
    # latency tail has the same make-up whatever the seed.
    rng = Random(seed)
    other = 2 if smoke else OTHER_CALLS
    tasks = [_cyclotomic_task(b) for b in _strata(rng, 1, 120, other)]
    for n in _strata(rng, 0, 40, other):
        tasks.append(_qbinom_task(n, rng.randint(0, n), rng.randint(1, 16)))
    for name, (dim, lo, hi) in sorted(QUERY_SPECS.items()):
        for kind, count in QRATIO_CALLS.items():
            count = 1 if smoke else count
            coords = [_strata(rng, lo, hi, count) for _ in range(dim)]
            moduli = _strata(rng, 1, 16, count)
            for i in range(count):
                tasks.append(_qratio_task(kind, name, tuple(c[i] for c in coords), moduli[i]))
    rng.shuffle(tasks)
    return tasks


def build(workload: str, seed: int, smoke: bool = False) -> list[Task]:
    """The seeded task list of one pass of a workload."""
    return {"sweep": _sweep, "apery": _apery, "decide": _decide, "query": _query}[workload](seed, smoke)
