"""Layer-boundary tracing of qlucas, done from the benchmark's side.

``Tracer.install`` replaces each public function listed in ``BOUNDARIES``
with a timing wrapper, in every loaded qlucas module that binds it, so calls
between modules are seen as well as the benchmark's own calls; ``uninstall``
puts the originals back. Nothing inside ``src/qlucas`` changes. A boundary
whose function no longer exists is reported as absent instead of failing.

Each wrapped call records a span (name, start, end, parent) in memory; the
spans are written out when the run ends. Per boundary the tracer sums calls
and self time, the span's duration minus the time its child spans cover.
Per-element helpers such as ``qcombinatorics.dot`` are deliberately not
wrapped: they run millions of times per pass.

Some boundaries also count work. Those counts are taken outside the timed
span and their time is booked as a child of the enclosing span, so it shows
in no boundary's self time, only in the traced run's overhead.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from typing import Callable, Optional

from qlucas import catalog, cli, congruence, intpoly, landau, qcombinatorics, relations, series

# Layer name -> (module, wrapped public functions). "mul" is
# IntPolynomial.__mul__ and __rmul__.
BOUNDARIES = {
    "intpoly": (intpoly, ("mul", "mul_one_minus_qk", "div_one_minus_qk_exact",
                          "reduce_mod_cyclotomic", "cyclotomic", "divide_exact")),
    "qcombinatorics": (qcombinatorics, ("q_ratio", "q_ratio_mod", "q_ratio_at_one",
                                        "q_ratio_cyclotomic", "q_ratio_box", "q_binomial",
                                        "ratio_degree")),
    "congruence": (congruence, ("verify_ratio_congruence", "verify_plucas_at_one",
                                "verify_inter2_identity", "verify_apery", "apery_polynomial")),
    "landau": (landau, ("check_landau", "enumerate_cells")),
    "series": (series, ("build_F", "specialize", "extract_cofactor", "verify_definition_Ld")),
    "relations": (relations, ("find_relations", "verify_relation")),
    "catalog": (catalog, ("central_power_sequence", "gaussian_central_sequence",
                          "apery_number_sequence", "builtin_sequence")),
    "cli": (cli, ("main",)),
}

# Multiplications with more coefficient pairs than this count as large (the
# size where the seed's kernel switches to Kronecker substitution).
LARGE_MUL_PAIRS = 4096
# q_ratio_mod calls whose ratio degree exceeds this count as high-degree (the
# seed's RESIDUE_DEGREE_THRESHOLD, where the residue-product path starts).
HIGH_DEGREE = 64

# Memo caches whose hit ratio is reported: metric name -> (module, attribute).
CACHES = {
    "intpoly.cyclotomic.hit_ratio": (intpoly, "cyclotomic"),
    "congruence.apery_polynomial.hit_ratio": (congruence, "apery_polynomial"),
}

COUNTERS = (
    "intpoly.mul.coeff_pairs",
    "intpoly.mul.large_calls",
    "intpoly.mul.computed_bytes",
    "qcombinatorics.q_ratio_mod.high_degree_calls",  # reported as a share of calls
    "congruence.checked",
    "landau.cells",
    "relations.matrix_entries",
)


def boundary_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, (_, fns) in BOUNDARIES.items() for fn in fns]


def _bits(x) -> int:
    if isinstance(x, intpoly.IntPolynomial):
        return sum(c.bit_length() for c in x.coeffs)
    return x.bit_length() if isinstance(x, int) else 0


class Tracer:
    """Wraps the boundaries while installed and keeps spans and sums in memory."""

    def __init__(self):
        self.keep_spans = True  # the runner keeps the set-up and first traced pass
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, Callable] = {}
        self._stack: list[list] = []  # [span index, child time] per open span
        # (calls, self_s, counts, cache hit ratios) of each traced pass
        self.pass_readings: list[tuple[dict, dict, dict, dict]] = []
        self.calls = dict.fromkeys(boundary_names(), 0)
        self.self_s = dict.fromkeys(boundary_names(), 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)

    def reset(self) -> None:
        """Zero the sums in place (the wrappers hold these dicts; kept spans stay)."""
        for sums in (self.calls, self.self_s, self.counts):
            for key in sums:
                sums[key] = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        self._originals = {
            f"{layer}.{fn}": getattr(module, fn, None)
            for layer, (module, fns) in BOUNDARIES.items()
            for fn in fns
        }
        for layer, (module, fns) in BOUNDARIES.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                if fn == "mul":
                    cls = getattr(module, "IntPolynomial", None)
                    if cls is None or "__mul__" not in vars(cls):
                        self.absent.append(name)
                        continue
                    for attr in ("__mul__", "__rmul__"):
                        original = vars(cls).get(attr)
                        if original is not None:
                            self._patch(cls, attr, self._wrap(name, original))
                    continue
                original = self._originals[name]
                if original is None:
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                # Rebind every module-level name that refers to the original,
                # so calls made between qlucas modules pass the wrapper too.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "qlucas" or mod_name.startswith("qlucas.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------------

    def _before(self, name: str) -> Optional[Callable]:
        counts = self.counts
        if name == "intpoly.mul":

            def before(args, kwargs):
                a, b = args[0], args[1]
                pairs = len(a.coeffs) * (len(b.coeffs) if isinstance(b, intpoly.IntPolynomial) else 1)
                counts["intpoly.mul.coeff_pairs"] += pairs
                counts["intpoly.mul.large_calls"] += pairs > LARGE_MUL_PAIRS
                counts["intpoly.mul.computed_bytes"] += (_bits(a) + _bits(b)) / 8

            return before
        if name == "qcombinatorics.q_ratio_mod" and self._originals["qcombinatorics.ratio_degree"]:
            degree = self._originals["qcombinatorics.ratio_degree"]

            def before(args, kwargs):
                counts["qcombinatorics.q_ratio_mod.high_degree_calls"] += degree(args[0], args[1]) > HIGH_DEGREE

            return before
        if name == "relations.find_relations":
            signature = inspect.signature(self._originals[name])

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                ncols = (bound["dx"] + 1) * math.comb(len(bound["series"]) + bound["dy"], bound["dy"])
                counts["relations.matrix_entries"] += (bound["order"] + 1) * ncols

            return before
        return None

    def _after(self, name: str) -> Optional[Callable]:
        counts = self.counts
        if name.startswith("congruence.verify_"):

            def after(result):
                counts["congruence.checked"] += result.checked

            return after
        if name == "landau.check_landau":

            def after(result):
                counts["landau.cells"] += result.num_cells

            return after
        return None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before, after = self._before(name), self._after(name)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        def hook(fn, *hook_args):
            # A hook's time counts as a child of the open span, so that it
            # lands in no boundary's self time, only in the run's overhead.
            start = clock()
            fn(*hook_args)
            if stack:
                stack[-1][1] += clock() - start

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [-1, 0.0]
            if tracer.keep_spans:
                frame[0] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if frame[0] >= 0:
                    spans[frame[0]] = (name, start, end, parent)
            if after is not None:
                hook(after, result)
            return result

        return traced

    # -- readings ---------------------------------------------------------------

    def cache_hit_ratios(self) -> dict[str, float]:
        """Hit ratio of each memo cache since it was last cleared.

        Read it while uninstalled: the wrappers hide ``cache_info``.
        """
        out = {}
        for metric, (module, attr) in CACHES.items():
            info = getattr(getattr(module, attr, None), "cache_info", None)
            if info is None:
                self.absent.append(metric)
                out[metric] = 0.0
                continue
            stats = info()
            lookups = stats.hits + stats.misses
            out[metric] = stats.hits / lookups if lookups else 0.0
        return out
