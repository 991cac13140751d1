"""Correctness checks of workload results, run outside the timed region.

A result is compared with a second pipeline where that is cheap: the
recursion, run in the checking process, checks lattice paths and the cached
answers of the CLI; templates check node counts with 3 or 4 nodes, from
either the recursion or floor diagrams; floor diagrams check the other
recursion counts up to degree 4.  Node counts with at most 2 nodes are
checked against the closed forms of acceptance criteria 2 and 3.  Every GW
value must also have the shape the tests assert: rank = signature (mod 2),
|signature| <= rank, and after splitting off hyperbolic planes at most one
class, <W> or <-W>, where W is the product of the end weights.  Repeated
runs of the same input must agree.
"""

from __future__ import annotations

from math import prod

from tropgw import ch, floors, templates
from tropgw.gw import ONE, GWElement, gw_equal, hyperbolic, hyperbolic_decomposition, square_free


def gw_value(terms) -> GWElement:
    return GWElement.from_dict({rep: mult for rep, mult in terms})


def node_closed_form(d: int, delta: int) -> GWElement | None:
    """N^delta(d) for delta <= 2 and d >= delta (criteria 2 and 3), else None."""
    if delta > 2 or d < delta:
        return None
    p = {0: 0, 1: (d - 1) * (d - 2), 2: 2 * d**4 - 9 * d**3 + 4 * d**2 + 21 * d - 18}[delta]
    q2 = {0: 2, 1: 2 * (d * d - 1), 2: d**4 - 4 * d**2 - 3 * d + 6}[delta]
    return hyperbolic(p) + (q2 // 2) * ONE


def shape_ok(value: GWElement, weight_product: int) -> bool:
    rank, signature = value.rank, value.signature
    if (rank - signature) % 2 or abs(signature) > rank:
        return False
    _, rest = hyperbolic_decomposition(value)
    cls = square_free(weight_product)
    return len(rest.terms) <= 1 and all(rep in (cls, -cls) for rep, _ in rest.terms)


def _weight_product(item: dict) -> int:
    if item["kind"] == "ray":
        return prod(item["w_left"]) * prod(item["w_right"])
    if item["kind"] == "ch" and item["beta"] is not None:
        return ch.seq_stats(item["beta"])[2]
    return 1


def _ch_oracle(d: int, g: int) -> GWElement | None:
    delta = ch.max_genus(d) - g
    closed = node_closed_form(d, delta)
    if closed is not None:
        return closed
    if delta <= 4:
        return templates.severi_by_templates(d, delta)
    if d <= 4:
        return floors.delta_floor_count(d, g)
    return None


def oracle(item: dict):
    """An independently computed value for the item, or None."""
    kind = item["kind"]
    if kind == "path":
        return ch.ch_count(item["d"], item["g"])
    if kind == "ch" and not item["alpha"] and item["beta"] is None:
        return _ch_oracle(item["d"], item["g"])
    if kind == "cli":
        return ch.ch_count(item["d"], item["g"])
    if kind == "severi":
        closed = node_closed_form(item["d"], item["delta"])
        if closed is not None:
            return closed
        return templates.severi_by_templates(item["d"], item["delta"])
    return None


def _identity(item: dict) -> str:
    """Items with equal identity must give equal counts."""
    if item["kind"] == "ray":
        return repr(("ray", item["k"], item["a"], item["g"],
                     sorted(item["w_left"]), sorted(item["w_right"])))
    if item["kind"] in ("path", "cli"):
        return repr(("count", item["d"], item["g"]))
    return repr(sorted((k, v) for k, v in item.items() if k != "argv"))


class Checker:
    """Checks results as they arrive; oracles are computed once per item."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._oracles: dict[str, object] = {}
        self._seen: dict[str, object] = {}
        self._severi3: dict[int, GWElement] = {}

    def check_batch(self, items: list[dict], results: list[dict]) -> None:
        """Check a whole batch; node-polynomial fits last, after the counts they use."""
        pairs = sorted(zip(items, results), key=lambda pair: pair[0]["kind"] == "nodepoly")
        for item, result in pairs:
            self.check(item, result)

    def _fail(self, item: dict, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            shown = {k: v for k, v in item.items() if k != "argv"}
            self.messages.append(f"{shown}: {why}")

    def check(self, item: dict, result: dict) -> None:
        self.attempted += 1
        if "error" in result:
            self._fail(item, result["error"])
            return
        value = result["value"]
        key = _identity(item)
        if key in self._seen and self._seen[key] != value:
            if item["kind"] == "nodepoly" or not gw_equal(gw_value(self._seen[key]), gw_value(value)):
                self._fail(item, "differs from an earlier run of the same input")
                return
        self._seen.setdefault(key, value)
        if item["kind"] == "nodepoly":
            self._check_fit(item, value)
            return
        gw = gw_value(value)
        if not shape_ok(gw, _weight_product(item)):
            self._fail(item, f"bad shape {gw}")
            return
        if key not in self._oracles:
            self._oracles[key] = oracle(item)
        expected = self._oracles[key]
        if expected is not None and not gw_equal(gw, expected):
            self._fail(item, f"{gw} != expected {expected}")
        if item["kind"] == "severi" and item["delta"] == 3:
            self._severi3[item["d"]] = gw

    def _check_fit(self, item: dict, value: dict) -> None:
        """Degree-2*delta fits whose values agree with floor-diagram node counts."""
        degree = 2 * item["delta"]
        if len(value["hyperbolic"]) != degree + 1 or len(value["unit"]) != degree + 1:
            self._fail(item, "fitted polynomials do not have degree 2*delta")
            return
        for d, p, q in value["values"]:
            if item["delta"] == 3 and d in self._severi3:
                if not gw_equal(hyperbolic(p) + q * ONE, self._severi3[d]):
                    self._fail(item, f"fit value at d={d} differs from severi_count")
                    return
