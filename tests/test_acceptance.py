"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Time limits are asserted where a criterion states one.
"""

from __future__ import annotations

import json
import random
import time

from threadsets.catalog import catalog
from threadsets.classify import (DIM0, DIM1_IRREDUCIBLE,
                                 DIM2_UNIQUE_EXTREMES, shape_of)
from threadsets.cli import main
from threadsets.families import thread_sets, threads
from threadsets.poset import build_poset
from threadsets.serialize import (dumps, family_from_dict, family_to_dict,
                                  form_from_dict, form_to_dict,
                                  poset_from_dict, poset_to_dict,
                                  tuple_from_lists, tuple_to_lists)
from threadsets.tuples import prune_to_threads
from threadsets.verify import (Bounds, labeled_corpus, verify_classifier,
                               verify_conjecture, verify_operator_laws,
                               verify_thread_monoid)


def _outcome(number: int, name: str, ok: bool, extra: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {status}{tail}")
    return ok


def test_criterion_1_operator_laws():
    start = time.perf_counter()
    failures = 0
    cases = 0
    for _, P in labeled_corpus(4):
        report = verify_operator_laws(P, Bounds(max_k=2))
        assert report.mode == "exhaustive"
        failures += report.failure_count
        cases += report.cases
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= 60.0
    assert _outcome(1, "operator-law suite", ok,
                    f"{cases} tuples, {failures} failures, {elapsed:.1f}s")


def test_criterion_2_monoid_suite():
    start = time.perf_counter()
    corpus = labeled_corpus(4) + [
        ("chain(3)", catalog("chain", 3).poset),
        ("diamond(2)", catalog("diamond", 2).poset),
    ]
    failures = 0
    cases = 0
    for _, P in corpus:
        report = verify_thread_monoid(P, Bounds(max_k=2))
        assert report.mode == "exhaustive"
        failures += report.failure_count
        cases += report.cases
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= 120.0
    assert _outcome(2, "monoid suite", ok,
                    f"{cases} cases, {failures} failures, {elapsed:.1f}s")


def test_criterion_3a_thread_prune_on_antichain():
    P = build_poset(["p", "q", "r"], [])
    t = (P.subset(["p", "r"]), P.subset(["q", "r"]))
    r = P.subset(["r"])
    ok = prune_to_threads(P, t) == (r, r)
    assert _outcome(3, "golden (a) antichain thread prune", ok)


def test_criterion_3b_remark_generators():
    P = build_poset(["p1", "p2", "q1", "q2"], [("p2", "p1"), ("q2", "q1")])
    triple = (P.subset(["p1", "q1"]), P.subset(["p1", "q2"]),
              P.subset(["p2", "q2"]))
    pair = (P.subset(["p1", "q1"]), P.subset(["p2", "q2"]))
    expected = frozenset({P.subset(["p1", "p2"]), P.subset(["q1", "q2"])})
    F, G = thread_sets(P, triple), thread_sets(P, pair)
    ok = F == G and F.generators == expected
    assert _outcome(3, "golden (b) equal thread sets with exact generators", ok)


def test_criterion_3c_zariski_identity_and_thread_shapes():
    entry = catalog("zariski_xy", 2, 2)
    P = entry.poset
    same = thread_sets(P, entry.tuples["triple"]) == thread_sets(
        P, entry.tuples["pair"])
    found = {tuple(P.elements[i] for i in sequence)
             for sequence, _ in threads(P, entry.tuples["triple"])}
    below_x = {"a1", "a2", "O"}
    below_y = {"b1", "b2", "O"}
    shape1 = {("X", "X", z) for z in below_x}         # (x) = (x) > (x, y-mu)
    shape2 = {("X", "O", "O")}                        # (x) > (x,y) = (x,y)
    shape3 = {("Y", z, z) for z in below_y}           # (y) > (x-l,y) = (x-l,y)
    all_shapes = shape1 | shape2 | shape3
    covered = found <= all_shapes
    realized = (found & shape1 and found & shape2 and found & shape3)
    ok = bool(same and covered and realized)
    assert _outcome(3, "golden (c) zariski_xy reduction and thread shapes", ok,
                    f"{len(found)} threads")


def test_criterion_3d_torus_reduction():
    entry = catalog("torus2", 2)
    P = entry.poset
    fam = entry.tuples["family"]
    ok = len(fam) == 4 and thread_sets(P, fam) == thread_sets(
        P, entry.tuples["reduced"])
    assert _outcome(3, "golden (d) torus2 tuple family reduction", ok)


def test_criterion_3e_dim2_lemma_identities():
    entry = catalog("diamond", 3)
    P = entry.poset
    t, m = P.subset(["t"]), P.subset(["m"])
    mids = P.full & ~t & ~m
    checked = 0
    ok = True
    a = mids
    while True:
        b = mids
        while True:
            ts = lambda parts: thread_sets(P, parts)
            meet = a & b
            ok = ok and ts((t | a | m, t | b | m)) == ts((t | meet | m,))
            ok = ok and ts((t | a, t | b | m)) == ts((t | a, t | meet | m))
            ok = ok and ts((t | a | m, b | m)) == ts((t | meet | m, b | m))
            ok = ok and ts((t | a, t | meet | m, b | m)) == ts((t | a, b | m))
            checked += 4
            if b == 0:
                break
            b = (b - 1) & mids
        if a == 0:
            break
        a = (a - 1) & mids
    assert _outcome(3, "golden (e) dimension-2 lemma identities", ok,
                    f"{checked} identities on diamond(3)")


def test_criterion_4_classifier_suite():
    start = time.perf_counter()
    posets = [catalog("star", k).poset for k in range(1, 5)]
    posets += [catalog("diamond", k).poset for k in range(1, 4)]
    failures = 0
    cases = 0
    for P in posets:
        report = verify_classifier(P)
        failures += report.failure_count
        cases += report.cases
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= 120.0
    assert _outcome(4, "classifier round-trip suite", ok,
                    f"{cases} instances, {failures} failures, {elapsed:.1f}s")


def test_criterion_5_conjecture_buckets():
    failures = 0
    cases = 0
    supported = 0
    for _, P in labeled_corpus(4):
        if shape_of(P) not in (DIM0, DIM1_IRREDUCIBLE, DIM2_UNIQUE_EXTREMES):
            continue
        supported += 1
        bounds = Bounds(max_k=3 if P.n <= 3 else 2)
        report = verify_conjecture(P, bounds)
        assert report.mode == "exhaustive"
        failures += report.failure_count
        cases += report.cases
    ok = failures == 0
    assert _outcome(5, "conjecture bucket test", ok,
                    f"{supported} posets, {cases} tuples, {failures} failures")


def _random_poset_doc(rng: random.Random) -> dict:
    n = rng.randint(1, 6)
    names = [f"e{i}" for i in range(n)]
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                relations.append(f"{names[i]} < {names[j]}")
    return {"elements": names, "relations": relations}


def test_criterion_6_cli_contract(tmp_path, capsys):
    rng = random.Random(20240817)
    round_trips = 0
    ok = True
    for _ in range(1000):
        P = poset_from_dict(_random_poset_doc(rng))
        ok = ok and poset_from_dict(json.loads(dumps(poset_to_dict(P)))) == P
        k = rng.randint(1, 3)
        t = tuple(rng.randrange(1 << P.n) for _ in range(k))
        ok = ok and tuple_from_lists(
            P, json.loads(dumps(tuple_to_lists(P, t)))) == t
        F = thread_sets(P, t)
        ok = ok and family_from_dict(
            P, json.loads(dumps(family_to_dict(P, F)))) == F
        from threadsets.classify import normal_form
        nf = normal_form(P, t)
        ok = ok and form_from_dict(
            P, json.loads(dumps(form_to_dict(P, nf)))) == nf
        round_trips += 1

    poset_path = tmp_path / "p.json"
    poset_path.write_text(dumps({"elements": ["p1", "p2", "q1", "q2"],
                                 "relations": ["p2 < p1", "q2 < q1"]}))
    a = tmp_path / "a.json"
    a.write_text(dumps([["p1", "q1"], ["p1", "q2"], ["p2", "q2"]]))
    b = tmp_path / "b.json"
    b.write_text(dumps([["p1", "q1"], ["p2", "q2"]]))
    eq_code = main(["eq", "--poset", str(poset_path), "--tuple", str(a),
                    "--tuple", str(b)])
    eq_out = capsys.readouterr().out
    ok = ok and eq_code == 0 and eq_out.strip() == "equal"

    verify_code = main(["verify", "all"])
    capsys.readouterr()
    ok = ok and verify_code == 0

    assert _outcome(6, "CLI contract", ok,
                    f"{round_trips} round-trips, eq=equal, verify all exit 0")
